// Internals shared by the engine's interval-gated fast path (engine.cpp)
// and the retained per-op reference implementation (engine_reference.cpp).
// Both paths must consume RNG draws and update pipeline state identically
// — the byte-exact equivalence the overlay tests enforce hangs on these
// helpers being the single definition of the per-op fault semantics.
#pragma once

#include <cstddef>
#include <vector>

#include "accel/config.hpp"
#include "accel/dsp.hpp"
#include "fx/fixed.hpp"

namespace deepstrike::accel::detail {

/// Voltage at the capture edge of DDR half `half` in `cycle` (two halves
/// per cycle); nominal when the trace does not cover the cycle.
inline double capture_voltage(const std::vector<double>* voltage, std::size_t cycle,
                              std::size_t half, double vdd) {
    const std::size_t idx = cycle * 2 + half;
    if (voltage == nullptr || idx >= voltage->size()) return vdd;
    return (*voltage)[idx];
}

inline bool throttled(const std::vector<bool>* throttle, std::size_t cycle) {
    return throttle != nullptr && cycle < throttle->size() && (*throttle)[cycle];
}

/// Per-DSP pipeline state for duplication faults: the last product captured
/// on each physical slice (in op-stream order).
struct DspPipeline {
    std::vector<fx::Acc> last_product;

    explicit DspPipeline(std::size_t n_dsps) : last_product(n_dsps, 0) {}
};

/// Evaluates one op, optionally with triple-modular-redundancy voting:
/// under TMR an op only faults when at least two of three independent
/// evaluations fault, and the surviving fault kind is the majority kind.
inline FaultKind evaluate_op(const DspSlice& slice, double v,
                             const pdn::DelayModel& delay, Rng& rng,
                             double path_scale, bool tmr) {
    if (!tmr) return slice.evaluate(v, delay, rng, path_scale);
    int dup = 0;
    int rnd = 0;
    for (int r = 0; r < 3; ++r) {
        switch (slice.evaluate(v, delay, rng, path_scale)) {
            case FaultKind::Duplication: ++dup; break;
            case FaultKind::Random: ++rnd; break;
            case FaultKind::None: break;
        }
    }
    if (dup + rnd < 2) return FaultKind::None;
    return dup >= rnd ? FaultKind::Duplication : FaultKind::Random;
}

/// evaluate_op with the delay factor precomputed by the caller. Under TMR
/// all three evaluations see the same capture voltage, hence the same
/// factor — exactly what evaluate_op computes three times over.
inline FaultKind evaluate_op_with_factor(const DspSlice& slice, double factor,
                                         Rng& rng, double path_scale, bool tmr) {
    if (!tmr) return slice.evaluate_with_factor(factor, rng, path_scale);
    int dup = 0;
    int rnd = 0;
    for (int r = 0; r < 3; ++r) {
        switch (slice.evaluate_with_factor(factor, rng, path_scale)) {
            case FaultKind::Duplication: ++dup; break;
            case FaultKind::Random: ++rnd; break;
            case FaultKind::None: break;
        }
    }
    if (dup + rnd < 2) return FaultKind::None;
    return dup >= rnd ? FaultKind::Duplication : FaultKind::Random;
}

} // namespace deepstrike::accel::detail
