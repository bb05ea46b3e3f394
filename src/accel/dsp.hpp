// DSP48 slice timing/fault model (paper Sec. IV-A, Fig. 6).
//
// The victim accelerator maps its multiply-accumulate work onto DSP48
// slices configured as (A + D) * B (pre-adder mode — the convolution
// configuration; FC layers are the k=1 special case, footnote 1). To hit
// performance targets, designers clock the DSPs at double data rate
// relative to the fabric, leaving only a few percent of timing slack —
// which is exactly why DSP-based layers are the most fault-sensitive
// (Sec. IV discussion).
//
// Fault mechanics under a voltage glitch:
//   path delay d_i * factor(V) vs. the DSP clock period T:
//     <= T                : correct capture
//     in (T, (1+dup)*T]   : the output register re-captures the previous
//                           result — a DUPLICATION fault ("the DSP output
//                           is the correct result of the previous input")
//     >  (1+dup)*T        : mid-transition capture — RANDOM fault
//   d_i carries per-slice process variation (fixed at construction) and
//   per-operation jitter (local IR drop, crosstalk), which together turn
//   the hard threshold into the smooth S-curves of Fig. 6b.
#pragma once

#include <cstdint>

#include "fx/fixed.hpp"
#include "pdn/delay.hpp"
#include "util/rng.hpp"

namespace deepstrike::accel {

enum class FaultKind : std::uint8_t { None = 0, Duplication, Random };

const char* fault_kind_name(FaultKind kind);

struct DspTimingParams {
    double clock_period_s = 5e-9;     // 200 MHz DSP clock (DDR vs 100 MHz fabric)
    double nominal_path_fraction = 0.89; // tight DDR timing: 11% slack at sign-off
    double variation_sigma = 0.010;   // per-slice process variation of d_i
    double op_jitter_sigma = 0.015;   // per-op delay jitter (local IR noise)
    double duplication_band = 0.015;  // violations up to 1.5% past T duplicate

    /// Conservatively-clocked logic (pool comparators, control): large
    /// slack, effectively immune at attack-scale droops.
    static DspTimingParams relaxed_logic() {
        DspTimingParams p;
        p.clock_period_s = 10e-9;        // fabric rate
        p.nominal_path_fraction = 0.50;  // 50% slack
        return p;
    }
};

class DspSlice {
public:
    /// Draws this slice's process variation from `construction_rng`.
    DspSlice(std::uint32_t id, const DspTimingParams& params, Rng& construction_rng);

    std::uint32_t id() const { return id_; }

    /// Nominal (voltage factor 1) path delay of this physical slice.
    double path_delay_s() const { return path_delay_s_; }

    /// Evaluates one operation captured while the die is at voltage `v`.
    /// `path_scale` derates the effective path for layer modes that do not
    /// exercise the full cascade (e.g. single-channel conv1); 1.0 = full.
    FaultKind evaluate(double v, const pdn::DelayModel& delay, Rng& op_rng,
                       double path_scale = 1.0) const {
        return evaluate_with_factor(delay.factor(v), op_rng, path_scale);
    }

    /// Same evaluation with the voltage-dependent delay factor supplied by
    /// the caller. factor(v) is shared by every op captured at the same
    /// sample, so the engine reads it from its overlay plan instead of
    /// evaluating pow() per op; the delay expression keeps the exact order
    /// of evaluate(), making the two entry points bit-identical.
    ///
    /// The op's jitter deviate z enters as d = k * (1 + (0 + sigma * z))
    /// with k = (path delay * path_scale) * factor, and the op is clean
    /// iff d <= T. Every step from z to d is monotone under
    /// round-to-nearest (k, sigma >= 0), and z <= the pair's Box–Muller
    /// magnitude, so the deviate's value is needed only when neither
    /// bound settles the outcome: the magnitude in z's place gives
    /// d <= T, or k <= T and the pair's angle puts z <= 0. Otherwise the
    /// exact deviate takes the comparison. Either way the deviate is
    /// taken and the stream advances as normal() advances it, so every
    /// outcome and every later draw is the one the eager comparison gives
    /// (tests/dsp_test.cpp).
    FaultKind evaluate_with_factor(double factor, Rng& op_rng,
                                   double path_scale = 1.0) const {
        const double k = path_delay_s_ * path_scale * factor;
        const double sigma = params_.op_jitter_sigma;
        const double period = params_.clock_period_s;
        const double mag = op_rng.normal_magnitude();
        if (k * (1.0 + (0.0 + sigma * mag)) <= period ||
            (k <= period && op_rng.normal_nonpositive())) {
            op_rng.skip_normal();
            return FaultKind::None;
        }
        const double d = k * (1.0 + (0.0 + sigma * op_rng.normal_value()));
        if (d <= period) return FaultKind::None;
        if (d <= period * (1.0 + params_.duplication_band)) return FaultKind::Duplication;
        return FaultKind::Random;
    }

    /// Fast pre-check: the highest voltage at which *any* op on this slice
    /// could fault (including 4-sigma jitter). Above it, evaluate() can be
    /// skipped without consuming RNG draws.
    double safe_voltage(const pdn::DelayModel& delay) const;

    /// Functional model of the configured op: (a + d) * b with Q3.4
    /// operands, full-precision product in accumulator units.
    static fx::Acc compute(fx::Q3_4 a, fx::Q3_4 d, fx::Q3_4 b) {
        const std::int32_t pre = static_cast<std::int32_t>(a.raw()) + d.raw();
        return static_cast<fx::Acc>(pre) * b.raw();
    }

    /// Random-fault payload: garbage within the product register range.
    static fx::Acc random_fault_value(Rng& rng);

    const DspTimingParams& params() const { return params_; }

private:
    std::uint32_t id_;
    DspTimingParams params_;
    double path_delay_s_; // d_i = nominal * (1 + variation)
};

} // namespace deepstrike::accel
