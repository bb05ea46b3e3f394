// Whole-segment per-op oracle for accel::AccelEngine::run_block, run on
// one image at a time (test-only).
//
// The original (pre-overlay) execution path of the accelerator fault
// model, written against AccelEngine's public accessors: it gates
// golden-vs-per-op per schedule segment and walks every op of a glitched
// segment, carrying each DSP's last product op by op. Each op evaluates
// the delay model at its capture voltage and computes its jitter deviate
// eagerly (testing::eager_deviate) from the uniforms of the fault RNG's
// pending Box–Muller pair, into the eager delay comparison
// (testing::eager_fault_kind), so the engine's plan factors and bracketed
// jitter decisions are checked against the model they replace rather than
// against themselves. The pair stays in the RNG, so after any run the
// oracle's stream is stream_equal to the engine's. The interval-gated, golden-elided
// engine must match it byte for byte (tests/overlay_test.cpp,
// tests/golden_cache_test.cpp).
#pragma once

#include <vector>

#include "accel/engine.hpp"

namespace deepstrike::testing {

/// Same logits, prediction, per-layer fault counts and fault-RNG stream
/// (stream_equal) as engine.run_block on a block of this one image, from
/// its golden pass (testing::run_engine).
accel::RunResult run_reference(const accel::AccelEngine& engine, const QTensor& image,
                               const accel::VoltageTrace* voltage, Rng& fault_rng,
                               const std::vector<bool>* throttle = nullptr);

} // namespace deepstrike::testing
