// Whole-segment per-op oracle for accel::AccelEngine::run_elided
// (test-only).
//
// The original (pre-overlay) execution path of the accelerator fault
// model, written against AccelEngine's public accessors: it gates
// golden-vs-per-op per schedule segment and walks every op of a glitched
// segment, carrying each DSP's last product op by op. Each op evaluates
// the delay model at its capture voltage and draws its jitter with the
// eager Box–Muller (testing::EagerNormal) into the eager delay
// comparison (testing::eager_fault_kind), so the engine's plan factors
// and bracketed jitter decisions are checked against the model they
// replace rather than against themselves. The interval-gated, golden-elided
// engine must match it byte for byte (tests/overlay_test.cpp,
// tests/golden_cache_test.cpp).
#pragma once

#include <vector>

#include "accel/engine.hpp"

namespace deepstrike::testing {

/// Same logits, prediction, per-layer fault counts and fault-RNG state as
/// engine.run_elided on the image's golden pass (testing::run_engine).
/// `fault_rng` must hold no pending normal deviate (ContractError).
accel::RunResult run_reference(const accel::AccelEngine& engine, const QTensor& image,
                               const accel::VoltageTrace* voltage, Rng& fault_rng,
                               const std::vector<bool>* throttle = nullptr);

} // namespace deepstrike::testing
