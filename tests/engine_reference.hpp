// Whole-segment per-op oracle for accel::AccelEngine::run_elided
// (test-only).
//
// The original (pre-overlay) execution path of the accelerator fault
// model, written against AccelEngine's public accessors: it gates
// golden-vs-per-op per schedule segment and walks every op of a glitched
// segment, carrying each DSP's last product op by op. The interval-gated,
// golden-elided engine must match it byte for byte
// (tests/overlay_test.cpp, tests/golden_cache_test.cpp).
#pragma once

#include <vector>

#include "accel/engine.hpp"

namespace deepstrike::testing {

/// Same logits, prediction, per-layer fault counts and fault-RNG stream as
/// engine.run_elided on the image's golden pass (testing::run_engine).
accel::RunResult run_reference(const accel::AccelEngine& engine, const QTensor& image,
                               const accel::VoltageTrace* voltage, Rng& fault_rng,
                               const std::vector<bool>* throttle = nullptr);

} // namespace deepstrike::testing
