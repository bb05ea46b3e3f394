// Runtime SIMD dispatch seam shared by every vectorized hot path.
//
// One process-wide switch picks the kernel twin: Auto resolves to the AVX2
// twin when the CPU supports it, Scalar forces the portable twin, and
// DS_FORCE_SCALAR=1 in the environment selects Scalar at startup (the one
// override; there is no CLI knob). Two kernels branch on active(): the
// GEMM microkernels (quant::gemm) and the co-sim lane PDN step
// (sim/cosim_lanes.cpp).
//
// Both twins of every kernel behind this seam are required to be
// byte-identical. The PDN step vectorizes only vertical elementwise IEEE
// ops (add/sub/mul/div/min/max/compare), never horizontal reductions or
// fused multiply-adds; the GEMM twins accumulate exact integer sums. So
// flipping the mode can change speed but never a single result bit.
// Tests assert this on real workloads (tests/gemm_test.cpp,
// tests/cosim_lanes_test.cpp).
#pragma once

#include <cstdint>

namespace deepstrike::simd {

/// Auto: AVX2 twins when the CPU has them, scalar otherwise.
/// Scalar: portable twins everywhere (DS_FORCE_SCALAR=1 starts here).
enum class Mode : std::uint8_t { Auto, Scalar };

const char* mode_name(Mode mode);

/// Process-wide mode. Defaults to Auto; DS_FORCE_SCALAR=1 in the
/// environment sets Scalar at startup; tests and benches switch it with
/// set_mode().
Mode mode();
void set_mode(Mode mode);

/// True when this CPU exposes AVX2 (cached cpuid probe).
bool cpu_has_avx2();

/// True when the AVX2 twins are selected right now (Auto mode on AVX2
/// hardware). Kernels branch on this once per batch, not per element.
bool active();

} // namespace deepstrike::simd
