// im2col/GEMM formulation of the quantized conv/dense hot path.
//
// A naive conv walks each output element's receptive field directly;
// exact under any summation order, but the inner loop is only k (3..5)
// elements wide, so the compiler cannot vectorize it well. This module
// states the same arithmetic as an integer GEMM over contiguous K-length
// rows:
//
//   conv  — im2col packs each output pixel's receptive field into one
//           [K = in_c*k*k] row (same (ic,kr,kc) order the weight rows use),
//           so a layer becomes C[out_c, pixels] = W[out_c, K] x P[pixels, K]^T.
//           The packing moves each k-wide span as one block of a width
//           fixed at compile time (k = 3 and 5, every zoo conv: 4 and 8
//           elements, each overhang overwritten by the next span or left in
//           slack past the patches) from a copy of the input padded so no
//           read leaves it. The GEMM emits C as int32 [pixel, channel];
//           the layer entry (conv2d_layer) turns 8x8 tiles of it straight
//           into the Q3.4 [channel, pixel] output, and the accumulator
//           entry (conv2d_accs) folds the bias into int64 [channel, pixel]
//           accumulators instead;
//   dense — already a GEMM: C[1, out_n] = x[1, in_n] x W[out_n, in_n]^T
//           (zero-copy on both operands; the image shares each input load
//           across four weight rows).
//
// Every entry runs one image; a caller that covers many (the golden-store
// build, the search's fitness blocks) calls it once per image.
//
// The microkernel accumulates int16 x int16 products in int32 — exact,
// because every layer guards its reduction depth (receptive field / fan-in
// <= 65536 and |product| <= 2^14) — and the AVX2 variant keeps each
// pmaddwd lane below 2^27, so the AVX2 and portable GEMM paths produce
// byte-identical accumulators, equal to a naive per-element walk in any
// summation order. That is the hard invariant everything here hangs on:
// campaign reports must not change with the dispatch path, at any thread
// count (tests/gemm_test.cpp checks both paths against the naive loops of
// tests/test_helpers.hpp).
// The bias-folded sum still fits int32 (|bias| * 2^4 <= 2^11), so the
// AVX2 epilogue saturates, rounds and activates on int32 lanes with the
// same saturate-then-round steps as fx::Fixed::from_accumulator.
//
// Runtime dispatch follows deepstrike::simd (util/simd.hpp), the switch
// the co-sim kernels use too: the AVX2 microkernels and epilogue when
// simd::active(), the portable GEMM and the per-element writeback
// otherwise (DS_FORCE_SCALAR=1 selects them at startup, keeping them
// testable on AVX2 machines).
#pragma once

#include <cstdint>
#include <vector>

#include "fx/fixed.hpp"
#include "tensor/tensor.hpp"

namespace deepstrike::quant {

enum class Activation : std::uint8_t;

namespace gemm {

/// C[i, j] = dot(A row i, B row j) over K contiguous int16 elements:
/// C[i*ldc + j] (int32) for i < m, j < n, with A rows at a + i*lda and
/// B rows at b + j*ldb ("NT" layout — both operands row-major, K on the
/// fast axis). Overwrites C. Exact int32 accumulation; the caller
/// guarantees k <= 65536 and |a*b| <= 2^14 per product (Q3.4 raws).
/// Dispatches per simd::active(); exposed directly for tests and benches.
void gemm_nt_s32(const std::int16_t* a, std::size_t lda, const std::int16_t* b,
                 std::size_t ldb, std::int32_t* c, std::size_t ldc, std::size_t m,
                 std::size_t n, std::size_t k);

/// Full-layer conv accumulators (bias folded, product units) via
/// im2col + GEMM: accs[oc*plane + pix] is output element (oc, pix)'s
/// pre-writeback accumulator. Input [C,H,W]; throws ContractError on a
/// shape mismatch.
void conv2d_accs(const QTensor& input, const QTensor& weight, const QTensor& bias,
                 std::vector<fx::Acc>& accs);

/// Full-layer dense accumulators (bias folded) via GEMM; input flattened.
void dense_accs(const QTensor& input, const QTensor& weight, const QTensor& bias,
                std::vector<fx::Acc>& accs);

/// One conv layer straight to its Q3.4 output [out_c, out_h, out_w]:
/// out[p] = apply_activation(Q3_4::from_accumulator(acc[p]), activation),
/// with acc what conv2d_accs computes. On AVX2 no int64 accumulator
/// exists: the int32 GEMM tile goes through the transposing epilogue.
/// Throws ContractError on a shape mismatch.
QTensor conv2d_layer(const QTensor& input, const QTensor& weight, const QTensor& bias,
                     Activation activation);

/// dense_accs' accumulators written back like conv2d_layer's: the
/// output [out_n].
QTensor dense_layer(const QTensor& input, const QTensor& weight, const QTensor& bias,
                    Activation activation);

/// Writeback of int64 accumulators, for the engine's patched ones and
/// QNetwork::forward_trace's golden ones: out[p] = apply_activation(Q3_4::from_accumulator(
/// accs[p])), with the activation chosen once per call. The AVX2 twin
/// saturates in int64 and rounds and activates eight int32 lanes at a
/// time, like conv2d_layer; the portable twin rounds per element. `out`
/// preallocated with n elements.
void write_back(const fx::Acc* accs, std::size_t n, Activation activation,
                QTensor& out);

} // namespace gemm
} // namespace deepstrike::quant
