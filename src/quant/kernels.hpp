// Bit-exact fixed-point layer kernels (the quantized golden arithmetic).
//
// The deployed accelerator (src/accel) executes the same arithmetic
// cycle-by-cycle on modeled DSP slices; in the absence of injected faults
// its outputs must match these kernels exactly — a key integration test.
// quant::QNetwork (qnetwork.hpp) strings them together into the golden
// model for an arbitrary victim network.
//
// Datapath (matches the paper: 8-bit fixed point, 3 integer bits):
//   activations & weights: Q3.4 (1 sign + 3 int + 4 frac bits)
//   products:              held at full precision (Q7.8 in int64 units)
//   accumulation:          wide int64, one saturating writeback per output
//   activation:            tanh via BRAM-style LUT on the Q3.4 grid,
//                          relu as a sign mux, sign as a comparator
//   pooling:               2x2 windows through pool_window: a max tree on
//                          raw codes, or a rounded average
//
// Nothing here branches on the data: the writeback rounds and saturates
// with masks and min/max (fx::Fixed::from_accumulator), and the pooling
// window takes its max with conditional moves. The conv and dense layers
// run on the im2col/GEMM engine (quant/gemm.hpp), the only conv/dense
// implementation in the library. The naive loops these kernels must
// reproduce byte for byte live in tests/: the per-element conv and dense
// loops in tests/gemm_test.cpp, the if/else rounding and pooling in
// tests/test_helpers.hpp.
#pragma once

#include <algorithm>
#include <cstdint>

#include "fx/fixed.hpp"
#include "tensor/tensor.hpp"

namespace deepstrike::quant {

/// Activation applied on the writeback path of a parameterized layer.
/// Tanh is a BRAM LUT; ReLU is a sign mux; Sign is a comparator (BNN
/// binarized activations); all are fused into the layer.
enum class Activation : std::uint8_t { None, Tanh, Relu, Sign };

/// Quantizes a [C,H,W] float image in [0,1] to Q3.4.
QTensor quantize_image(const FloatTensor& image);

/// Valid 2D convolution + bias + fused activation. Input [C,H,W].
QTensor qconv2d(const QTensor& input, const QTensor& weight, const QTensor& bias,
                Activation activation);

/// One 2x2 pooling window: top row (a, b), bottom row (c, d). Max pooling
/// is a max tree over the raw int16 codes (conditional moves, no branch on
/// the data). Average pooling sums in int32, then divides by 4 rounding to
/// nearest, ties away from zero (an adder tree plus a shift, via
/// fx::round_shift). The one window of qmaxpool2, qavgpool2 and the
/// accelerator's fault-free pool windows.
inline fx::Q3_4 pool_window(bool average, fx::Q3_4 a, fx::Q3_4 b, fx::Q3_4 c,
                            fx::Q3_4 d) {
    if (average) {
        const std::int32_t sum = std::int32_t{a.raw()} + b.raw() + c.raw() + d.raw();
        return fx::Q3_4::from_raw(static_cast<std::int16_t>(fx::round_shift<2>(sum)));
    }
    return fx::Q3_4::from_raw(
        std::max(std::max(a.raw(), b.raw()), std::max(c.raw(), d.raw())));
}

/// 2x2/stride-2 max pooling.
QTensor qmaxpool2(const QTensor& input);

/// 2x2/stride-2 average pooling: 4-way sum then divide-by-4 with
/// round-to-nearest (an adder tree + shift in hardware).
QTensor qavgpool2(const QTensor& input);

/// ReLU on the Q3.4 grid: max(x, 0).
inline fx::Q3_4 qrelu(fx::Q3_4 x) {
    return fx::Q3_4::from_raw(std::max<std::int16_t>(x.raw(), 0));
}

/// Sign on the Q3.4 grid: +1.0 for x >= 0, -1.0 otherwise (a comparator on
/// the writeback path — the binarized-activation nonlinearity of BNNs).
inline fx::Q3_4 qsign(fx::Q3_4 x) {
    constexpr std::int16_t one = 1 << fx::Q3_4::frac_bits;
    return fx::Q3_4::from_raw(x.raw() >= 0 ? one : static_cast<std::int16_t>(-one));
}

/// Dense layer + bias + fused activation. Input flattened.
QTensor qdense(const QTensor& input, const QTensor& weight, const QTensor& bias,
               Activation activation);

/// The writeback nonlinearity applied to one saturated accumulator.
/// gemm::write_back applies the same functions a whole layer at a time,
/// choosing the activation once per call instead of once per element.
inline fx::Q3_4 apply_activation(fx::Q3_4 v, Activation activation) {
    switch (activation) {
        case Activation::None: return v;
        case Activation::Tanh: return fx::TanhLut::instance()(v);
        case Activation::Relu: return qrelu(v);
        case Activation::Sign: return qsign(v);
    }
    return v;
}

} // namespace deepstrike::quant
