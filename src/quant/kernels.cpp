#include "quant/kernels.hpp"

#include <vector>

#include "quant/gemm.hpp"

#include "util/error.hpp"

namespace deepstrike::quant {

using fx::Q3_4;

QTensor quantize_image(const FloatTensor& image) {
    expects(image.shape().rank() == 3, "quantize_image: [1,H,W] tensor");
    return quantize(image);
}

fx::Q3_4 qrelu(fx::Q3_4 x) {
    return std::max(x, Q3_4::zero());
}

fx::Q3_4 qsign(fx::Q3_4 x) {
    return x.raw() >= 0 ? Q3_4::from_real(1.0) : Q3_4::from_real(-1.0);
}

QTensor qconv2d(const QTensor& input, const QTensor& weight, const QTensor& bias,
                bool apply_tanh) {
    return qconv2d(input, weight, bias,
                   apply_tanh ? Activation::Tanh : Activation::None);
}

QTensor qconv2d(const QTensor& input, const QTensor& weight, const QTensor& bias,
                Activation activation) {
    thread_local std::vector<fx::Acc> accs;
    gemm::conv2d_accs(input, weight, bias, accs); // validates the shapes
    const std::size_t k = weight.shape().dim(2);
    QTensor out(Shape{weight.shape().dim(0), input.shape().dim(1) - k + 1,
                      input.shape().dim(2) - k + 1});
    gemm::write_back(accs.data(), accs.size(), activation, out);
    return out;
}

QTensor qmaxpool2(const QTensor& input) {
    expects(input.shape().rank() == 3, "qmaxpool2: input rank 3");
    expects(input.shape().dim(1) % 2 == 0 && input.shape().dim(2) % 2 == 0,
            "qmaxpool2: even spatial dims");
    const std::size_t ch = input.shape().dim(0);
    const std::size_t oh = input.shape().dim(1) / 2;
    const std::size_t ow = input.shape().dim(2) / 2;
    QTensor out(Shape{ch, oh, ow});
    const std::size_t iw = 2 * ow;
    const Q3_4* in = input.data();
    Q3_4* dst = out.data();
    for (std::size_t c = 0; c < ch; ++c) {
        for (std::size_t r = 0; r < oh; ++r) {
            const Q3_4* row0 = in + (c * 2 * oh + 2 * r) * iw;
            const Q3_4* row1 = row0 + iw;
            for (std::size_t w = 0; w < ow; ++w) {
                const Q3_4 top = std::max(row0[2 * w], row0[2 * w + 1]);
                const Q3_4 bot = std::max(row1[2 * w], row1[2 * w + 1]);
                *dst++ = std::max(top, bot);
            }
        }
    }
    return out;
}

QTensor qavgpool2(const QTensor& input) {
    expects(input.shape().rank() == 3, "qavgpool2: input rank 3");
    expects(input.shape().dim(1) % 2 == 0 && input.shape().dim(2) % 2 == 0,
            "qavgpool2: even spatial dims");
    const std::size_t ch = input.shape().dim(0);
    const std::size_t oh = input.shape().dim(1) / 2;
    const std::size_t ow = input.shape().dim(2) / 2;
    QTensor out(Shape{ch, oh, ow});
    const std::size_t iw = 2 * ow;
    const Q3_4* in = input.data();
    Q3_4* dst = out.data();
    for (std::size_t c = 0; c < ch; ++c) {
        for (std::size_t r = 0; r < oh; ++r) {
            const Q3_4* row0 = in + (c * 2 * oh + 2 * r) * iw;
            const Q3_4* row1 = row0 + iw;
            for (std::size_t w = 0; w < ow; ++w) {
                // Sum in raw units, then divide by 4 rounding to nearest
                // (ties away from zero) — an adder tree plus a shift.
                const std::int32_t sum = row0[2 * w].raw() + row0[2 * w + 1].raw() +
                                         row1[2 * w].raw() + row1[2 * w + 1].raw();
                const std::int32_t avg = sum >= 0 ? (sum + 2) / 4 : -((-sum + 2) / 4);
                *dst++ = Q3_4::from_raw(static_cast<std::int16_t>(avg));
            }
        }
    }
    return out;
}

QTensor qdense(const QTensor& input, const QTensor& weight, const QTensor& bias,
               bool apply_tanh) {
    return qdense(input, weight, bias,
                  apply_tanh ? Activation::Tanh : Activation::None);
}

QTensor qdense(const QTensor& input, const QTensor& weight, const QTensor& bias,
               Activation activation) {
    thread_local std::vector<fx::Acc> accs;
    gemm::dense_accs(input, weight, bias, accs); // validates the shapes
    QTensor out(Shape{weight.shape().dim(0)});
    gemm::write_back(accs.data(), accs.size(), activation, out);
    return out;
}

} // namespace deepstrike::quant
