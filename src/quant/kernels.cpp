#include "quant/kernels.hpp"

#include "quant/gemm.hpp"
#include "util/error.hpp"

namespace deepstrike::quant {

using fx::Q3_4;

QTensor quantize_image(const FloatTensor& image) {
    expects(image.shape().rank() == 3, "quantize_image: [1,H,W] tensor");
    return quantize(image);
}

QTensor qconv2d(const QTensor& input, const QTensor& weight, const QTensor& bias,
                Activation activation) {
    return gemm::conv2d_layer(input, weight, bias, activation);
}

namespace {

/// Both 2x2/stride-2 pooling kernels: one pool_window per output, over
/// input rows 2r and 2r + 1 of every channel (the rows of all channels are
/// contiguous, so the walk is one loop over output rows). Average is a
/// template parameter so each kernel's loop holds only its own window.
template <bool Average>
QTensor pool2(const QTensor& input) {
    expects(input.shape().rank() == 3, "pool2: input rank 3");
    expects(input.shape().dim(1) % 2 == 0 && input.shape().dim(2) % 2 == 0,
            "pool2: even spatial dims");
    const std::size_t rows = input.shape().dim(0) * input.shape().dim(1) / 2;
    const std::size_t ow = input.shape().dim(2) / 2;
    QTensor out(Shape{input.shape().dim(0), input.shape().dim(1) / 2, ow});
    const std::size_t iw = 2 * ow;
    const Q3_4* in = input.data();
    Q3_4* dst = out.data();
    for (std::size_t r = 0; r < rows; ++r, dst += ow) {
        const Q3_4* row0 = in + 2 * r * iw;
        const Q3_4* row1 = row0 + iw;
        for (std::size_t w = 0; w < ow; ++w) {
            dst[w] = pool_window(Average, row0[2 * w], row0[2 * w + 1], row1[2 * w],
                                 row1[2 * w + 1]);
        }
    }
    return out;
}

} // namespace

QTensor qmaxpool2(const QTensor& input) { return pool2<false>(input); }

QTensor qavgpool2(const QTensor& input) { return pool2<true>(input); }

QTensor qdense(const QTensor& input, const QTensor& weight, const QTensor& bias,
               Activation activation) {
    return gemm::dense_layer(input, weight, bias, activation);
}

} // namespace deepstrike::quant
