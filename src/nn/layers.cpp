#include "nn/layers.hpp"

#include <algorithm>
#include <cmath>

#include "util/error.hpp"

namespace deepstrike::nn {

namespace {

/// He-uniform initialization: U(-b, b) with b = sqrt(6 / fan_in).
void init_he_uniform(FloatTensor& t, std::size_t fan_in, Rng& rng) {
    const double bound = std::sqrt(6.0 / static_cast<double>(fan_in));
    for (std::size_t i = 0; i < t.size(); ++i) {
        t.at_unchecked(i) = static_cast<float>(rng.uniform(-bound, bound));
    }
}

} // namespace

// ---------------------------------------------------------------- Conv2d

Conv2d::Conv2d(std::size_t in_channels, std::size_t out_channels, std::size_t kernel,
               Rng& rng)
    : in_channels_(in_channels),
      out_channels_(out_channels),
      kernel_(kernel),
      weight_(Shape{out_channels, in_channels, kernel, kernel}),
      bias_(Shape{out_channels}) {
    expects(in_channels > 0 && out_channels > 0 && kernel > 0, "Conv2d: positive dims");
    init_he_uniform(weight_.value, in_channels * kernel * kernel, rng);
    bias_.value.fill(0.0f);
}

Shape Conv2d::output_shape(const Shape& input_shape) const {
    expects(input_shape.rank() == 3, "Conv2d: input rank 3");
    expects(input_shape.dim(0) == in_channels_, "Conv2d: channel mismatch");
    expects(input_shape.dim(1) >= kernel_ && input_shape.dim(2) >= kernel_,
            "Conv2d: input at least kernel-sized");
    return Shape{out_channels_, input_shape.dim(1) - kernel_ + 1,
                 input_shape.dim(2) - kernel_ + 1};
}

std::size_t Conv2d::mac_count(const Shape& input_shape) const {
    const Shape out = output_shape(input_shape);
    return out.elements() * in_channels_ * kernel_ * kernel_;
}

FloatTensor Conv2d::infer(const FloatTensor& input, const FloatTensor& weight) const {
    const Shape out_shape = output_shape(input.shape());
    expects(weight.shape() == weight_.value.shape(), "Conv2d: weight shape");
    FloatTensor out(out_shape);

    const std::size_t iw = input.shape().dim(2);
    const std::size_t in_plane = input.shape().dim(1) * iw;
    const std::size_t oh = out_shape.dim(1);
    const std::size_t ow = out_shape.dim(2);
    // Every output sums bias, then ic, kr, kc ascending. Each weight is
    // applied to a whole output plane before the next one, so the row
    // loops vectorise across output pixels without reordering any sum.
    const float* w = weight.data();
    for (std::size_t oc = 0; oc < out_channels_; ++oc) {
        float* plane = out.data() + oc * oh * ow;
        std::fill(plane, plane + oh * ow, bias_.value.at_unchecked(oc));
        for (std::size_t ic = 0; ic < in_channels_; ++ic) {
            const float* x = input.data() + ic * in_plane;
            for (std::size_t kr = 0; kr < kernel_; ++kr) {
                for (std::size_t kc = 0; kc < kernel_; ++kc) {
                    const float wv = *w++;
                    for (std::size_t r = 0; r < oh; ++r) {
                        const float* xr = x + (r + kr) * iw + kc;
                        float* __restrict o = plane + r * ow;
                        for (std::size_t c = 0; c < ow; ++c) o[c] += xr[c] * wv;
                    }
                }
            }
        }
    }
    return out;
}

FloatTensor Conv2d::forward(const FloatTensor& input) {
    FloatTensor out = infer(input);
    cached_input_ = input;
    return out;
}

FloatTensor Conv2d::backward(const FloatTensor& grad_output) {
    expects(!cached_input_.empty(), "Conv2d::backward requires prior forward");
    const Shape& in_shape = cached_input_.shape();
    const Shape out_shape = output_shape(in_shape);
    expects(grad_output.shape() == out_shape, "Conv2d::backward shape mismatch");

    FloatTensor grad_input(in_shape, 0.0f);
    const std::size_t oh = out_shape.dim(1);
    const std::size_t ow = out_shape.dim(2);

    for (std::size_t oc = 0; oc < out_channels_; ++oc) {
        for (std::size_t r = 0; r < oh; ++r) {
            for (std::size_t c = 0; c < ow; ++c) {
                const float g = grad_output.at(oc, r, c);
                bias_.grad.at(oc) += g;
                for (std::size_t ic = 0; ic < in_channels_; ++ic) {
                    for (std::size_t kr = 0; kr < kernel_; ++kr) {
                        for (std::size_t kc = 0; kc < kernel_; ++kc) {
                            weight_.grad.at(oc, ic, kr, kc) +=
                                g * cached_input_.at(ic, r + kr, c + kc);
                            grad_input.at(ic, r + kr, c + kc) +=
                                g * weight_.value.at(oc, ic, kr, kc);
                        }
                    }
                }
            }
        }
    }
    return grad_input;
}

// ------------------------------------------------------------- MaxPool2d

Shape MaxPool2d::output_shape(const Shape& input_shape) const {
    expects(input_shape.rank() == 3, "MaxPool2d: input rank 3");
    expects(input_shape.dim(1) % 2 == 0 && input_shape.dim(2) % 2 == 0,
            "MaxPool2d: even spatial dims");
    return Shape{input_shape.dim(0), input_shape.dim(1) / 2, input_shape.dim(2) / 2};
}

std::size_t MaxPool2d::mac_count(const Shape& input_shape) const {
    // Comparisons, not MACs; count them as one op per input element so the
    // accelerator schedule has a nonzero (but small) cost for pooling.
    return input_shape.elements();
}

FloatTensor MaxPool2d::pool(const FloatTensor& input,
                            std::vector<std::size_t>* argmax) const {
    const Shape out_shape = output_shape(input.shape());
    FloatTensor out(out_shape);
    if (argmax != nullptr) argmax->assign(out_shape.elements(), 0);

    const std::size_t iw = input.shape().dim(2);
    const std::size_t rows = out_shape.dim(0) * out_shape.dim(1); // channel-major
    const std::size_t ow = out_shape.dim(2);
    const float* in = input.data();
    float* o = out.data();
    for (std::size_t row = 0; row < rows; ++row) {
        for (std::size_t w = 0; w < ow; ++w) {
            const std::size_t top = 2 * row * iw + 2 * w;
            const std::size_t window[4] = {top, top + 1, top + iw, top + iw + 1};
            std::size_t best = top;
            for (const std::size_t idx : window) {
                if (in[idx] > in[best]) best = idx;
            }
            const std::size_t flat_out = row * ow + w;
            o[flat_out] = in[best];
            if (argmax != nullptr) (*argmax)[flat_out] = best;
        }
    }
    return out;
}

FloatTensor MaxPool2d::forward(const FloatTensor& input) {
    FloatTensor out = pool(input, &argmax_);
    cached_input_shape_ = input.shape();
    return out;
}

FloatTensor MaxPool2d::backward(const FloatTensor& grad_output) {
    expects(!argmax_.empty(), "MaxPool2d::backward requires prior forward");
    expects(grad_output.size() == argmax_.size(), "MaxPool2d::backward shape mismatch");
    FloatTensor grad_input(cached_input_shape_, 0.0f);
    for (std::size_t i = 0; i < argmax_.size(); ++i) {
        grad_input[argmax_[i]] += grad_output.at_unchecked(i);
    }
    return grad_input;
}

// ----------------------------------------------------------------- Dense

Dense::Dense(std::size_t in_features, std::size_t out_features, Rng& rng)
    : in_features_(in_features),
      out_features_(out_features),
      weight_(Shape{out_features, in_features}),
      bias_(Shape{out_features}) {
    expects(in_features > 0 && out_features > 0, "Dense: positive dims");
    init_he_uniform(weight_.value, in_features, rng);
    bias_.value.fill(0.0f);
}

Shape Dense::output_shape(const Shape& input_shape) const {
    expects(input_shape.elements() == in_features_, "Dense: input feature mismatch");
    return Shape{out_features_};
}

std::size_t Dense::mac_count(const Shape& input_shape) const {
    expects(input_shape.elements() == in_features_, "Dense: input feature mismatch");
    return in_features_ * out_features_;
}

FloatTensor Dense::infer(const FloatTensor& input, const FloatTensor& weight) const {
    expects(input.size() == in_features_, "Dense: input feature mismatch");
    expects(weight.shape() == weight_.value.shape(), "Dense: weight shape");
    FloatTensor out(Shape{out_features_});

    // Every output is one chain: bias, then i ascending. Four outputs
    // advance together as independent chains to hide the add latency.
    const std::size_t n = in_features_;
    const float* x = input.data();
    const float* b = bias_.value.data();
    float* y = out.data();
    std::size_t o = 0;
    for (; o + 4 <= out_features_; o += 4) {
        const float* w0 = weight.data() + o * n;
        const float* w1 = w0 + n;
        const float* w2 = w1 + n;
        const float* w3 = w2 + n;
        float a0 = b[o], a1 = b[o + 1], a2 = b[o + 2], a3 = b[o + 3];
        for (std::size_t i = 0; i < n; ++i) {
            const float xi = x[i];
            a0 += w0[i] * xi;
            a1 += w1[i] * xi;
            a2 += w2[i] * xi;
            a3 += w3[i] * xi;
        }
        y[o] = a0;
        y[o + 1] = a1;
        y[o + 2] = a2;
        y[o + 3] = a3;
    }
    for (; o < out_features_; ++o) {
        const float* wo = weight.data() + o * n;
        float acc = b[o];
        for (std::size_t i = 0; i < n; ++i) acc += wo[i] * x[i];
        y[o] = acc;
    }
    return out;
}

FloatTensor Dense::forward(const FloatTensor& input) {
    FloatTensor out = infer(input);
    cached_input_shape_ = input.shape();
    // Flatten (copy) so backward is shape-agnostic.
    cached_input_ = FloatTensor(Shape{in_features_});
    std::copy(input.begin(), input.end(), cached_input_.begin());
    return out;
}

FloatTensor Dense::backward(const FloatTensor& grad_output) {
    expects(!cached_input_.empty(), "Dense::backward requires prior forward");
    expects(grad_output.size() == out_features_, "Dense::backward shape mismatch");

    FloatTensor grad_input_flat(Shape{in_features_}, 0.0f);
    for (std::size_t o = 0; o < out_features_; ++o) {
        const float g = grad_output.at(o);
        bias_.grad.at(o) += g;
        float* wg = weight_.grad.data() + o * in_features_;
        const float* w = weight_.value.data() + o * in_features_;
        const float* x = cached_input_.data();
        float* gi = grad_input_flat.data();
        for (std::size_t i = 0; i < in_features_; ++i) {
            wg[i] += g * x[i];
            gi[i] += g * w[i];
        }
    }

    // Reshape the gradient back to the original input shape.
    FloatTensor grad_input(cached_input_shape_);
    for (std::size_t i = 0; i < grad_input.size(); ++i) {
        grad_input.at_unchecked(i) = grad_input_flat.at_unchecked(i);
    }
    return grad_input;
}

// -------------------------------------------------------- ReluActivation

FloatTensor ReluActivation::infer(const FloatTensor& input) const {
    FloatTensor out(input.shape());
    for (std::size_t i = 0; i < input.size(); ++i) {
        out.at_unchecked(i) = std::max(0.0f, input.at_unchecked(i));
    }
    return out;
}

FloatTensor ReluActivation::forward(const FloatTensor& input) {
    cached_input_ = input;
    return infer(input);
}

FloatTensor ReluActivation::backward(const FloatTensor& grad_output) {
    expects(!cached_input_.empty(), "Relu::backward requires prior forward");
    expects(grad_output.shape() == cached_input_.shape(),
            "Relu::backward shape mismatch");
    FloatTensor grad_input(grad_output.shape());
    for (std::size_t i = 0; i < grad_output.size(); ++i) {
        grad_input.at_unchecked(i) =
            cached_input_.at_unchecked(i) > 0.0f ? grad_output.at_unchecked(i) : 0.0f;
    }
    return grad_input;
}

// ------------------------------------------------------------- AvgPool2d

Shape AvgPool2d::output_shape(const Shape& input_shape) const {
    expects(input_shape.rank() == 3, "AvgPool2d: input rank 3");
    expects(input_shape.dim(1) % 2 == 0 && input_shape.dim(2) % 2 == 0,
            "AvgPool2d: even spatial dims");
    return Shape{input_shape.dim(0), input_shape.dim(1) / 2, input_shape.dim(2) / 2};
}

FloatTensor AvgPool2d::infer(const FloatTensor& input) const {
    const Shape out_shape = output_shape(input.shape());
    FloatTensor out(out_shape);
    const std::size_t iw = input.shape().dim(2);
    const std::size_t rows = out_shape.dim(0) * out_shape.dim(1); // channel-major
    const std::size_t ow = out_shape.dim(2);
    float* o = out.data();
    for (std::size_t row = 0; row < rows; ++row) {
        const float* top = input.data() + 2 * row * iw;
        const float* bottom = top + iw;
        for (std::size_t w = 0; w < ow; ++w) {
            *o++ = (top[2 * w] + top[2 * w + 1] + bottom[2 * w] + bottom[2 * w + 1]) / 4.0f;
        }
    }
    return out;
}

FloatTensor AvgPool2d::forward(const FloatTensor& input) {
    FloatTensor out = infer(input);
    cached_input_shape_ = input.shape();
    return out;
}

FloatTensor AvgPool2d::backward(const FloatTensor& grad_output) {
    expects(cached_input_shape_.rank() == 3, "AvgPool2d::backward requires forward");
    FloatTensor grad_input(cached_input_shape_, 0.0f);
    const Shape out_shape = output_shape(cached_input_shape_);
    expects(grad_output.shape() == out_shape, "AvgPool2d::backward shape mismatch");
    for (std::size_t c = 0; c < out_shape.dim(0); ++c) {
        for (std::size_t r = 0; r < out_shape.dim(1); ++r) {
            for (std::size_t w = 0; w < out_shape.dim(2); ++w) {
                const float g = grad_output.at(c, r, w) / 4.0f;
                grad_input.at(c, 2 * r, 2 * w) += g;
                grad_input.at(c, 2 * r, 2 * w + 1) += g;
                grad_input.at(c, 2 * r + 1, 2 * w) += g;
                grad_input.at(c, 2 * r + 1, 2 * w + 1) += g;
            }
        }
    }
    return grad_input;
}

// -------------------------------------------------------- TanhActivation

std::size_t TanhActivation::mac_count(const Shape& input_shape) const {
    // LUT lookups on the accelerator; negligible DSP work.
    return input_shape.elements();
}

FloatTensor TanhActivation::infer(const FloatTensor& input) const {
    FloatTensor out(input.shape());
    for (std::size_t i = 0; i < input.size(); ++i) {
        out.at_unchecked(i) = std::tanh(input.at_unchecked(i));
    }
    return out;
}

FloatTensor TanhActivation::forward(const FloatTensor& input) {
    cached_output_ = infer(input);
    return cached_output_;
}

FloatTensor TanhActivation::backward(const FloatTensor& grad_output) {
    expects(!cached_output_.empty(), "Tanh::backward requires prior forward");
    expects(grad_output.shape() == cached_output_.shape(), "Tanh::backward shape mismatch");
    FloatTensor grad_input(grad_output.shape());
    for (std::size_t i = 0; i < grad_output.size(); ++i) {
        const float y = cached_output_.at_unchecked(i);
        grad_input.at_unchecked(i) = grad_output.at_unchecked(i) * (1.0f - y * y);
    }
    return grad_input;
}

// -------------------------------------------------------- SignActivation

FloatTensor SignActivation::infer(const FloatTensor& input) const {
    FloatTensor out(input.shape());
    for (std::size_t i = 0; i < input.size(); ++i) {
        out.at_unchecked(i) = input.at_unchecked(i) >= 0.0f ? 1.0f : -1.0f;
    }
    return out;
}

FloatTensor SignActivation::forward(const FloatTensor& input) {
    cached_input_ = input;
    return infer(input);
}

FloatTensor SignActivation::backward(const FloatTensor& grad_output) {
    expects(!cached_input_.empty(), "Sign::backward requires prior forward");
    expects(grad_output.shape() == cached_input_.shape(),
            "Sign::backward shape mismatch");
    // Straight-through estimator with a hard-tanh gate.
    FloatTensor grad_input(grad_output.shape());
    for (std::size_t i = 0; i < grad_output.size(); ++i) {
        const float x = cached_input_.at_unchecked(i);
        grad_input.at_unchecked(i) =
            (x >= -1.0f && x <= 1.0f) ? grad_output.at_unchecked(i) : 0.0f;
    }
    return grad_input;
}

// --------------------------------------------------------------- softmax

FloatTensor softmax(const FloatTensor& logits) {
    expects(!logits.empty(), "softmax: non-empty input");
    FloatTensor out(logits.shape());
    float maxv = logits.at_unchecked(0);
    for (std::size_t i = 1; i < logits.size(); ++i) {
        maxv = std::max(maxv, logits.at_unchecked(i));
    }
    double sum = 0.0;
    for (std::size_t i = 0; i < logits.size(); ++i) {
        const double e = std::exp(static_cast<double>(logits.at_unchecked(i) - maxv));
        out.at_unchecked(i) = static_cast<float>(e);
        sum += e;
    }
    for (std::size_t i = 0; i < logits.size(); ++i) {
        out.at_unchecked(i) = static_cast<float>(out.at_unchecked(i) / sum);
    }
    return out;
}

} // namespace deepstrike::nn
