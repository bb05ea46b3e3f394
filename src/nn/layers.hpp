// Float reference layers with backprop.
//
// This is the *training* network: plain single-sample forward/backward in
// float32. The deployed victim is the quantized copy of these weights
// running on the cycle-level accelerator model (src/accel); `quant`
// provides the bit-exact golden reference used to validate it.
//
// Each layer has exactly one forward kernel, infer(): a const pointer walk
// that scoring (Sequential::predict) calls directly and forward() calls
// after recording what backward() needs. The kernels fix every output's
// float accumulation order (bias first, then the reduction indices in
// ascending order), so they may vectorise across outputs but never
// reassociate within one; tests/nn_test.cpp holds them bit-equal to
// checked-index reference loops.
#pragma once

#include <cmath>
#include <memory>
#include <string>
#include <vector>

#include "tensor/tensor.hpp"
#include "util/rng.hpp"

namespace deepstrike::nn {

/// A trainable parameter: value plus accumulated gradient (same shape).
struct Parameter {
    FloatTensor value;
    FloatTensor grad;

    explicit Parameter(Shape shape) : value(shape), grad(shape, 0.0f) {}
    void zero_grad() { grad.fill(0.0f); }
};

/// Base layer. forward() caches whatever backward() needs, so a layer
/// instance processes one sample at a time (LeNet-scale batches just loop).
class Layer {
public:
    virtual ~Layer() = default;

    /// The layer's output for one sample. Records nothing, so concurrent
    /// calls on a shared layer are safe.
    virtual FloatTensor infer(const FloatTensor& input) const = 0;

    /// infer() plus the state backward() reads.
    virtual FloatTensor forward(const FloatTensor& input) = 0;

    /// Given dLoss/dOutput, accumulates parameter gradients and returns
    /// dLoss/dInput. Must be called after forward() on the same sample.
    virtual FloatTensor backward(const FloatTensor& grad_output) = 0;

    /// Trainable parameters (empty for stateless layers).
    virtual std::vector<Parameter*> parameters() { return {}; }

    virtual std::string name() const = 0;

    /// Multiply-accumulate count for one forward pass (for the accelerator
    /// schedule and the per-layer vulnerability analysis).
    virtual std::size_t mac_count(const Shape& input_shape) const = 0;

    /// Output shape for a given input shape (shape inference).
    virtual Shape output_shape(const Shape& input_shape) const = 0;
};

/// 2D convolution, valid padding, stride 1. Input [C,H,W], weight
/// [OutC, InC, K, K], output [OutC, H-K+1, W-K+1].
class Conv2d final : public Layer {
public:
    Conv2d(std::size_t in_channels, std::size_t out_channels, std::size_t kernel,
           Rng& rng);

    FloatTensor infer(const FloatTensor& input) const override {
        return infer(input, weight_.value);
    }
    /// The same kernel with `weight` (weight()'s shape) in place of the
    /// layer's own, e.g. its signs for Binarized<Conv2d>.
    FloatTensor infer(const FloatTensor& input, const FloatTensor& weight) const;
    FloatTensor forward(const FloatTensor& input) override;
    FloatTensor backward(const FloatTensor& grad_output) override;
    std::vector<Parameter*> parameters() override { return {&weight_, &bias_}; }
    std::string name() const override { return "conv2d"; }
    std::size_t mac_count(const Shape& input_shape) const override;
    Shape output_shape(const Shape& input_shape) const override;

    std::size_t in_channels() const { return in_channels_; }
    std::size_t out_channels() const { return out_channels_; }
    std::size_t kernel() const { return kernel_; }
    Parameter& weight() { return weight_; }
    Parameter& bias() { return bias_; }
    const Parameter& weight() const { return weight_; }
    const Parameter& bias() const { return bias_; }

private:
    std::size_t in_channels_;
    std::size_t out_channels_;
    std::size_t kernel_;
    Parameter weight_;
    Parameter bias_;
    FloatTensor cached_input_;
};

/// 2x2 max pooling with stride 2. Input [C,H,W] with even H and W.
class MaxPool2d final : public Layer {
public:
    MaxPool2d() = default;

    FloatTensor infer(const FloatTensor& input) const override {
        return pool(input, nullptr);
    }
    FloatTensor forward(const FloatTensor& input) override;
    FloatTensor backward(const FloatTensor& grad_output) override;
    std::string name() const override { return "maxpool2"; }
    std::size_t mac_count(const Shape& input_shape) const override;
    Shape output_shape(const Shape& input_shape) const override;

private:
    /// The pooling kernel; when `argmax` is set it also receives each
    /// output's flat input index (the first maximum in window order).
    FloatTensor pool(const FloatTensor& input, std::vector<std::size_t>* argmax) const;

    Shape cached_input_shape_;
    std::vector<std::size_t> argmax_; // flat input index per output element
};

/// Fully connected layer; flattens any input shape. Weight [Out, In].
class Dense final : public Layer {
public:
    Dense(std::size_t in_features, std::size_t out_features, Rng& rng);

    FloatTensor infer(const FloatTensor& input) const override {
        return infer(input, weight_.value);
    }
    /// The same kernel with `weight` (weight()'s shape) in place of the
    /// layer's own, e.g. its signs for Binarized<Dense>.
    FloatTensor infer(const FloatTensor& input, const FloatTensor& weight) const;
    FloatTensor forward(const FloatTensor& input) override;
    FloatTensor backward(const FloatTensor& grad_output) override;
    std::vector<Parameter*> parameters() override { return {&weight_, &bias_}; }
    std::string name() const override { return "dense"; }
    std::size_t mac_count(const Shape& input_shape) const override;
    Shape output_shape(const Shape& input_shape) const override;

    std::size_t in_features() const { return in_features_; }
    std::size_t out_features() const { return out_features_; }
    Parameter& weight() { return weight_; }
    Parameter& bias() { return bias_; }
    const Parameter& weight() const { return weight_; }
    const Parameter& bias() const { return bias_; }

private:
    std::size_t in_features_;
    std::size_t out_features_;
    Parameter weight_;
    Parameter bias_;
    FloatTensor cached_input_; // flattened
    Shape cached_input_shape_;
};

/// Elementwise ReLU: max(x, 0). Cheap on the accelerator (a sign mux on
/// the writeback path, no LUT).
class ReluActivation final : public Layer {
public:
    FloatTensor infer(const FloatTensor& input) const override;
    FloatTensor forward(const FloatTensor& input) override;
    FloatTensor backward(const FloatTensor& grad_output) override;
    std::string name() const override { return "relu"; }
    std::size_t mac_count(const Shape& input_shape) const override {
        return input_shape.elements();
    }
    Shape output_shape(const Shape& input_shape) const override { return input_shape; }

private:
    FloatTensor cached_input_;
};

/// 2x2 average pooling with stride 2. Input [C,H,W] with even H and W.
/// On the accelerator this is an adder tree plus a shift (no comparators).
class AvgPool2d final : public Layer {
public:
    AvgPool2d() = default;

    FloatTensor infer(const FloatTensor& input) const override;
    FloatTensor forward(const FloatTensor& input) override;
    FloatTensor backward(const FloatTensor& grad_output) override;
    std::string name() const override { return "avgpool2"; }
    std::size_t mac_count(const Shape& input_shape) const override {
        return input_shape.elements();
    }
    Shape output_shape(const Shape& input_shape) const override;

private:
    Shape cached_input_shape_;
};

/// Elementwise tanh. The paper's victim uses tanh activations because the
/// deployment datatype is fixed point (Sec. IV).
class TanhActivation final : public Layer {
public:
    FloatTensor infer(const FloatTensor& input) const override;
    FloatTensor forward(const FloatTensor& input) override;
    FloatTensor backward(const FloatTensor& grad_output) override;
    std::string name() const override { return "tanh"; }
    std::size_t mac_count(const Shape& input_shape) const override;
    Shape output_shape(const Shape& input_shape) const override { return input_shape; }

private:
    FloatTensor cached_output_;
};

/// Elementwise sign: +1 for x >= 0, -1 otherwise (the binarized activation
/// of BNNs). The true derivative is zero almost everywhere, so training
/// uses the straight-through estimator with a hard-tanh gate: gradients
/// pass unchanged where |x| <= 1 and are clipped to zero outside
/// (Courbariaux et al.; also how the aw_nas fault-injection trainer
/// backpropagates through binarized layers).
class SignActivation final : public Layer {
public:
    FloatTensor infer(const FloatTensor& input) const override;
    FloatTensor forward(const FloatTensor& input) override;
    FloatTensor backward(const FloatTensor& grad_output) override;
    std::string name() const override { return "sign"; }
    std::size_t mac_count(const Shape& input_shape) const override {
        // A comparator per element on the accelerator; negligible DSP work.
        return input_shape.elements();
    }
    Shape output_shape(const Shape& input_shape) const override { return input_shape; }

private:
    FloatTensor cached_input_;
};

/// BinaryConnect weight binarization (Courbariaux et al.): the wrapped
/// layer's forward and backward run with sign(weight) while SGD updates
/// the underlying real-valued weights. This makes float training match
/// the ±1-weight deployment (quant::QuantFormat::Binary) instead of
/// collapsing when real-valued weights are binarized post hoc.
///
/// The output is scaled by 1/sqrt(fan-in) during training, standing in
/// for the batch-norm every BNN places before its sign activations:
/// without it, ±1-product sums overwhelm the STE's |x| <= 1 gate and
/// gradients stop flowing. A Binarized layer must therefore feed a
/// SignActivation — sign() is invariant to the positive scale, so the
/// deployed accelerator runs the raw ±1 sums and the quantized network
/// is unaffected.
template <typename L>
class Binarized final : public Layer {
public:
    template <typename... Args>
    explicit Binarized(Args&&... args) : inner_(std::forward<Args>(args)...) {
        const FloatTensor& w = inner_.weight().value;
        scale_ = 1.0f / std::sqrt(static_cast<float>(w.size() / w.shape().dim(0)));
    }

    /// The inner kernel on sign(weight), scaled; the weights stay real.
    FloatTensor infer(const FloatTensor& input) const override {
        return scaled(inner_.infer(input, signs(inner_.weight().value)));
    }
    FloatTensor forward(const FloatTensor& input) override {
        const WeightSwap swap(inner_.weight());
        return scaled(inner_.forward(input));
    }
    // grad-weight (g ⊗ input) does not read the weight values, and
    // grad-input must see the same ±1 weights the forward used — so the
    // whole backward runs under the swap too.
    FloatTensor backward(const FloatTensor& grad_output) override {
        const WeightSwap swap(inner_.weight());
        return inner_.backward(scaled(grad_output));
    }
    std::vector<Parameter*> parameters() override { return inner_.parameters(); }
    std::string name() const override { return "bin-" + inner_.name(); }
    std::size_t mac_count(const Shape& input_shape) const override {
        return inner_.mac_count(input_shape);
    }
    Shape output_shape(const Shape& input_shape) const override {
        return inner_.output_shape(input_shape);
    }

    L& inner() { return inner_; }
    const L& inner() const { return inner_; }

private:
    static FloatTensor signs(const FloatTensor& real) {
        FloatTensor out(real.shape());
        for (std::size_t i = 0; i < real.size(); ++i) {
            out.at_unchecked(i) = real.at_unchecked(i) >= 0.0f ? 1.0f : -1.0f;
        }
        return out;
    }

    FloatTensor scaled(FloatTensor t) const {
        for (std::size_t i = 0; i < t.size(); ++i) t.at_unchecked(i) *= scale_;
        return t;
    }

    /// Replaces a parameter's values with their signs for the lifetime of
    /// one forward/backward call, then restores the real weights.
    class WeightSwap {
    public:
        explicit WeightSwap(Parameter& w) : w_(w), real_(std::move(w.value)) {
            w_.value = signs(real_);
        }
        ~WeightSwap() { w_.value = std::move(real_); }
        WeightSwap(const WeightSwap&) = delete;
        WeightSwap& operator=(const WeightSwap&) = delete;

    private:
        Parameter& w_;
        FloatTensor real_;
    };

    L inner_;
    float scale_ = 1.0f;
};

/// Numerically stable softmax over a rank-1 tensor (used at evaluation; the
/// trainer fuses softmax with cross-entropy).
FloatTensor softmax(const FloatTensor& logits);

} // namespace deepstrike::nn
