// Sequential model container.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "nn/layers.hpp"

namespace deepstrike::nn {

/// A stack of layers executed in order. Owns its layers.
class Sequential {
public:
    Sequential() = default;

    /// Appends a layer; returns a reference typed as the concrete layer so
    /// builders can keep handles (e.g. to name them).
    template <typename L, typename... Args>
    L& emplace(Args&&... args) {
        auto layer = std::make_unique<L>(std::forward<Args>(args)...);
        L& ref = *layer;
        layers_.push_back(std::move(layer));
        return ref;
    }

    std::size_t layer_count() const { return layers_.size(); }
    Layer& layer(std::size_t i);
    const Layer& layer(std::size_t i) const;

    FloatTensor forward(const FloatTensor& input);

    /// The logits forward() would return, through every layer's stateless
    /// infer(): safe to call concurrently on a shared model.
    FloatTensor predict(const FloatTensor& input) const;

    /// Backward through all layers; input is dLoss/dLogits.
    void backward(const FloatTensor& grad_logits);

    std::vector<Parameter*> parameters();
    void zero_grad();

    /// Shape of the logits for a given input shape.
    Shape output_shape(const Shape& input_shape) const;

    /// Total parameter element count.
    std::size_t parameter_count();

private:
    std::vector<std::unique_ptr<Layer>> layers_;
};

} // namespace deepstrike::nn
