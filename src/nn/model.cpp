#include "nn/model.hpp"

#include "util/error.hpp"

namespace deepstrike::nn {

Layer& Sequential::layer(std::size_t i) {
    expects(i < layers_.size(), "Sequential: layer index in range");
    return *layers_[i];
}

const Layer& Sequential::layer(std::size_t i) const {
    expects(i < layers_.size(), "Sequential: layer index in range");
    return *layers_[i];
}

FloatTensor Sequential::forward(const FloatTensor& input) {
    FloatTensor x = input;
    for (auto& layer : layers_) x = layer->forward(x);
    return x;
}

FloatTensor Sequential::predict(const FloatTensor& input) const {
    FloatTensor x = input;
    for (const auto& layer : layers_) x = layer->infer(x);
    return x;
}

void Sequential::backward(const FloatTensor& grad_logits) {
    FloatTensor g = grad_logits;
    for (auto it = layers_.rbegin(); it != layers_.rend(); ++it) {
        g = (*it)->backward(g);
    }
}

std::vector<Parameter*> Sequential::parameters() {
    std::vector<Parameter*> params;
    for (auto& layer : layers_) {
        for (Parameter* p : layer->parameters()) params.push_back(p);
    }
    return params;
}

void Sequential::zero_grad() {
    for (Parameter* p : parameters()) p->zero_grad();
}

Shape Sequential::output_shape(const Shape& input_shape) const {
    Shape s = input_shape;
    for (const auto& layer : layers_) s = layer->output_shape(s);
    return s;
}

std::size_t Sequential::parameter_count() {
    std::size_t n = 0;
    for (Parameter* p : parameters()) n += p->value.size();
    return n;
}

} // namespace deepstrike::nn
