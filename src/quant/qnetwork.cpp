#include "quant/qnetwork.hpp"

#include <typeinfo>

#include "quant/gemm.hpp"
#include "util/error.hpp"

namespace deepstrike::quant {

const char* qlayer_kind_name(QLayerKind kind) {
    switch (kind) {
        case QLayerKind::Conv: return "conv";
        case QLayerKind::Pool2: return "pool2";
        case QLayerKind::AvgPool2: return "avgpool2";
        case QLayerKind::Dense: return "dense";
    }
    return "?";
}

const char* activation_name(Activation activation) {
    switch (activation) {
        case Activation::None: return "none";
        case Activation::Tanh: return "tanh";
        case Activation::Relu: return "relu";
        case Activation::Sign: return "sign";
    }
    return "?";
}

const char* quant_format_name(QuantFormat format) {
    switch (format) {
        case QuantFormat::Q3_4: return "q3.4";
        case QuantFormat::Binary: return "binary";
    }
    return "?";
}

std::size_t QLayer::in_channels() const {
    switch (kind) {
        case QLayerKind::Conv:
            return weight.shape().dim(1);
        default:
            return 0;
    }
}

Shape QLayer::output_shape(const Shape& input_shape) const {
    switch (kind) {
        case QLayerKind::Conv: {
            expects(input_shape.rank() == 3, "QLayer(conv): input rank 3");
            expects(weight.shape().rank() == 4, "QLayer(conv): weight rank 4");
            const std::size_t k = weight.shape().dim(2);
            expects(weight.shape().dim(1) == input_shape.dim(0),
                    "QLayer(conv): channel mismatch");
            expects(input_shape.dim(1) >= k && input_shape.dim(2) >= k,
                    "QLayer(conv): input at least kernel-sized");
            return Shape{weight.shape().dim(0), input_shape.dim(1) - k + 1,
                         input_shape.dim(2) - k + 1};
        }
        case QLayerKind::Pool2:
        case QLayerKind::AvgPool2:
            expects(input_shape.rank() == 3, "QLayer(pool2): input rank 3");
            expects(input_shape.dim(1) % 2 == 0 && input_shape.dim(2) % 2 == 0,
                    "QLayer(pool2): even spatial dims");
            return Shape{input_shape.dim(0), input_shape.dim(1) / 2,
                         input_shape.dim(2) / 2};
        case QLayerKind::Dense:
            expects(weight.shape().rank() == 2, "QLayer(dense): weight rank 2");
            expects(input_shape.elements() == weight.shape().dim(1),
                    "QLayer(dense): feature mismatch");
            return Shape{weight.shape().dim(0)};
    }
    throw ContractError("QLayer: unknown kind");
}

std::size_t QLayer::op_count(const Shape& input_shape) const {
    const Shape out = output_shape(input_shape);
    switch (kind) {
        case QLayerKind::Conv:
            return out.elements() * weight.shape().dim(1) * weight.shape().dim(2) *
                   weight.shape().dim(3);
        case QLayerKind::Pool2:
        case QLayerKind::AvgPool2:
            return out.elements() * 4; // four comparisons/adds per window
        case QLayerKind::Dense:
            return weight.shape().dim(0) * weight.shape().dim(1);
    }
    return 0;
}

std::size_t QNetwork::num_classes() const {
    return layer_output_shapes().back().elements();
}

std::vector<Shape> QNetwork::layer_output_shapes() const {
    expects(!layers.empty(), "QNetwork: at least one layer");
    std::vector<Shape> shapes;
    shapes.reserve(layers.size());
    Shape s = input_shape;
    for (const QLayer& layer : layers) {
        // Dense layers flatten implicitly; conv/pool need rank 3.
        if (layer.kind == QLayerKind::Dense && s.rank() != 1) {
            s = Shape{s.elements()};
        }
        s = layer.output_shape(s);
        shapes.push_back(s);
    }
    return shapes;
}

QTensor QNetwork::forward(const QTensor& input) const {
    expects(input.shape() == input_shape, "QNetwork: input shape mismatch");
    return forward_from(0, input);
}

namespace {

/// The one-image layer loop: layers [first, layers.size()) from `input`.
/// Each Conv/Dense layer's output comes from `param(i, layer, in)`, a pool
/// layer's from its kernel, and `keep(out)` stores each output and returns
/// the tensor the next layer reads. A dense layer reads a rank-3
/// activation as is: the GEMM entries take any input of the right size,
/// so the implicit flatten is a shape change only.
template <typename Param, typename Keep>
void run_layers(const std::vector<QLayer>& layers, std::size_t first, const QTensor& input,
                const Param& param, const Keep& keep) {
    const QTensor* in = &input;
    for (std::size_t i = first; i < layers.size(); ++i) {
        const QLayer& layer = layers[i];
        switch (layer.kind) {
            case QLayerKind::Conv:
            case QLayerKind::Dense: in = &keep(param(i, layer, *in)); break;
            case QLayerKind::Pool2: in = &keep(qmaxpool2(*in)); break;
            case QLayerKind::AvgPool2: in = &keep(qavgpool2(*in)); break;
        }
    }
}

} // namespace

QTensor QNetwork::forward_from(std::size_t first_layer, const QTensor& activation) const {
    expects(first_layer <= layers.size(), "QNetwork: first_layer in range");
    if (first_layer == layers.size()) return activation;
    QTensor x;
    run_layers(
        layers, first_layer, activation,
        [](std::size_t, const QLayer& layer, const QTensor& in) {
            return layer.kind == QLayerKind::Conv
                       ? qconv2d(in, layer.weight, layer.bias, layer.activation)
                       : qdense(in, layer.weight, layer.bias, layer.activation);
        },
        [&x](QTensor&& out) -> const QTensor& { return x = std::move(out); });
    return x;
}

QNetwork::ForwardTrace QNetwork::forward_trace(const QTensor& input) const {
    expects(input.shape() == input_shape, "QNetwork: input shape mismatch");
    ForwardTrace trace;
    // Reserved up front: each layer reads its input from the entry before
    // it, so the vector must never reallocate mid-pass.
    trace.activations.reserve(layers.size());
    trace.accumulators.resize(layers.size());
    run_layers(
        layers, 0, input,
        [&trace](std::size_t i, const QLayer& layer, const QTensor& in) {
            std::vector<fx::Acc>& accs = trace.accumulators[i];
            if (layer.kind == QLayerKind::Conv) {
                gemm::conv2d_accs(in, layer.weight, layer.bias, accs);
            } else {
                gemm::dense_accs(in, layer.weight, layer.bias, accs);
            }
            QTensor out(layer.output_shape(in.shape()));
            gemm::write_back(accs.data(), accs.size(), layer.activation, out);
            return out;
        },
        [&trace](QTensor&& out) -> const QTensor& {
            return trace.activations.emplace_back(std::move(out));
        });
    return trace;
}

std::vector<QTensor> QNetwork::forward_batch(
    const std::vector<const QTensor*>& inputs) const {
    std::vector<QTensor> outputs;
    outputs.reserve(inputs.size());
    for (const QTensor* input : inputs) outputs.push_back(forward(*input));
    return outputs;
}

std::size_t QNetwork::predict(const FloatTensor& image) const {
    return argmax(forward(quantize_image(image)));
}

double QNetwork::evaluate_accuracy(const data::Dataset& dataset) const {
    expects(dataset.size() > 0, "QNetwork: non-empty dataset");
    std::size_t correct = 0;
    for (std::size_t i = 0; i < dataset.size(); ++i) {
        if (predict(dataset.images[i]) == dataset.labels[i]) ++correct;
    }
    return static_cast<double>(correct) / static_cast<double>(dataset.size());
}

std::size_t QNetwork::parameter_count() const {
    std::size_t n = 0;
    for (const QLayer& layer : layers) n += layer.weight.size() + layer.bias.size();
    return n;
}

const QLayer& QNetwork::layer(const std::string& label) const {
    for (const QLayer& l : layers) {
        if (l.label == label) return l;
    }
    throw ContractError("QNetwork: no layer labelled '" + label + "'");
}

namespace {

/// Binarizes a float weight tensor to ±1 on the Q3.4 grid (sign of the
/// float value; zero maps to +1, matching qsign).
QTensor binarize(const FloatTensor& t) {
    QTensor out(t.shape());
    for (std::size_t i = 0; i < t.size(); ++i) {
        out.at_unchecked(i) =
            fx::Q3_4::from_real(t.at_unchecked(i) >= 0.0f ? 1.0 : -1.0);
    }
    return out;
}

} // namespace

QNetwork quantize_sequential(nn::Sequential& model, const Shape& input_shape,
                             const std::vector<std::string>& labels,
                             QuantFormat format) {
    QNetwork net;
    net.input_shape = input_shape;
    net.format = format;
    const bool binary = format == QuantFormat::Binary;

    std::size_t conv_n = 0;
    std::size_t pool_n = 0;
    std::size_t fc_n = 0;
    for (std::size_t i = 0; i < model.layer_count(); ++i) {
        nn::Layer& layer = model.layer(i);
        QLayer q;
        // Binarized (BinaryConnect) layers deploy the sign of their real
        // weights — exactly what their training forward used. A model
        // containing them must be quantized as QuantFormat::Binary so the
        // deployment fingerprint reflects the ±1 grid; layers outside the
        // wrappers (e.g. the BNN's real-valued classifier head) keep Q3.4.
        if (auto* bconv = dynamic_cast<nn::Binarized<nn::Conv2d>*>(&layer)) {
            expects(binary, "quantize_sequential: Binarized layers require "
                            "QuantFormat::Binary");
            q.kind = QLayerKind::Conv;
            q.label = "CONV" + std::to_string(++conv_n);
            q.weight = binarize(bconv->inner().weight().value);
            q.bias = quantize(bconv->inner().bias().value);
        } else if (auto* bdense = dynamic_cast<nn::Binarized<nn::Dense>*>(&layer)) {
            expects(binary, "quantize_sequential: Binarized layers require "
                            "QuantFormat::Binary");
            q.kind = QLayerKind::Dense;
            q.label = "FC" + std::to_string(++fc_n);
            q.weight = binarize(bdense->inner().weight().value);
            q.bias = quantize(bdense->inner().bias().value);
        } else if (auto* conv = dynamic_cast<nn::Conv2d*>(&layer)) {
            q.kind = QLayerKind::Conv;
            q.label = "CONV" + std::to_string(++conv_n);
            q.weight = quantize(conv->weight().value);
            q.bias = quantize(conv->bias().value);
        } else if (dynamic_cast<nn::MaxPool2d*>(&layer) != nullptr) {
            q.kind = QLayerKind::Pool2;
            q.label = "POOL" + std::to_string(++pool_n);
        } else if (dynamic_cast<nn::AvgPool2d*>(&layer) != nullptr) {
            q.kind = QLayerKind::AvgPool2;
            q.label = "POOL" + std::to_string(++pool_n);
        } else if (auto* dense = dynamic_cast<nn::Dense*>(&layer)) {
            q.kind = QLayerKind::Dense;
            q.label = "FC" + std::to_string(++fc_n);
            q.weight = quantize(dense->weight().value);
            q.bias = quantize(dense->bias().value);
        } else if (dynamic_cast<nn::TanhActivation*>(&layer) != nullptr) {
            // Fused into the previous parameterized layer.
            if (net.layers.empty()) {
                throw ConfigError("quantize_sequential: activation before any layer");
            }
            net.layers.back().activation = Activation::Tanh;
            continue;
        } else if (dynamic_cast<nn::ReluActivation*>(&layer) != nullptr) {
            if (net.layers.empty()) {
                throw ConfigError("quantize_sequential: activation before any layer");
            }
            net.layers.back().activation = Activation::Relu;
            continue;
        } else if (dynamic_cast<nn::SignActivation*>(&layer) != nullptr) {
            if (net.layers.empty()) {
                throw ConfigError("quantize_sequential: activation before any layer");
            }
            net.layers.back().activation = Activation::Sign;
            continue;
        } else {
            throw ConfigError(std::string("quantize_sequential: unsupported layer '") +
                              layer.name() + "'");
        }
        if (!labels.empty()) {
            if (net.layers.size() >= labels.size()) {
                throw ConfigError("quantize_sequential: not enough labels");
            }
            q.label = labels[net.layers.size()];
        }
        net.layers.push_back(std::move(q));
    }
    net.layer_output_shapes(); // validate the chain
    return net;
}

} // namespace deepstrike::quant
