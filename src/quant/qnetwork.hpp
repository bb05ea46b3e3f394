// Generic quantized network description.
//
// A QNetwork is the deployment artifact: an ordered list of quantized
// layers (conv / 2x2-maxpool / dense) with the Q3.4 weights baked in. It is
// both the bit-exact golden model (forward() here) and the input to the
// cycle-level accelerator (accel::AccelEngine executes the same layers op
// by op on modeled DSP slices). The paper's LeNet-5 victim is one instance
// (nn::Architecture::LeNet5 through quantize_sequential());
// quantize_sequential() converts any float nn::Sequential built from the
// supported layer types. Input shape, class count and quantization format
// all flow from the network — no victim geometry is hardcoded downstream.
#pragma once

#include <string>
#include <vector>

#include "data/synth_mnist.hpp"
#include "nn/model.hpp"
#include "quant/kernels.hpp"
#include "tensor/tensor.hpp"

namespace deepstrike::quant {

enum class QLayerKind : std::uint8_t { Conv, Pool2, AvgPool2, Dense };

const char* qlayer_kind_name(QLayerKind kind);

const char* activation_name(Activation activation);

/// Weight quantization format of the deployed network.
///   Q3_4   — full 8-bit fixed-point weights (the paper's victim).
///   Binary — sign-activated layers deploy ±1 weights on the Q3.4 grid
///            (BNN deployment; biases and the real-valued classifier head
///            stay Q3.4). The arithmetic pipeline is unchanged — ±1
///            weights are exact Q3.4 values — but the format is part of
///            the deployment identity, so caches and journals fingerprint
///            it.
enum class QuantFormat : std::uint8_t { Q3_4, Binary };

const char* quant_format_name(QuantFormat format);

struct QLayer {
    QLayerKind kind;
    std::string label;     // e.g. "CONV1"; used in schedules and reports
    QTensor weight;        // Conv: [O,I,K,K]; Dense: [O,I]; pools: empty
    QTensor bias;          // Conv/Dense: [O]; pools: empty
    Activation activation = Activation::None;

    QLayer() = default;
    QLayer(QLayerKind k, std::string lbl, QTensor w, QTensor b,
           Activation act = Activation::None)
        : kind(k), label(std::move(lbl)), weight(std::move(w)), bias(std::move(b)),
          activation(act) {}

    /// MAC count (Conv/Dense) or comparator-op count (Pool2) for a given
    /// input shape.
    std::size_t op_count(const Shape& input_shape) const;

    /// Output shape for a given input shape (throws on mismatch).
    Shape output_shape(const Shape& input_shape) const;

    std::size_t in_channels() const;

    /// This layer's one-image golden forward: its conv, pool or dense
    /// kernel on `input` (a dense layer reads the input flat).
    QTensor forward(const QTensor& input) const;
};

struct QNetwork {
    Shape input_shape; // [C,H,W]
    std::vector<QLayer> layers;
    QuantFormat format = QuantFormat::Q3_4;

    /// Width of the final layer's output (the logits) — the class count.
    std::size_t num_classes() const;

    /// Validates the layer chain and returns each layer's output shape.
    std::vector<Shape> layer_output_shapes() const;

    /// Bit-exact quantized forward pass (the golden model).
    QTensor forward(const QTensor& input) const;

    /// Resumes the forward pass at `first_layer`, with `activation` the
    /// output of layer first_layer - 1 (or the quantized input when
    /// first_layer == 0). forward_from(0, x) == forward(x) byte-exactly.
    /// This is the golden-prefix elision primitive of the weight-transfer
    /// attack family (sim/search.hpp): when faults can only begin at
    /// layer k, the unfaulted prefix is answered from cached golden
    /// activations and only layers k.. run on the faulted weights.
    QTensor forward_from(std::size_t first_layer, const QTensor& activation) const;

    /// One golden forward pass, layer by layer: `activations[i]` is layer
    /// i's post-activation output (the last entry equals forward()'s
    /// result), and `accumulators[i]` every Conv/Dense layer's
    /// pre-writeback accumulators (bias folded, product units; empty for
    /// pools), so that
    ///   activations[i][p] == apply_activation(Q3_4::from_accumulator(
    ///                            accumulators[i][p]), layers[i].activation)
    /// Each activation is byte-identical to the accelerator's fault-free
    /// output of the same layer — the property sim::GoldenStore builds on —
    /// and the accumulators let accel::AccelEngine::run_block apply a
    /// layer's fault events to its cached golden sums.
    struct ForwardTrace {
        std::vector<QTensor> activations;
        std::vector<std::vector<fx::Acc>> accumulators;
    };
    /// The golden pass of one image shaped input_shape (ContractError
    /// otherwise), through the same layer loop as forward_from. The
    /// golden-store build (sim::build_golden_store) runs it per image.
    ForwardTrace forward_trace(const QTensor& input) const;

    /// forward() of each input, in order. No simulator path calls it; it
    /// is kept for the end-to-end benchmark (bench/e2e/ds_e2e.cpp), whose
    /// per-layer quant.batch16 rows time it.
    std::vector<QTensor> forward_batch(
        const std::vector<const QTensor*>& inputs) const;

    /// Predicted class for a float image in [0,1].
    std::size_t predict(const FloatTensor& image) const;

    double evaluate_accuracy(const data::Dataset& dataset) const;

    /// Total trainable parameter elements.
    std::size_t parameter_count() const;

    /// The layer with the given label (throws if absent).
    const QLayer& layer(const std::string& label) const;
};

/// Quantizes any float Sequential built from Conv2d / MaxPool2d /
/// AvgPool2d / Dense / TanhActivation / ReluActivation / SignActivation
/// layers. Activation layers are fused into the preceding parameterized
/// layer (that is how the accelerator implements them — a BRAM LUT,
/// sign mux or comparator on the writeback path). Labels are
/// auto-generated (CONV1, POOL1, FC1, ...) unless `labels` is provided.
/// With QuantFormat::Binary, Conv/Dense weights are binarized to ±1
/// (sign of the float weight; biases stay full Q3.4).
QNetwork quantize_sequential(nn::Sequential& model, const Shape& input_shape,
                             const std::vector<std::string>& labels = {},
                             QuantFormat format = QuantFormat::Q3_4);

} // namespace deepstrike::quant
