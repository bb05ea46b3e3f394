// Flat view of a deployed network's weight stream.
//
// When a QNetwork is deployed, its Conv/Dense weight words travel from
// off-chip DDR to on-chip BRAM as one ordered stream: every layer's
// weight tensor, in layer order, row-major within each tensor — the same
// order the DMA engine would burst them. The second attack family
// (Deep-Dup weight duplication, DeepLaser bit flips; see
// accel/weight_transfer.hpp) addresses its fault targets by position in
// this stream, so the view is the shared coordinate system between the
// search layer (attack::SearchDriver optimizes over word indices) and
// the fault hook (accel::apply_weight_faults corrupts the addressed
// words in flight).
//
// Biases and pooling layers carry no stream words: biases live in the
// accelerator's control stream (per-output, loaded once with the
// instruction words), and pools are weightless. Only Conv/Dense weight
// tensors are addressable.
#pragma once

#include <cstddef>
#include <vector>

#include "quant/qnetwork.hpp"

namespace deepstrike::quant {

/// Index map over the weight words of one QNetwork, valid for any network
/// with the same layer geometry (it stores spans, not values).
class WeightStreamView {
public:
    /// One addressable layer's slice of the stream.
    struct LayerSpan {
        std::size_t layer = 0;  // index into QNetwork::layers
        std::size_t offset = 0; // first stream index of this layer
        std::size_t count = 0;  // weight words (weight tensor elements)
    };

    /// Position of one stream word inside its layer's weight tensor.
    struct WordRef {
        std::size_t layer = 0;   // index into QNetwork::layers
        std::size_t element = 0; // flat index into that layer's weight
    };

    explicit WeightStreamView(const QNetwork& network);

    /// Total weight words in the stream (the search's index domain).
    std::size_t size() const { return total_; }

    /// Addressable layers, in stream order.
    const std::vector<LayerSpan>& spans() const { return spans_; }

    /// Maps a stream index to its (layer, element); throws ConfigError
    /// when `index` is out of range.
    WordRef locate(std::size_t index) const;

    /// Index of the earliest network layer holding one of the words at
    /// `indices`: the first layer whose activations can diverge from golden
    /// when those words, and only those, change (bit flips). Returns
    /// `layer_count` when `indices` is empty. A Deep-Dup duplication
    /// rewrites a whole beat, which may begin in an earlier layer and is a
    /// no-op in beat 0: accel::first_faulted_layer applies that rule.
    std::size_t first_faulted_layer(const std::vector<std::uint32_t>& indices,
                                    std::size_t layer_count) const;

private:
    std::vector<LayerSpan> spans_;
    std::size_t total_ = 0;
};

} // namespace deepstrike::quant
