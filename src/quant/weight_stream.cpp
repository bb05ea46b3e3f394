#include "quant/weight_stream.hpp"

#include <algorithm>

#include "util/error.hpp"

namespace deepstrike::quant {

WeightStreamView::WeightStreamView(const QNetwork& network) {
    for (std::size_t i = 0; i < network.layers.size(); ++i) {
        const QLayer& layer = network.layers[i];
        if (layer.kind != QLayerKind::Conv && layer.kind != QLayerKind::Dense) {
            continue;
        }
        LayerSpan span;
        span.layer = i;
        span.offset = total_;
        span.count = layer.weight.size();
        total_ += span.count;
        spans_.push_back(span);
    }
}

WeightStreamView::WordRef WeightStreamView::locate(std::size_t index) const {
    expects(index < total_, "WeightStreamView: stream index in range");
    // Spans are offset-sorted by construction; find the last span whose
    // offset is <= index.
    auto it = std::upper_bound(
        spans_.begin(), spans_.end(), index,
        [](std::size_t value, const LayerSpan& span) { return value < span.offset; });
    const LayerSpan& span = *std::prev(it);
    return WordRef{span.layer, index - span.offset};
}

std::size_t WeightStreamView::first_faulted_layer(
    const std::vector<std::uint32_t>& indices, std::size_t layer_count) const {
    std::size_t first = layer_count;
    for (std::uint32_t index : indices) first = std::min(first, locate(index).layer);
    return first;
}

} // namespace deepstrike::quant
