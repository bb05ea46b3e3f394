#include "accel/weight_transfer.hpp"

#include <algorithm>

#include "util/error.hpp"

namespace deepstrike::accel {

namespace {

using quant::WeightStreamView;

/// Copies `count` stream words starting at `src_index` of `src` over those
/// starting at `dst_index` of `dst` (both with `view`'s geometry), one
/// block copy per piece that lies in a single layer on both sides.
void copy_stream_words(const quant::QNetwork& src, std::size_t src_index,
                       quant::QNetwork& dst, std::size_t dst_index, std::size_t count,
                       const WeightStreamView& view) {
    while (count > 0) {
        const WeightStreamView::WordRef s = view.locate(src_index);
        const WeightStreamView::WordRef d = view.locate(dst_index);
        const QTensor& from = src.layers[s.layer].weight;
        QTensor& to = dst.layers[d.layer].weight;
        const std::size_t n =
            std::min({count, from.size() - s.element, to.size() - d.element});
        std::copy_n(from.data() + s.element, n, to.data() + d.element);
        src_index += n;
        dst_index += n;
        count -= n;
    }
}

} // namespace

const char* weight_fault_kind_name(WeightFaultKind kind) {
    switch (kind) {
    case WeightFaultKind::Duplicate: return "duplicate";
    case WeightFaultKind::BitFlip: return "bit-flip";
    }
    throw ConfigError("weight_fault_kind_name: unknown kind");
}

WeightFaultKind parse_weight_fault_kind(const std::string& name) {
    if (name == "duplicate") return WeightFaultKind::Duplicate;
    if (name == "bit-flip" || name == "bitflip") return WeightFaultKind::BitFlip;
    throw ConfigError("unknown weight fault kind '" + name +
                      "' (expected duplicate|bit-flip)");
}

std::vector<WeightFault> uniform_weight_faults(
    const std::vector<std::uint32_t>& indices, WeightFaultKind kind,
    std::uint8_t bit) {
    std::vector<WeightFault> faults;
    faults.reserve(indices.size());
    for (std::uint32_t index : indices) {
        faults.push_back(WeightFault{index, kind, bit});
    }
    return faults;
}

StreamSpan rewritten_span(const WeightFault& fault, std::size_t stream_words,
                          const WeightTransferParams& params) {
    if (fault.kind == WeightFaultKind::BitFlip) return {fault.index, fault.index + std::size_t{1}};
    expects(params.beat_words > 0, "WeightTransferParams: beat_words > 0");
    const std::size_t begin = fault.index - fault.index % params.beat_words;
    if (begin == 0) return {};
    return {begin, std::min(begin + params.beat_words, stream_words)};
}

std::size_t first_faulted_layer(const WeightStreamView& view,
                                const std::vector<WeightFault>& faults,
                                const WeightTransferParams& params,
                                std::size_t layer_count) {
    std::size_t first = layer_count;
    for (const WeightFault& fault : faults) {
        expects(fault.index < view.size(),
                "WeightFault: stream index within the weight stream");
        const StreamSpan span = rewritten_span(fault, view.size(), params);
        if (!span.empty()) first = std::min(first, view.locate(span.begin).layer);
    }
    return first;
}

std::vector<StreamSpan> patch_weight_faults(const quant::QNetwork& original,
                                            const WeightStreamView& view,
                                            const std::vector<WeightFault>& faults,
                                            const WeightTransferParams& params,
                                            quant::QNetwork& working) {
    expects(params.beat_words > 0, "WeightTransferParams: beat_words > 0");
    expects(working.layers.size() == original.layers.size(),
            "patch_weight_faults: working copy of the original network");
    for (const WeightFault& fault : faults) {
        expects(fault.index < view.size(),
                "WeightFault: stream index within the weight stream");
        if (fault.kind == WeightFaultKind::BitFlip) {
            expects(fault.bit < fx::Q3_4::total_bits,
                    "WeightFault: bit within the 8-bit word");
        }
    }

    std::vector<StreamSpan> touched;
    touched.reserve(faults.size());
    // Pass 1 — Duplicate faults. Each one re-latches the *original* stream's
    // previous beat over the target beat: sources are read from the unfaulted
    // network so the result is independent of fault-vector order (two
    // adjacent duplications do not chain). Beat 0 has no predecessor; faults
    // there model a glitch that fired before any data was on the bus (no-op).
    for (const WeightFault& fault : faults) {
        if (fault.kind != WeightFaultKind::Duplicate) continue;
        const StreamSpan span = rewritten_span(fault, view.size(), params);
        if (span.empty()) continue;
        copy_stream_words(original, span.begin - params.beat_words, working, span.begin,
                          span.end - span.begin, view);
        touched.push_back(span);
    }

    // Pass 2 — BitFlip faults, applied to the post-duplication word (the
    // flip happens as the word crosses the bus, i.e. on whatever data the
    // handshake actually carried). XOR on the 8-bit two's-complement code,
    // sign-extended back to the int16 raw store.
    for (const WeightFault& fault : faults) {
        if (fault.kind != WeightFaultKind::BitFlip) continue;
        const WeightStreamView::WordRef ref = view.locate(fault.index);
        fx::Q3_4& word = working.layers[ref.layer].weight[ref.element];
        const auto byte = static_cast<std::uint8_t>(
            static_cast<std::uint8_t>(word.raw()) ^ (1u << fault.bit));
        word = fx::Q3_4::from_raw(
            static_cast<std::int16_t>(static_cast<std::int8_t>(byte)));
        touched.push_back(rewritten_span(fault, view.size(), params));
    }
    return touched;
}

void restore_weight_spans(const quant::QNetwork& original, const WeightStreamView& view,
                          const std::vector<StreamSpan>& spans,
                          quant::QNetwork& working) {
    for (const StreamSpan& span : spans) {
        copy_stream_words(original, span.begin, working, span.begin,
                          span.end - span.begin, view);
    }
}

quant::QNetwork apply_weight_faults(const quant::QNetwork& network,
                                    const std::vector<WeightFault>& faults,
                                    const WeightTransferParams& params) {
    expects(params.beat_words > 0, "WeightTransferParams: beat_words > 0");
    quant::QNetwork deployed = network;
    if (!faults.empty()) {
        patch_weight_faults(network, WeightStreamView(network), faults, params, deployed);
    }
    return deployed;
}

} // namespace deepstrike::accel
