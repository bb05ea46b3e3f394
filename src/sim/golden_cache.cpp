#include "sim/golden_cache.hpp"

#include <algorithm>
#include <cstring>

#include "quant/gemm.hpp"
#include "quant/kernels.hpp"
#include "util/error.hpp"
#include "util/parallel.hpp"
#include "util/rng.hpp"
#include "util/trace.hpp"

namespace deepstrike::sim {

namespace {

std::uint64_t shape_fingerprint(std::uint64_t h, const Shape& shape) {
    h = derive_seed(h, shape.rank());
    for (std::size_t d : shape.dims()) h = derive_seed(h, d);
    return h;
}

std::uint64_t qtensor_fingerprint(std::uint64_t h, const QTensor& t) {
    h = shape_fingerprint(h, t.shape());
    // Fold raw Q3.4 words four at a time; the exact packing only needs to
    // be deterministic and order-sensitive.
    std::uint64_t word = 0;
    std::size_t packed = 0;
    for (std::size_t i = 0; i < t.size(); ++i) {
        word = (word << 16) |
               static_cast<std::uint16_t>(t.at_unchecked(i).raw());
        if (++packed == 4) {
            h = derive_seed(h, word);
            word = 0;
            packed = 0;
        }
    }
    if (packed != 0) h = derive_seed(h, word, packed);
    return h;
}

} // namespace

std::uint64_t network_fingerprint(const quant::QNetwork& network) {
    std::uint64_t h = shape_fingerprint(0x601DE2ULL, network.input_shape);
    h = derive_seed(h, static_cast<std::uint64_t>(network.format),
                    network.layers.size());
    for (const quant::QLayer& layer : network.layers) {
        h = derive_seed(h, static_cast<std::uint64_t>(layer.kind),
                        static_cast<std::uint64_t>(layer.activation),
                        layer.label.size());
        for (char c : layer.label) h = derive_seed(h, static_cast<unsigned char>(c));
        h = qtensor_fingerprint(h, layer.weight);
        h = qtensor_fingerprint(h, layer.bias);
    }
    return h;
}

std::uint64_t dataset_fingerprint(const data::Dataset& dataset) {
    std::uint64_t h = derive_seed(0xDA7A5E7ULL, dataset.size());
    for (std::size_t label : dataset.labels) h = derive_seed(h, label);
    if (!dataset.images.empty()) {
        const FloatTensor& img = dataset.images.front();
        h = shape_fingerprint(h, img.shape());
        for (std::size_t i = 0; i < img.size(); ++i) {
            std::uint32_t bits = 0;
            std::memcpy(&bits, &img.at_unchecked(i), sizeof(bits));
            h = derive_seed(h, bits);
        }
    }
    return h;
}

std::shared_ptr<const GoldenStore> build_golden_store(const quant::QNetwork& network,
                                                      const data::Dataset& dataset,
                                                      std::size_t n_images) {
    n_images = std::min(n_images, dataset.size());
    expects(n_images > 0, "build_golden_store: at least one image");

    trace::Span span("eval:golden-build", "experiment");

    auto store = std::make_shared<GoldenStore>();
    store->entries.resize(n_images);

    // Per-image golden work is independent and deterministic; build in
    // parallel over the shared pool (helping wait makes this safe from
    // inside sweep-point tasks). The unit of parallel work is a fixed-size
    // image block answered by one batched forward_trace (weights stream
    // once per block); the partition depends only on n_images, never on
    // scheduling, so the store is identical at any thread count.
    const std::size_t batch = quant::gemm::kBlockImages;
    const std::size_t n_blocks = (n_images + batch - 1) / batch;
    parallel_for(n_blocks, [&](std::size_t blk) {
        trace::Span bspan("eval:batch", "experiment");
        const std::size_t lo = blk * batch;
        const std::size_t hi = std::min(lo + batch, n_images);
        std::vector<const QTensor*> block;
        block.reserve(hi - lo);
        for (std::size_t i = lo; i < hi; ++i) {
            GoldenEntry& entry = store->entries[i];
            entry.qimage = quant::quantize_image(dataset.images[i]);
            block.push_back(&entry.qimage);
        }
        std::vector<quant::QNetwork::ForwardTrace> traces =
            network.forward_trace_batch(block);
        for (std::size_t i = lo; i < hi; ++i) {
            GoldenEntry& entry = store->entries[i];
            quant::QNetwork::ForwardTrace& trace = traces[i - lo];
            entry.activations = std::move(trace.activations);
            entry.accumulators = std::move(trace.accumulators);
            entry.predicted = argmax(entry.activations.back());
        }
    });
    return store;
}

} // namespace deepstrike::sim
