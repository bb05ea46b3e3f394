// Golden evaluation store.
//
// Golden (fault-free) per-layer activations depend only on (image,
// weights) — never on the voltage trace or the attack parameters being
// swept. A GoldenStore holds them for a prefix of a dataset: each image's
// quantized input, golden per-layer activations and accumulators, and
// golden predicted label, built in parallel once and shared read-only
// across threads. There is no cache around it: a campaign, a search or an
// optimizer run builds one store for its image set and passes it to every
// evaluation, and a one-shot accuracy evaluation builds its own.
//
// Every accuracy evaluation (sim::evaluate_accuracy, which reads overlay
// plans, never traces) reads a store through three elision tiers (see
// sim/experiment.cpp and AccelEngine::run_block):
//   tier 0, fault-free short-circuit — an image whose overlay plan has no
//      unsafe window resolves to the cached golden label with zero
//      faults, skipping inference entirely;
//   tier 1, golden prefix — layers before the first unsafe window are
//      skipped; their cached golden outputs feed the first windowed layer;
//   tier 2, cached-accumulator window walk — a windowed layer whose input
//      is still golden starts its fault walk from the cached golden
//      accumulators instead of recomputing them.
// None of them touches the fault RNG stream (it is only drawn inside
// unsafe windows), so results equal the whole-segment per-op oracle
// (tests/engine_reference.cpp) byte for byte, at any --threads.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "data/synth_mnist.hpp"
#include "quant/qnetwork.hpp"
#include "tensor/tensor.hpp"

namespace deepstrike::sim {

/// One image's golden (fault-free) evaluation artifacts.
struct GoldenEntry {
    QTensor qimage;                   // quantized input (Q3.4)
    std::vector<QTensor> activations; // per-layer golden outputs, post-activation
    /// Per-layer pre-writeback accumulators (Conv/Dense; empty for pools).
    /// Lets the engine apply a layer's fault events to the cached golden
    /// sums (see AccelEngine::run_block).
    std::vector<std::vector<fx::Acc>> accumulators;
    std::size_t predicted = 0;        // argmax of the final activation
};

/// Immutable snapshot shared read-only across sweep points and threads.
/// Entries are indexed by dataset image index; a store covers a prefix of
/// the dataset (the first `size()` images).
struct GoldenStore {
    std::vector<GoldenEntry> entries;

    std::size_t size() const { return entries.size(); }
};

/// Fingerprint of everything the golden artifacts depend on from the
/// model side: input shape, layer kinds/labels/activations, and every
/// quantized weight/bias word (the quantization config is baked into
/// those words — Q3.4 rounding happened upstream). The campaign and
/// search journals key on it.
std::uint64_t network_fingerprint(const quant::QNetwork& network);

/// Cheap identity tag for a dataset: size, all labels, and the raw bits
/// of the first image. Independent of how many images an evaluation
/// covers.
std::uint64_t dataset_fingerprint(const data::Dataset& dataset);

/// Builds the store for the first `n_images` of `dataset` on `network`
/// (clamped to the dataset), in parallel under an eval:golden-build span.
std::shared_ptr<const GoldenStore> build_golden_store(const quant::QNetwork& network,
                                                      const data::Dataset& dataset,
                                                      std::size_t n_images);

} // namespace deepstrike::sim
