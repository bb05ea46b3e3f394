// Golden evaluation cache.
//
// Golden (fault-free) per-layer activations depend only on (image,
// weights) — never on the voltage trace or the attack parameters being
// swept — yet each campaign point used to recompute every image's full
// quantized forward pass. GoldenCache computes them once per campaign:
// a per-(model, dataset-slice) store of each image's quantized input,
// golden per-layer activations, and golden predicted label, built in
// parallel and shared read-only across all sweep points and threads.
//
// Three elision tiers in the eval path consume it (see sim/experiment.cpp
// and AccelEngine::run_elided):
//   tier 0, fault-free short-circuit — an image whose overlay plan has no
//      unsafe window resolves to the cached golden label with zero
//      faults, skipping inference entirely;
//   tier 1, golden prefix — layers before the first unsafe window are
//      skipped; their cached golden outputs feed the first windowed layer;
//   tier 2, cached-accumulator window walk — a windowed layer whose input
//      is still golden starts its fault walk from the cached golden
//      accumulators instead of recomputing them.
// None of them touches the fault RNG stream (it is only drawn inside
// unsafe windows), so campaign reports stay byte-identical with the
// cache on or off, at any --threads.
//
// Stores are keyed by a derive_seed-style fingerprint of the quantized
// weights + quantization config (network_fingerprint) plus a dataset
// tag; a mismatch rebuilds from scratch rather than reusing stale
// entries (tests/golden_cache_test.cpp enforces this).
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
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
    /// Lets the engine start a faulted window walk from the cached golden
    /// sums (see AccelEngine::run_elided).
    std::vector<std::vector<fx::Acc>> accumulators;
    std::size_t predicted = 0;        // argmax of the final activation
};

/// Immutable snapshot shared read-only across sweep points and threads.
/// Entries are indexed by dataset image index; a store covers a prefix of
/// the dataset (the first `size()` images).
struct GoldenStore {
    std::uint64_t network_fp = 0; // network_fingerprint() of the builder
    std::uint64_t dataset_fp = 0; // dataset_fingerprint() of the builder
    std::vector<GoldenEntry> entries;

    std::size_t size() const { return entries.size(); }
};

/// Fingerprint of everything the golden artifacts depend on from the
/// model side: input shape, layer kinds/labels/activations, and every
/// quantized weight/bias word (the quantization config is baked into
/// those words — Q3.4 rounding happened upstream).
std::uint64_t network_fingerprint(const quant::QNetwork& network);

/// Cheap identity tag for a dataset: size, all labels, and the raw bits
/// of the first image. Independent of how many images a store covers, so
/// a pilot-sized store can grow into a full-eval store without a rebuild.
std::uint64_t dataset_fingerprint(const data::Dataset& dataset);

/// Thread-safe builder/owner of GoldenStore snapshots. One instance lives
/// beside the SweepRunner's trace cache; sweep-point tasks call ensure()
/// and hold the returned shared_ptr for lock-free read access.
class GoldenCache {
public:
    /// Returns a store covering the first `n_images` of `dataset` for
    /// `network`, building (in parallel, under an eval:golden-build span)
    /// or extending the current store as needed. A fingerprint mismatch —
    /// different weights or a different dataset — rebuilds from scratch.
    /// Concurrent calls are serialized; later callers see the first
    /// caller's store. Counts eval.golden_cache.{hits,misses}.
    std::shared_ptr<const GoldenStore> ensure(const quant::QNetwork& network,
                                              const data::Dataset& dataset,
                                              std::size_t n_images);

    /// Build/extend passes performed so far (diagnostics and tests).
    std::size_t builds() const;

private:
    mutable std::mutex mutex_;
    std::shared_ptr<const GoldenStore> store_;
    std::size_t builds_ = 0;
};

/// Builds a store directly (no caching); the parallel build primitive
/// behind GoldenCache::ensure, exposed for tests and one-shot callers.
/// `base` optionally donates already-built entries (same fingerprints).
std::shared_ptr<const GoldenStore> build_golden_store(
    const quant::QNetwork& network, const data::Dataset& dataset,
    std::size_t n_images, const GoldenStore* base = nullptr);

} // namespace deepstrike::sim
