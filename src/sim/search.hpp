// Weight-fault search orchestration: attack::SearchDriver wired to the
// simulated victim.
//
// The driver (attack/search.hpp) is blind — it optimizes fault-set
// indices against an abstract batch fitness callback. This layer makes
// that callback real: each generation's candidate fault sets are scored
// as one batch (WeightFaultFitness, parallel across the pool and
// bit-identical at any --threads), each candidate as the victim's
// accuracy drop in percentage points over a fixed evaluation slice, and
// per-generation records stream into a CheckpointJournal so a killed
// search resumes bit-exactly (`deepstrike search --resume`).
//
// Why no Platform: weight-transfer faults corrupt the DDR->BRAM stream
// before any MAC executes, so fitness is a pure function of (network,
// images, fault set) — no voltage co-simulation, no fault RNG. Fitness
// evaluation exploits that twice:
//   1. candidate-level memoization — DES revisits candidates across
//      generations; identical sets answer from a cache without running
//      (the driver still counts them against the logical budget);
//   2. shared fault prefixes — the layers before layer r read only the
//      stream words before r's first word, so two candidates whose
//      rewritten spans (a Deep-Dup beat, a DeepLaser word) agree there
//      feed layer r the same input. P-DES carries the stage champion's
//      indices into every member of the next stage, so candidates share
//      these prefixes far more often than the stream's layout suggests:
//      on the LeNet-5 benchmark search, 39% of candidates fault CONV1, 53%
//      begin in CONV2 and only 8% in FC1, although FC1 holds 97% of the
//      stream. Each candidate resumes from the deepest stored prefix it
//      shares (WeightFaultFitness below); the golden activations are the
//      entries of the empty prefix.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "accel/weight_transfer.hpp"
#include "attack/search.hpp"
#include "data/synth_mnist.hpp"
#include "quant/qnetwork.hpp"
#include "sim/runner.hpp"
#include "util/json.hpp"

namespace deepstrike::sim {

/// The two weight-transfer attack families, as the CLI names them.
///   deep-dup  -> WeightFaultKind::Duplicate
///   deeplaser -> WeightFaultKind::BitFlip
const char* weight_attack_name(accel::WeightFaultKind kind);
accel::WeightFaultKind parse_weight_attack(const std::string& name); // throws ConfigError

struct WeightFaultSearchConfig {
    /// Driver spec. `spec.space` may be left 0: it is filled with the
    /// victim's weight-stream size before the search starts.
    attack::SearchSpec spec;
    /// Fault model applied to every index of a candidate set.
    accel::WeightFaultKind fault_kind = accel::WeightFaultKind::Duplicate;
    std::size_t fault_bit = 7; // BitFlip only; 7 = sign bit, at most 7
    accel::WeightTransferParams transfer;
    /// Fitness is the accuracy drop over the first eval_images (>= 1) of
    /// the test set (percentage points).
    std::size_t eval_images = 256;
    std::size_t threads = 0;
    std::string journal_path;
    bool resume = false;
};

/// Search outcome, serialized into reports and EXPERIMENTS.md tables.
struct SearchReport {
    std::string algorithm;      // always "des" (P-DES)
    std::string attack;         // deep-dup | deeplaser
    std::size_t space = 0;      // weight-stream size searched
    std::size_t eval_images = 0;
    double clean_accuracy = 0.0; // percent over the eval slice
    double best_drop = 0.0;      // percentage points
    attack::FaultSet best;
    std::size_t evaluations = 0;
    std::size_t generations = 0;
    std::size_t stages = 0;
    bool reached_target = false;
    std::size_t fitness_cache_hits = 0;
    /// Best drop after each generation (the convergence curve).
    std::vector<double> convergence;

    Json to_json() const;          // byte-stable across thread counts
    std::string to_markdown() const;
};

/// 64-bit fingerprint of everything that determines the search outcome
/// (victim weights, dataset, spec, fault model, eval slice) — the
/// journal compatibility key.
std::uint64_t weight_fault_search_fingerprint(
    const quant::QNetwork& network, const data::Dataset& test_set,
    const WeightFaultSearchConfig& config);

/// Correct predictions of `network` deployed with `candidate` under
/// `config`'s fault model (fault_kind, fault_bit, transfer), over the
/// images of `golden` (the first golden.size() of `test_set`). Each image
/// resumes at the earliest layer holding a word the fault set rewrites
/// (accel::first_faulted_layer: a duplicated beat may begin in an earlier
/// layer than its index, and one in beat 0 rewrites nothing) from its
/// golden activation, through QNetwork::forward_from on a faulted copy, so
/// the count equals a full forward of the faulted network. The oracle
/// WeightFaultFitness is tested against.
std::size_t weight_fault_correct(const quant::QNetwork& network,
                                 const data::Dataset& test_set, const GoldenStore& golden,
                                 const attack::FaultSet& candidate,
                                 const WeightFaultSearchConfig& config);

/// Non-empty fault prefixes a WeightFaultFitness keeps per resume layer,
/// next to the golden entry.
inline constexpr std::size_t kPrefixStoreEntries = 4;

/// The search's fitness evaluator. It keeps one prefix store per resume
/// layer r (layer 0 and each Conv/Dense layer): entries keyed by the begins
/// of a fault prefix's rewritten spans (accel::rewritten_span) that begin
/// before r's first stream word, each holding every evaluation image's
/// input to layer r under that prefix and, when r is dense, the dot
/// products of r's unfaulted weight rows with it. Construction fills the
/// golden (empty-prefix) entries and scores the clean network.
///
/// Each batch is planned on the calling thread before any task runs:
/// every candidate resumes from the deepest entry holding its prefix; a
/// prefix that at least two candidates share and no entry holds gets a
/// new entry, most-shared first, up to kPrefixStoreEntries per store, and
/// entries no candidate of the batch names are evicted least recently
/// named first to make room. At a dense resume layer a candidate starts
/// from the stored dot products and recomputes only the rows its own
/// rewritten spans touch; a conv resume layer and every later layer run
/// the one-image kernels. One pool task per block of evaluation images
/// fills the new entries and scores every candidate on its images, so the
/// counts — quant.gemm.macs and search.prefix_store.* included — are the
/// same at every thread count and SIMD twin.
class WeightFaultFitness {
public:
    /// Scores over the first min(config.eval_images, test_set.size()) (>= 1)
    /// images of `test_set` under `config`'s fault model; tasks run on
    /// `runner`. `network`, `test_set` and `runner` must outlive it.
    WeightFaultFitness(const quant::QNetwork& network, const data::Dataset& test_set,
                       const WeightFaultSearchConfig& config, SweepRunner& runner);
    ~WeightFaultFitness();
    WeightFaultFitness(const WeightFaultFitness&) = delete;
    WeightFaultFitness& operator=(const WeightFaultFitness&) = delete;

    /// Correct predictions of the unfaulted network.
    std::size_t clean_correct() const;

    /// Correct predictions of each candidate of `batch` (each a
    /// weight_fault_correct count), in order. When `manifest` is non-null
    /// it gains the batch's wall time and one point per candidate
    /// ("candidate <indices>", its blocks' task times summed).
    std::vector<std::size_t> correct(const std::vector<attack::FaultSet>& batch,
                                     RunManifest* manifest = nullptr);

private:
    struct Impl;
    std::unique_ptr<Impl> impl_;
};

/// Runs the search to completion. Deterministic in (network, test_set,
/// config) — independent of threads and resume splits. Throws
/// ConfigError on a config it cannot run (zero eval images, zero beat
/// words, a fault bit above 7, an invalid spec) or a journal that does
/// not belong to it. When `manifest` is non-null it receives the
/// aggregated sweep manifest (one point per fitness-evaluated candidate).
SearchReport run_weight_fault_search(const quant::QNetwork& network,
                                     const data::Dataset& test_set,
                                     const WeightFaultSearchConfig& config,
                                     RunManifest* manifest = nullptr);

} // namespace deepstrike::sim
