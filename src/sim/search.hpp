// Weight-fault search orchestration: attack::SearchDriver wired to the
// simulated victim.
//
// The driver (attack/search.hpp) is blind — it optimizes fault-set
// indices against an abstract batch fitness callback. This layer makes
// that callback real: each generation's candidate fault sets become one
// SweepRunner batch (parallel across the pool, bit-identical at any
// --threads), each candidate is scored as the victim's accuracy drop in
// percentage points over a fixed evaluation slice, and per-generation
// records stream into a CheckpointJournal so a killed search resumes
// bit-exactly (`deepstrike search --resume`).
//
// Why no Platform: weight-transfer faults corrupt the DDR->BRAM stream
// before any MAC executes, so fitness is a pure function of (network,
// images, fault set) — no voltage co-simulation, no fault RNG. Fitness
// evaluation exploits that twice:
//   1. candidate-level memoization — DES revisits candidates across
//      generations; identical sets answer from a cache without running
//      (the driver still counts them against the logical budget);
//   2. golden-prefix elision — faults rewriting words first in layer k
//      leave layers 0..k-1 byte-identical to golden, so evaluation resumes
//      from the search's golden store (sim/golden_cache.hpp, built once
//      per search) at layer k-1 via QNetwork::forward_from (for LeNet-5,
//      ~97% of the weight stream lives in FC1, eliding the expensive conv
//      prefix for most candidates).
#pragma once

#include <cstdint>
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
/// images of `golden` (the first golden.size() of `test_set`): the count
/// each search fitness is scored from. Each image resumes at the earliest
/// layer holding a word the fault set rewrites (a duplicated beat may
/// begin in an earlier layer than its index), from its golden activation,
/// so the count equals a full forward of the faulted network.
std::size_t weight_fault_correct(const quant::QNetwork& network,
                                 const data::Dataset& test_set, const GoldenStore& golden,
                                 const attack::FaultSet& candidate,
                                 const WeightFaultSearchConfig& config);

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
