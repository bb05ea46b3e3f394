// Generic black-box fault-set search (the remote attacker's optimizer).
//
// Both weight-transfer attack families reduce to the same combinatorial
// question: which <= max_faults positions in the victim's weight stream,
// when faulted, hurt accuracy the most? The papers answer it with
// Progressive Differential Evolution Search (P-DES, Deep-Dup): evolve a
// population of s-index fault sets, and when progress stalls grow s by
// one, seeding stage s+1 from the stage-s champion — the attacker pays
// for one more fault only when the cheaper set is exhausted. This layer
// implements that search.
//
// The driver is deliberately blind: it knows the index-space size and a
// batch fitness callback, nothing about networks, faults, or simulators
// (ds_attack links only ds_tdc + ds_util). The sim layer supplies the
// callback (sim::run_weight_fault_search dispatches each generation's
// candidate batch through SweepRunner) and journals the per-generation
// records this driver emits.
//
// Determinism contract: every stochastic draw comes from an Rng seeded
// by derive_seed(seed, stage, generation, member[, tag]) — a pure
// function of the candidate's logical coordinates. Combined with
// batch-granular fitness (the callback sees whole generations, indexed),
// the search trajectory is bit-identical at any thread count, and a run
// restored from generation g's record continues exactly as the
// uninterrupted run would have.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "util/json.hpp"

namespace deepstrike::attack {

/// A candidate fault set: distinct weight-stream indices, kept sorted
/// (canonical form — two candidates are equal iff their vectors are).
using FaultSet = std::vector<std::uint32_t>;

enum class SearchAlgorithm : std::uint8_t {
    Des, // Progressive Differential Evolution Search (the paper's)
};

struct SearchSpec {
    /// Always Des. Nothing in src/ reads it; it stays because
    /// bench/e2e/ds_e2e.cpp assigns it.
    SearchAlgorithm algorithm = SearchAlgorithm::Des;
    /// Size of the index domain (quant::WeightStreamView::size()).
    std::size_t space = 0;
    /// Largest fault set the attacker will pay for (P-DES final stage).
    std::size_t max_faults = 10;
    /// DES population: candidates per generation.
    std::size_t population = 16;
    /// Total fitness-evaluation budget. Logical: every requested
    /// evaluation counts, cached or not, so resumed runs stop at the
    /// same point an uninterrupted run would.
    std::size_t budget = 2000;
    /// Stop early once best fitness reaches this (<= 0 disables).
    /// Fitness is caller-defined; for weight-fault search it is the
    /// accuracy drop in percentage points.
    double target_drop = 0.0;
    std::uint64_t seed = 1;
    /// DES mutation scale F, in (0, 2] as differential evolution uses it,
    /// and crossover rate CR, in (0, 1].
    double f_scale = 0.5;
    double crossover = 0.7;
    /// Generations without improvement before a stage advances.
    std::size_t stall_generations = 6;

    void validate() const; // throws ConfigError on nonsense
};

/// One generation's journal payload. `index` is the global generation
/// counter (journal record index); everything else is the complete
/// driver state after that generation, so restoring from the newest
/// record alone resumes the search bit-exactly.
struct GenerationRecord {
    std::size_t index = 0;
    std::size_t stage = 1;             // current fault-set size s
    std::size_t stage_generation = 0;  // generations spent in this stage
    std::size_t stall = 0;             // non-improving generations in stage
    std::size_t evaluations = 0;       // logical fitness evals consumed
    double best_fitness = 0.0;
    FaultSet best;
    double stage_best_fitness = 0.0;   // best achieved within this stage
    bool exhausted = false;            // final stage stalled out
    std::vector<FaultSet> population;  // empty on entering a stage
    std::vector<double> fitness;       // parallel to population

    Json to_json() const;              // floats as IEEE-754 bit-hex
    static GenerationRecord from_json(const Json& json);
};

struct SearchResult {
    FaultSet best;
    double best_fitness = 0.0;
    std::size_t evaluations = 0;   // logical
    std::size_t generations = 0;   // total generation steps (incl. restored)
    std::size_t stages = 0;        // highest stage entered
    bool reached_target = false;
    /// Best fitness after each generation, indexed by generation — the
    /// convergence curve of EXPERIMENTS.md (restored generations included).
    std::vector<double> convergence;
};

/// Evaluates a generation's candidates; returns one fitness per
/// candidate, same order. Called with at least one candidate.
using BatchFitness = std::function<std::vector<double>(const std::vector<FaultSet>&)>;

/// Called after every generation with its complete record (journaling,
/// progress metrics). Restored generations are not re-announced.
using GenerationObserver = std::function<void(const GenerationRecord&)>;

class SearchDriver {
public:
    SearchDriver(SearchSpec spec, BatchFitness fitness);

    void set_observer(GenerationObserver observer);

    /// Restores driver state from recovered journal payloads (any order;
    /// the newest record wins). Must be called before run(). Throws
    /// FormatError on malformed records, ConfigError when a record is not
    /// a state the driver can reach under the spec (its stage, evaluation
    /// count, population size, member width, order and range, or a
    /// non-finite fitness), so a restored search runs to completion
    /// within the budget.
    void restore(const std::vector<Json>& records);

    /// Runs the search to completion (budget out, target reached, or all
    /// stages stalled) and returns the result. Call once.
    SearchResult run();

private:
    struct State;

    void step_des(State& state);
    std::vector<double> evaluate(State& state, const std::vector<FaultSet>& batch);
    void record_generation(State& state);

    SearchSpec spec_;
    BatchFitness fitness_;
    GenerationObserver observer_;
    std::vector<GenerationRecord> restored_;
};

} // namespace deepstrike::attack
