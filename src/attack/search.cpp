#include "attack/search.hpp"

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <limits>

#include "util/error.hpp"
#include "util/rng.hpp"

namespace deepstrike::attack {

namespace {

// IEEE-754 bit-exact float encoding for journal records (the same hex form
// as the campaign journal; local copies keep ds_attack free of ds_sim).
std::string bits_hex(double value) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &value, sizeof bits);
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016" PRIx64, bits);
    return buf;
}

double from_bits_hex(const std::string& hex) {
    if (hex.size() != 16 ||
        hex.find_first_not_of("0123456789abcdef") != std::string::npos) {
        throw FormatError("search record: bad float bit-hex '" + hex + "'");
    }
    const std::uint64_t bits = std::strtoull(hex.c_str(), nullptr, 16);
    double value = 0.0;
    std::memcpy(&value, &bits, sizeof value);
    return value;
}

Json fault_set_json(const FaultSet& set) {
    Json arr = Json::array();
    for (std::uint32_t index : set) arr.push(static_cast<std::uint64_t>(index));
    return arr;
}

FaultSet fault_set_from_json(const Json& json) {
    FaultSet set;
    set.reserve(json.size());
    for (std::size_t i = 0; i < json.size(); ++i) {
        const std::uint64_t index = json.at(i).as_uint();
        if (index > std::numeric_limits<std::uint32_t>::max()) {
            throw FormatError("search record: fault index " + std::to_string(index) +
                              " exceeds 32 bits");
        }
        set.push_back(static_cast<std::uint32_t>(index));
    }
    return set;
}

bool sorted_distinct_below(const FaultSet& set, std::size_t space) {
    for (std::size_t i = 0; i < set.size(); ++i) {
        if (set[i] >= space || (i > 0 && set[i - 1] >= set[i])) return false;
    }
    return true;
}

constexpr double kNoFitness = std::numeric_limits<double>::lowest();

/// Appends distinct indices drawn from rng until `set` has `size`
/// elements, then canonicalizes (sorted).
void grow_to(FaultSet& set, std::size_t size, std::size_t space, Rng& rng) {
    while (set.size() < size) {
        const auto candidate = static_cast<std::uint32_t>(
            rng.uniform_int(0, static_cast<std::int64_t>(space) - 1));
        if (std::find(set.begin(), set.end(), candidate) == set.end()) {
            set.push_back(candidate);
        }
    }
    std::sort(set.begin(), set.end());
}

/// Throws ConfigError unless `record` is a state the driver can reach
/// under `spec`. These are the invariants step_des relies on: a stage in
/// [1, max_faults], members exactly `stage` wide, sorted and distinct
/// within the space, and a full population for the three distinct peers
/// of each mutation (a seeding cut short by the budget ends the run).
/// Each generation evaluates at least one candidate, so `index` stays
/// below `evaluations`, which bounds the convergence rebuild by the budget.
void check_record(const GenerationRecord& record, const SearchSpec& spec) {
    const auto require = [&](bool ok, const char* what) {
        if (!ok) {
            throw ConfigError("search restore: record " + std::to_string(record.index) +
                              ": " + what + " (journal from a different search?)");
        }
    };
    require(record.stage >= 1 && record.stage <= spec.max_faults,
            "stage outside 1..max_faults");
    require(record.index < record.evaluations && record.evaluations <= spec.budget,
            "evaluations outside index+1..budget");
    const std::size_t members = record.population.size();
    require(members == 0 || members == spec.population ||
                (members < spec.population && record.evaluations == spec.budget),
            "population size differs from the spec");
    for (const FaultSet& member : record.population) {
        require(member.size() == record.stage && sorted_distinct_below(member, spec.space),
                "member is not a stage-sized sorted-distinct set in the weight stream");
    }
    require(record.best.size() <= record.stage &&
                sorted_distinct_below(record.best, spec.space),
            "best is not a sorted-distinct set of at most stage indices in the "
            "weight stream");
    const auto finite = [](double value) { return std::isfinite(value); };
    require(finite(record.best_fitness) && finite(record.stage_best_fitness) &&
                std::all_of(record.fitness.begin(), record.fitness.end(), finite),
            "non-finite fitness");
}

} // namespace

void SearchSpec::validate() const {
    if (space == 0) throw ConfigError("SearchSpec: empty index space");
    if (max_faults == 0) throw ConfigError("SearchSpec: max_faults must be >= 1");
    if (max_faults > space) {
        throw ConfigError("SearchSpec: max_faults exceeds the index space");
    }
    if (budget == 0) throw ConfigError("SearchSpec: zero evaluation budget");
    if (population < 4) {
        throw ConfigError("SearchSpec: DES needs a population of >= 4 "
                          "(mutation draws three distinct peers)");
    }
    if (stall_generations == 0) {
        throw ConfigError("SearchSpec: stall_generations must be >= 1");
    }
    // A mutant a + F * (b - c) is rounded with llround, whose result is
    // unspecified when it does not fit: a non-finite or huge F would put
    // every mutated gene on one index.
    if (!(f_scale > 0.0 && f_scale <= 2.0) || !(crossover > 0.0) || crossover > 1.0) {
        throw ConfigError("SearchSpec: f_scale must be in (0, 2] and crossover in (0, 1]");
    }
}

Json GenerationRecord::to_json() const {
    Json json = Json::object();
    json.set("index", static_cast<std::uint64_t>(index));
    json.set("stage", static_cast<std::uint64_t>(stage));
    json.set("stage_generation", static_cast<std::uint64_t>(stage_generation));
    json.set("stall", static_cast<std::uint64_t>(stall));
    json.set("evaluations", static_cast<std::uint64_t>(evaluations));
    json.set("exhausted", exhausted);
    json.set("best_fitness", bits_hex(best_fitness));
    json.set("best", fault_set_json(best));
    json.set("stage_best_fitness", bits_hex(stage_best_fitness));
    Json pop = Json::array();
    for (const FaultSet& member : population) pop.push(fault_set_json(member));
    json.set("population", std::move(pop));
    Json fit = Json::array();
    for (double f : fitness) fit.push(bits_hex(f));
    json.set("fitness", std::move(fit));
    return json;
}

GenerationRecord GenerationRecord::from_json(const Json& json) {
    GenerationRecord record;
    record.index = json.at("index").as_uint();
    record.stage = json.at("stage").as_uint();
    record.stage_generation = json.at("stage_generation").as_uint();
    record.stall = json.at("stall").as_uint();
    record.evaluations = json.at("evaluations").as_uint();
    record.exhausted = json.at("exhausted").as_bool();
    record.best_fitness = from_bits_hex(json.at("best_fitness").as_string());
    record.best = fault_set_from_json(json.at("best"));
    record.stage_best_fitness =
        from_bits_hex(json.at("stage_best_fitness").as_string());
    const Json& pop = json.at("population");
    for (std::size_t i = 0; i < pop.size(); ++i) {
        record.population.push_back(fault_set_from_json(pop.at(i)));
    }
    const Json& fit = json.at("fitness");
    for (std::size_t i = 0; i < fit.size(); ++i) {
        record.fitness.push_back(from_bits_hex(fit.at(i).as_string()));
    }
    if (record.fitness.size() != record.population.size()) {
        throw FormatError("search record: population/fitness size mismatch");
    }
    return record;
}

// ---------------------------------------------------------------------------

struct SearchDriver::State {
    std::size_t index = 0; // generations completed (= next record index)
    std::size_t stage = 1;
    std::size_t stage_generation = 0;
    std::size_t stall = 0;
    std::size_t evaluations = 0;
    double best_fitness = kNoFitness;
    FaultSet best;
    double stage_best_fitness = kNoFitness;
    bool exhausted = false;
    std::vector<FaultSet> population;
    std::vector<double> fitness;
    std::vector<double> convergence;
    std::size_t max_stage_entered = 1;
};

SearchDriver::SearchDriver(SearchSpec spec, BatchFitness fitness)
    : spec_(spec), fitness_(std::move(fitness)) {
    spec_.validate();
    expects(static_cast<bool>(fitness_), "SearchDriver: fitness callback set");
}

void SearchDriver::set_observer(GenerationObserver observer) {
    observer_ = std::move(observer);
}

void SearchDriver::restore(const std::vector<Json>& records) {
    for (const Json& payload : records) {
        GenerationRecord record = GenerationRecord::from_json(payload);
        check_record(record, spec_);
        restored_.push_back(std::move(record));
    }
    std::sort(restored_.begin(), restored_.end(),
              [](const GenerationRecord& a, const GenerationRecord& b) {
                  return a.index < b.index;
              });
}

std::vector<double> SearchDriver::evaluate(State& state,
                                           const std::vector<FaultSet>& batch) {
    std::vector<double> values = fitness_(batch);
    if (values.size() != batch.size()) {
        throw ConfigError("search fitness callback returned a mismatched batch");
    }
    state.evaluations += batch.size();
    for (std::size_t i = 0; i < batch.size(); ++i) {
        if (values[i] > state.best_fitness) {
            state.best_fitness = values[i];
            state.best = batch[i];
        }
    }
    return values;
}

void SearchDriver::record_generation(State& state) {
    GenerationRecord record;
    record.index = state.index;
    record.stage = state.stage;
    record.stage_generation = state.stage_generation;
    record.stall = state.stall;
    record.evaluations = state.evaluations;
    record.exhausted = state.exhausted;
    record.best_fitness = state.best_fitness;
    record.best = state.best;
    record.stage_best_fitness = state.stage_best_fitness;
    record.population = state.population;
    record.fitness = state.fitness;
    state.convergence.push_back(state.best_fitness);
    state.index += 1;
    if (observer_) observer_(record);
}

void SearchDriver::step_des(State& state) {
    const std::size_t remaining = spec_.budget - state.evaluations;
    const std::size_t s = state.stage;

    if (state.population.empty()) {
        // Stage entry: seed the population. Stage 1 is uniform random;
        // stage s > 1 carries the champion's s-1 indices into every
        // member and randomizes the added index (P-DES progression).
        std::vector<FaultSet> seeds;
        for (std::size_t m = 0; m < spec_.population; ++m) {
            Rng rng(derive_seed(spec_.seed, s, state.index, m, 0x5eedULL));
            FaultSet member = (s > 1) ? state.best : FaultSet{};
            member.resize(std::min<std::size_t>(member.size(), s - 1));
            grow_to(member, s, spec_.space, rng);
            seeds.push_back(std::move(member));
            if (seeds.size() == remaining) break;
        }
        std::vector<double> values = evaluate(state, seeds);
        state.population = std::move(seeds);
        state.fitness = std::move(values);
        state.stage_best_fitness =
            *std::max_element(state.fitness.begin(), state.fitness.end());
        state.stage_generation = 0;
        state.stall = 0;
        return;
    }

    // Mutation + binomial crossover + greedy selection, one trial per
    // member, whole generation evaluated as a single batch.
    const std::size_t pop = state.population.size();
    std::vector<FaultSet> trials;
    trials.reserve(pop);
    for (std::size_t m = 0; m < pop && trials.size() < remaining; ++m) {
        Rng rng(derive_seed(spec_.seed, s, state.index, m));
        std::size_t r1 = m, r2 = m, r3 = m;
        while (r1 == m) r1 = static_cast<std::size_t>(rng.uniform_int(0, pop - 1));
        while (r2 == m || r2 == r1)
            r2 = static_cast<std::size_t>(rng.uniform_int(0, pop - 1));
        while (r3 == m || r3 == r1 || r3 == r2)
            r3 = static_cast<std::size_t>(rng.uniform_int(0, pop - 1));
        const FaultSet& base = state.population[m];
        const FaultSet& a = state.population[r1];
        const FaultSet& b = state.population[r2];
        const FaultSet& c = state.population[r3];
        const std::size_t jrand = static_cast<std::size_t>(rng.uniform_int(0, s - 1));
        FaultSet trial;
        trial.reserve(s);
        for (std::size_t j = 0; j < s; ++j) {
            std::uint32_t gene = base[j];
            if (j == jrand || rng.uniform() < spec_.crossover) {
                const double moved =
                    static_cast<double>(a[j]) +
                    spec_.f_scale * (static_cast<double>(b[j]) -
                                     static_cast<double>(c[j]));
                const auto wrapped = static_cast<std::int64_t>(std::llround(moved));
                const auto space = static_cast<std::int64_t>(spec_.space);
                gene = static_cast<std::uint32_t>(((wrapped % space) + space) % space);
            }
            trial.push_back(gene);
        }
        // Repair: canonical sorted-distinct form, refilled from the
        // member stream when the mutation collided.
        std::sort(trial.begin(), trial.end());
        trial.erase(std::unique(trial.begin(), trial.end()), trial.end());
        grow_to(trial, s, spec_.space, rng);
        trials.push_back(std::move(trial));
    }

    const std::vector<double> values = evaluate(state, trials);
    bool improved = false;
    for (std::size_t m = 0; m < trials.size(); ++m) {
        if (values[m] >= state.fitness[m]) {
            state.population[m] = trials[m];
            state.fitness[m] = values[m];
        }
        if (values[m] > state.stage_best_fitness) {
            state.stage_best_fitness = values[m];
            improved = true;
        }
    }
    state.stage_generation += 1;
    state.stall = improved ? 0 : state.stall + 1;

    if (state.stall >= spec_.stall_generations) {
        if (state.stage >= spec_.max_faults) {
            state.exhausted = true;
        } else {
            state.stage += 1;
            state.max_stage_entered = std::max(state.max_stage_entered, state.stage);
            state.stage_generation = 0;
            state.stall = 0;
            state.population.clear();
            state.fitness.clear();
            state.stage_best_fitness = kNoFitness;
        }
    }
}

SearchResult SearchDriver::run() {
    State state;
    if (!restored_.empty()) {
        const GenerationRecord& last = restored_.back();
        state.index = last.index + 1;
        state.stage = last.stage;
        state.stage_generation = last.stage_generation;
        state.stall = last.stall;
        state.evaluations = last.evaluations;
        state.best_fitness = last.best_fitness;
        state.best = last.best;
        state.stage_best_fitness = last.stage_best_fitness;
        state.exhausted = last.exhausted;
        state.population = last.population;
        state.fitness = last.fitness;
        state.max_stage_entered = last.stage;
        // Rebuild the convergence curve from the full record set.
        state.convergence.assign(state.index, kNoFitness);
        for (const GenerationRecord& record : restored_) {
            if (record.index < state.convergence.size()) {
                state.convergence[record.index] = record.best_fitness;
            }
        }
        for (std::size_t i = 1; i < state.convergence.size(); ++i) {
            state.convergence[i] =
                std::max(state.convergence[i], state.convergence[i - 1]);
        }
    }

    const auto target_reached = [&] {
        return spec_.target_drop > 0.0 && state.best_fitness >= spec_.target_drop;
    };
    const auto done = [&] {
        return state.exhausted || state.evaluations >= spec_.budget ||
               target_reached();
    };

    while (!done()) {
        step_des(state);
        record_generation(state);
    }

    SearchResult result;
    result.best = state.best;
    result.best_fitness = state.best_fitness == kNoFitness ? 0.0 : state.best_fitness;
    result.evaluations = state.evaluations;
    result.generations = state.index;
    result.stages = state.max_stage_entered;
    result.reached_target = target_reached();
    result.convergence = std::move(state.convergence);
    return result;
}

} // namespace deepstrike::attack
