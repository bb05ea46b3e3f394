// attack::SearchDriver (P-DES) and the sim-side weight-fault search
// orchestration: determinism across threads, golden-cache equivalence,
// prefix-store fitness against a full forward, journal resume, hostile
// journal records and configs.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <limits>
#include <map>
#include <memory>
#include <set>

#include "accel/arch_profiles.hpp"
#include "attack/search.hpp"
#include "data/synth_mnist.hpp"
#include "nn/zoo.hpp"
#include "quant/weight_stream.hpp"
#include "sim/campaign.hpp"
#include "sim/journal.hpp"
#include "sim/search.hpp"
#include "test_helpers.hpp"
#include "util/error.hpp"
#include "util/metrics.hpp"
#include "util/rng.hpp"
#include "util/simd.hpp"

using namespace deepstrike;
using attack::FaultSet;
using attack::GenerationRecord;
using attack::SearchDriver;
using attack::SearchResult;
using attack::SearchSpec;

namespace {

std::string temp_path(const std::string& name) {
    return ::testing::TempDir() + "ds_search_test_" + name;
}

/// Synthetic fitness: overlap with a planted optimum, slightly rewarding
/// low indices so ties break deterministically. Pure function of the
/// candidate — the driver's whole world.
double planted_fitness(const FaultSet& candidate, const FaultSet& planted) {
    double score = 0.0;
    for (std::uint32_t index : candidate) {
        if (std::find(planted.begin(), planted.end(), index) != planted.end()) {
            score += 10.0;
        }
        score -= static_cast<double>(index) * 1e-6;
    }
    return score;
}

attack::BatchFitness planted_batch(const FaultSet& planted) {
    return [planted](const std::vector<FaultSet>& batch) {
        std::vector<double> values;
        values.reserve(batch.size());
        for (const FaultSet& candidate : batch) {
            values.push_back(planted_fitness(candidate, planted));
        }
        return values;
    };
}

SearchSpec small_spec() {
    SearchSpec spec;
    spec.space = 64;
    spec.max_faults = 3;
    spec.population = 8;
    spec.budget = 600;
    spec.seed = 7;
    return spec;
}

/// Runs `spec` uninterrupted against the planted optimum and returns
/// every generation's journal record; `result` receives the outcome.
std::vector<Json> honest_records(const SearchSpec& spec, const FaultSet& planted,
                                 SearchResult* result = nullptr) {
    std::vector<Json> records;
    SearchDriver driver(spec, planted_batch(planted));
    driver.set_observer(
        [&](const GenerationRecord& record) { records.push_back(record.to_json()); });
    const SearchResult outcome = driver.run();
    if (result != nullptr) *result = outcome;
    return records;
}

SearchResult restore_and_run(const SearchSpec& spec, const FaultSet& planted,
                             const std::vector<Json>& records) {
    SearchDriver driver(spec, planted_batch(planted));
    driver.restore(records);
    return driver.run();
}

/// `record` with `key` replaced by `value`.
Json with(Json record, const char* key, Json value) {
    record.set(key, std::move(value));
    return record;
}

/// `record` with the first index of population member `member` (or of
/// `best` when `member` is the population size) replaced by a raw JSON
/// integer that no 32-bit index can hold.
Json with_wide_index(const Json& record, std::size_t member) {
    const auto widened = [](const Json& set) {
        Json out = Json::array();
        out.push(std::uint64_t{(1ULL << 32) + 5});
        for (std::size_t i = 1; i < set.size(); ++i) out.push(set.at(i));
        return out;
    };
    const Json& population = record.at("population");
    if (member == population.size()) {
        return with(record, "best", widened(record.at("best")));
    }
    Json pop = Json::array();
    for (std::size_t m = 0; m < population.size(); ++m) {
        pop.push(m == member ? widened(population.at(m)) : population.at(m));
    }
    return with(record, "population", std::move(pop));
}

} // namespace

TEST(SearchSpec, ValidateRejectsNonsense) {
    SearchSpec spec = small_spec();
    EXPECT_NO_THROW(spec.validate());
    spec.space = 0;
    EXPECT_THROW(spec.validate(), ConfigError);
    spec = small_spec();
    spec.max_faults = 100;
    EXPECT_THROW(spec.validate(), ConfigError); // exceeds space 64
    spec = small_spec();
    spec.population = 3;
    EXPECT_THROW(spec.validate(), ConfigError); // DES needs >= 4
    spec = small_spec();
    spec.budget = 0;
    EXPECT_THROW(spec.validate(), ConfigError);
    spec = small_spec();
    spec.crossover = 1.5;
    EXPECT_THROW(spec.validate(), ConfigError);
}

TEST(SearchDriverTest, FindsPlantedOptimum) {
    const FaultSet planted = {5, 23, 40};
    SearchDriver driver(small_spec(), planted_batch(planted));
    const SearchResult result = driver.run();
    EXPECT_EQ(result.best, planted);
    EXPECT_LE(result.evaluations, 600u);
}

TEST(SearchDriverTest, DeterministicAcrossRuns) {
    const FaultSet planted = {2, 9, 33};
    SearchDriver a(small_spec(), planted_batch(planted));
    SearchDriver b(small_spec(), planted_batch(planted));
    const SearchResult ra = a.run();
    const SearchResult rb = b.run();
    EXPECT_EQ(ra.best, rb.best);
    EXPECT_EQ(ra.best_fitness, rb.best_fitness);
    EXPECT_EQ(ra.evaluations, rb.evaluations);
    EXPECT_EQ(ra.generations, rb.generations);
    EXPECT_EQ(ra.convergence, rb.convergence);
}

TEST(SearchDriverTest, TargetStopsEarly) {
    SearchSpec spec = small_spec();
    spec.target_drop = 10.0; // one planted hit suffices
    SearchDriver driver(spec, planted_batch({5, 23, 40}));
    const SearchResult result = driver.run();
    EXPECT_TRUE(result.reached_target);
    EXPECT_LT(result.evaluations, spec.budget);
}

TEST(SearchDriverTest, GenerationRecordRoundTrips) {
    GenerationRecord record;
    record.index = 17;
    record.stage = 2;
    record.stage_generation = 4;
    record.stall = 1;
    record.evaluations = 123;
    record.exhausted = true;
    record.best_fitness = 0.1 + 0.2; // not representable exactly in decimal
    record.best = {4, 9};
    record.stage_best_fitness = -3.25e-17;
    record.population = {{1, 2}, {3, 8}};
    record.fitness = {1.5, 2.25};

    const GenerationRecord back = GenerationRecord::from_json(record.to_json());
    EXPECT_EQ(back.index, record.index);
    EXPECT_EQ(back.stage, record.stage);
    EXPECT_EQ(back.stage_generation, record.stage_generation);
    EXPECT_EQ(back.stall, record.stall);
    EXPECT_EQ(back.evaluations, record.evaluations);
    EXPECT_EQ(back.exhausted, record.exhausted);
    EXPECT_EQ(back.best_fitness, record.best_fitness); // bit-exact
    EXPECT_EQ(back.best, record.best);
    EXPECT_EQ(back.stage_best_fitness, record.stage_best_fitness);
    EXPECT_EQ(back.population, record.population);
    EXPECT_EQ(back.fitness, record.fitness);
}

TEST(SearchDriverTest, RestoreContinuesBitExactly) {
    // The first search stalls out in its final stage. The second one's
    // budget runs out inside the stage-2 seeding, so its last record
    // holds fewer than `population` members and must restore too.
    SearchSpec cut = small_spec();
    cut.budget = 61;
    cut.stall_generations = 2;
    const std::pair<SearchSpec, FaultSet> searches[] = {{small_spec(), {2, 9, 33}},
                                                        {cut, {5, 23, 40}}};
    for (const auto& [spec, planted] : searches) {
        SearchResult expected;
        const std::vector<Json> records = honest_records(spec, planted, &expected);
        ASSERT_GT(records.size(), 2u);

        // Resume from every prefix of the journal, the complete one
        // included; the continuation must land on the identical result
        // and convergence curve.
        for (std::size_t n = 1; n <= records.size(); ++n) {
            const std::vector<Json> prefix(records.begin(),
                                           records.begin() + static_cast<std::ptrdiff_t>(n));
            const SearchResult result = restore_and_run(spec, planted, prefix);
            EXPECT_EQ(result.best, expected.best) << "prefix " << n;
            EXPECT_EQ(result.best_fitness, expected.best_fitness) << "prefix " << n;
            EXPECT_EQ(result.evaluations, expected.evaluations) << "prefix " << n;
            EXPECT_EQ(result.generations, expected.generations) << "prefix " << n;
            EXPECT_EQ(result.convergence, expected.convergence) << "prefix " << n;
        }
    }
    const std::vector<Json> records = honest_records(cut, {5, 23, 40});
    const GenerationRecord last = GenerationRecord::from_json(records.back());
    EXPECT_EQ(last.stage, 2u);
    EXPECT_EQ(last.evaluations, cut.budget);
    EXPECT_GT(last.population.size(), 0u);
    EXPECT_LT(last.population.size(), cut.population);
}

// Each tampered record reaches restore() alone, as the newest record of
// a journal; each must end in a typed error before run() draws anything.
TEST(SearchDriverTest, HostileRecordsEndInTypedErrors) {
    SearchSpec spec = small_spec();
    spec.budget = 200;
    const FaultSet planted = {5, 23, 40};
    const std::vector<Json> records = honest_records(spec, planted);
    const auto full_record_of_stage = [&](std::uint64_t stage) {
        for (const Json& record : records) {
            if (record.at("stage").as_uint() == stage &&
                record.at("population").size() == spec.population) {
                return GenerationRecord::from_json(record);
            }
        }
        return GenerationRecord{};
    };
    const GenerationRecord stage1 = full_record_of_stage(1);
    const GenerationRecord stage2 = full_record_of_stage(2);
    ASSERT_EQ(stage1.population.size(), spec.population);
    ASSERT_EQ(stage2.population.size(), spec.population);

    // The honest records restore and run.
    EXPECT_NO_THROW(restore_and_run(spec, planted, {stage1.to_json()}));
    EXPECT_NO_THROW(restore_and_run(spec, planted, {stage2.to_json()}));

    GenerationRecord cut = stage2;
    cut.population.resize(2);
    cut.fitness.resize(2);
    GenerationRecord far_best = stage2;
    far_best.best = {999999};
    GenerationRecord repeated = stage2;
    repeated.population[0] = {5, 5};
    GenerationRecord long_best = stage1;
    long_best.best = {1, 2};
    GenerationRecord nan_fitness = stage2;
    nan_fitness.fitness[3] = std::numeric_limits<double>::quiet_NaN();
    GenerationRecord infinite_best = stage2;
    infinite_best.best_fitness = std::numeric_limits<double>::infinity();

    const std::pair<const char*, Json> config_rows[] = {
        {"stage 3 with 1-index members", with(stage1.to_json(), "stage", 3)},
        {"stage above max_faults", with(stage1.to_json(), "stage", 7)},
        {"stage 0", with(stage1.to_json(), "stage", 0)},
        {"population cut to 2 members", cut.to_json()},
        {"index 10^12", with(stage1.to_json(), "index", std::uint64_t{1000000000000})},
        {"best outside the space", far_best.to_json()},
        {"evaluations above the budget",
         with(stage1.to_json(), "evaluations", std::uint64_t{1000000})},
        {"member {5, 5}", repeated.to_json()},
        {"best longer than its stage", long_best.to_json()},
        {"NaN member fitness", nan_fitness.to_json()},
        {"infinite best fitness", infinite_best.to_json()},
    };
    for (const auto& [what, record] : config_rows) {
        EXPECT_THROW(restore_and_run(spec, planted, {record}), ConfigError) << what;
    }
    EXPECT_THROW(restore_and_run(spec, planted, {with_wide_index(stage1.to_json(), 0)}),
                 FormatError)
        << "member index 2^32 + 5";
}

// Every record of an honest multi-stage run, mutated many ways and
// restored as the newest record after its honest prefix, either runs to
// completion within the budget or ends in FormatError / ConfigError.
TEST(SearchDriverTest, SeededRecordMutantsRunOrEndInTypedErrors) {
    SearchSpec spec = small_spec();
    spec.budget = 200;
    spec.stall_generations = 2;
    const FaultSet planted = {5, 23, 40};
    SearchResult honest;
    const std::vector<Json> records = honest_records(spec, planted, &honest);
    ASSERT_GT(honest.stages, 1u);

    Rng rng(0x5EA4C4);
    const auto pick = [&rng](std::size_t size) {
        return static_cast<std::size_t>(
            rng.uniform_int(0, static_cast<std::int64_t>(size) - 1));
    };
    const double nan = std::numeric_limits<double>::quiet_NaN();
    const double inf = std::numeric_limits<double>::infinity();
    std::size_t outcomes[3] = {0, 0, 0}; // ran, FormatError, ConfigError
    for (std::size_t k = 0; k < records.size(); ++k) {
        const Json& honest_json = records[k];
        const GenerationRecord record = GenerationRecord::from_json(honest_json);
        std::vector<Json> mutants;
        for (const char* key : {"index", "stage", "stage_generation", "stall", "evaluations"}) {
            for (std::uint64_t value :
                 {std::uint64_t{0}, std::uint64_t{1}, std::uint64_t{record.stage - 1},
                  std::uint64_t{record.stage + 1}, std::uint64_t{spec.max_faults + 1},
                  std::uint64_t{(1ULL << 32) + 5},
                  std::uint64_t{std::numeric_limits<std::int64_t>::max()}}) {
                mutants.push_back(with(honest_json, key, value));
            }
        }
        // One fault set of the record: a population member, or `best`.
        const std::size_t members = record.population.size();
        const auto mutate_set = [&](auto edit) {
            GenerationRecord mutant = record;
            const std::size_t m = pick(members + 1);
            edit(m == members ? mutant.best : mutant.population[m]);
            mutants.push_back(mutant.to_json());
        };
        mutate_set([](FaultSet& set) { if (!set.empty()) set.pop_back(); });
        mutate_set([&](FaultSet& set) {
            if (set.empty() || set.back() + 1 < spec.space) {
                set.push_back(set.empty() ? 0 : set.back() + 1);
            }
        });
        mutate_set([](FaultSet& set) { if (!set.empty()) set.back() = set.front(); });
        mutate_set([](FaultSet& set) { std::reverse(set.begin(), set.end()); });
        mutate_set([&](FaultSet& set) {
            if (!set.empty()) {
                set[pick(set.size())] = static_cast<std::uint32_t>(spec.space + pick(1000));
            }
        });
        mutants.push_back(with_wide_index(honest_json, pick(members + 1)));
        if (members > 0) {
            GenerationRecord doubled = record;
            doubled.population.push_back(record.population[pick(members)]);
            doubled.fitness.push_back(record.fitness.front());
            mutants.push_back(doubled.to_json());
        }
        for (std::size_t keep = 0; keep <= 3; ++keep) {
            GenerationRecord cut = record;
            cut.population.resize(std::min(keep, members));
            cut.fitness.resize(cut.population.size());
            mutants.push_back(cut.to_json());
        }
        for (double bad : {nan, inf, -inf}) {
            GenerationRecord mutant = record;
            const std::size_t field = pick(members + 2);
            double& target = field == members     ? mutant.best_fitness
                             : field == members + 1 ? mutant.stage_best_fitness
                                                    : mutant.fitness[field];
            target = bad;
            mutants.push_back(mutant.to_json());
        }

        for (const Json& mutant : mutants) {
            std::vector<Json> journal(records.begin(),
                                      records.begin() + static_cast<std::ptrdiff_t>(k));
            journal.push_back(mutant);
            try {
                const SearchResult result = restore_and_run(spec, planted, journal);
                EXPECT_LE(result.evaluations, spec.budget) << mutant.dump();
                EXPECT_EQ(result.convergence.size(), result.generations) << mutant.dump();
                EXPECT_TRUE(std::isfinite(result.best_fitness)) << mutant.dump();
                EXPECT_LE(result.best.size(), spec.max_faults) << mutant.dump();
                ++outcomes[0];
            } catch (const FormatError&) {
                ++outcomes[1];
            } catch (const ConfigError&) {
                ++outcomes[2];
            } catch (const std::exception& e) {
                ADD_FAILURE() << "untyped error '" << e.what() << "' on " << mutant.dump();
            }
        }
    }
    // The mutants reach every outcome: the check is not vacuous.
    EXPECT_GT(outcomes[0], 0u);
    EXPECT_GT(outcomes[1], 0u);
    EXPECT_GT(outcomes[2], 0u);
}

// ------------------------------------------------------------ sim wiring

namespace {

/// Small victim + dataset for orchestration tests (no training, no
/// electrical co-simulation — weight faults need neither).
struct SmallRig {
    quant::QNetwork network = deepstrike::testing::random_qnetwork(77);
    data::Dataset test = data::make_datasets(7, 1, 24).test;
};

sim::WeightFaultSearchConfig small_config() {
    sim::WeightFaultSearchConfig config;
    config.spec.max_faults = 2;
    config.spec.population = 6;
    config.spec.budget = 60;
    config.spec.seed = 3;
    config.spec.stall_generations = 2;
    config.eval_images = 12;
    return config;
}

} // namespace

TEST(WeightFaultSearch, ReportIsByteIdenticalAcrossThreadCounts) {
    SmallRig rig;
    sim::WeightFaultSearchConfig config = small_config();
    config.threads = 1;
    const sim::SearchReport r1 =
        sim::run_weight_fault_search(rig.network, rig.test, config);
    config.threads = 8;
    const sim::SearchReport r8 =
        sim::run_weight_fault_search(rig.network, rig.test, config);
    EXPECT_EQ(r1.to_json().dump(2), r8.to_json().dump(2));
    EXPECT_EQ(r1.best, r8.best);
}

// Fitness resumes each image from the golden store past the unfaulted
// layers; a plain full forward pass of every eval image on the clean and
// on the champion-faulted network must reproduce the report's clean
// accuracy and best drop bit for bit.
TEST(WeightFaultSearch, GoldenCacheElisionIsByteExact) {
    SmallRig rig;
    sim::WeightFaultSearchConfig config = small_config();
    config.fault_kind = accel::WeightFaultKind::BitFlip;
    const sim::SearchReport report =
        sim::run_weight_fault_search(rig.network, rig.test, config);
    ASSERT_GT(report.best_drop, 0.0); // the replay is not vacuous

    const quant::QNetwork faulted = accel::apply_weight_faults(
        rig.network,
        accel::uniform_weight_faults(report.best, config.fault_kind, config.fault_bit),
        config.transfer);
    std::size_t clean = 0;
    std::size_t correct = 0;
    for (std::size_t i = 0; i < report.eval_images; ++i) {
        const QTensor img = quant::quantize_image(rig.test.images[i]);
        clean += argmax(rig.network.forward(img)) == rig.test.labels[i] ? 1 : 0;
        correct += argmax(faulted.forward(img)) == rig.test.labels[i] ? 1 : 0;
    }
    const double n = static_cast<double>(report.eval_images);
    EXPECT_EQ(sim::double_bits_hex(100.0 * static_cast<double>(clean) / n),
              sim::double_bits_hex(report.clean_accuracy));
    EXPECT_EQ(sim::double_bits_hex(
                  100.0 * (static_cast<double>(clean) - static_cast<double>(correct)) / n),
              sim::double_bits_hex(report.best_drop));
}

// The Duplicate twin: a duplicated beat rewrites all of its 64 words, and
// on the LeNet-5 stream the beats holding CONV2's first word (150), FC1's
// (2550) and FC2's (125430) begin in the layer before. The search's
// elided score must still equal a full forward of the faulted network.
TEST(WeightFaultSearch, GoldenCacheElisionIsByteExactForStraddlingBeats) {
    SmallRig rig;
    sim::WeightFaultSearchConfig config = small_config();
    config.fault_kind = accel::WeightFaultKind::Duplicate;
    // Label each image with the clean prediction, so the score counts the
    // images whose prediction survives and no changed prediction can hide.
    data::Dataset test = rig.test;
    for (std::size_t i = 0; i < test.size(); ++i) {
        test.labels[i] = argmax(rig.network.forward(quant::quantize_image(test.images[i])));
    }
    const std::shared_ptr<const sim::GoldenStore> golden =
        sim::build_golden_store(rig.network, test, test.size());
    const std::vector<FaultSet> candidates = {
        {150}, {191}, {2550}, {2559}, {125430}, {125439}, {149, 2550}, {190, 125435}};
    std::size_t changed = 0;
    for (const FaultSet& candidate : candidates) {
        const quant::QNetwork faulted = accel::apply_weight_faults(
            rig.network, accel::uniform_weight_faults(candidate, config.fault_kind),
            config.transfer);
        std::size_t correct = 0;
        for (std::size_t i = 0; i < test.size(); ++i) {
            const QTensor img = quant::quantize_image(test.images[i]);
            correct += argmax(faulted.forward(img)) == test.labels[i] ? 1 : 0;
        }
        EXPECT_EQ(sim::weight_fault_correct(rig.network, test, *golden, candidate, config),
                  correct)
            << "candidate starting at index " << candidate.front();
        changed += test.size() - correct;
    }
    EXPECT_GT(changed, 0u); // the comparison is not vacuous
}

// Fitness runs as one task per 16-image block of a candidate, each on a
// pooled working copy patched in place, and the blocks' correct counts
// add up per candidate. At 50 images (a partial last block) and 64, for
// both fault models, every fitness the search journaled and the
// champion's must equal the drop of a full forward of an
// apply_weight_faults copy over every image, and the manifest holds
// exactly one point per fresh candidate.
TEST(WeightFaultSearch, BlockedFitnessMatchesWholeCandidate) {
    const quant::QNetwork network = deepstrike::testing::random_qnetwork(78);
    const data::Dataset test = data::make_datasets(8, 1, 64).test;
    const std::string journal = temp_path("blocked.jsonl");
    for (const std::size_t n_images : {std::size_t{50}, std::size_t{64}}) {
        std::vector<QTensor> images;
        std::size_t clean = 0;
        for (std::size_t i = 0; i < n_images; ++i) {
            images.push_back(quant::quantize_image(test.images[i]));
            clean += argmax(network.forward(images.back())) == test.labels[i] ? 1 : 0;
        }
        for (const accel::WeightFaultKind kind :
             {accel::WeightFaultKind::Duplicate, accel::WeightFaultKind::BitFlip}) {
            sim::WeightFaultSearchConfig config = small_config();
            config.fault_kind = kind;
            config.eval_images = n_images;
            config.spec.space = quant::WeightStreamView(network).size();
            config.threads = 4;
            config.journal_path = journal;
            sim::RunManifest manifest;
            const sim::SearchReport report =
                sim::run_weight_fault_search(network, test, config, &manifest);
            const std::string what = std::string(sim::weight_attack_name(kind)) + " at " +
                                     std::to_string(n_images) + " images";

            const auto whole_drop = [&](const FaultSet& candidate) {
                const quant::QNetwork faulted = accel::apply_weight_faults(
                    network,
                    accel::uniform_weight_faults(candidate, config.fault_kind,
                                                 static_cast<std::uint8_t>(config.fault_bit)),
                    config.transfer);
                std::size_t correct = 0;
                for (std::size_t i = 0; i < n_images; ++i) {
                    correct += argmax(faulted.forward(images[i])) == test.labels[i] ? 1 : 0;
                }
                return 100.0 * (static_cast<double>(clean) - static_cast<double>(correct)) /
                       static_cast<double>(n_images);
            };

            // One point per fresh candidate, none twice.
            EXPECT_EQ(manifest.points.size(), report.evaluations - report.fitness_cache_hits)
                << what;
            std::set<std::string> labels;
            for (const sim::SweepPointStats& point : manifest.points) {
                EXPECT_TRUE(point.ok) << what;
                EXPECT_EQ(point.label.rfind("candidate ", 0), 0u) << what;
                labels.insert(point.label);
            }
            EXPECT_EQ(labels.size(), manifest.points.size()) << what;

            ASSERT_FALSE(report.best.empty()) << what;
            EXPECT_EQ(sim::double_bits_hex(whole_drop(report.best)),
                      sim::double_bits_hex(report.best_drop))
                << what;
            const sim::JournalRecovery recovery = sim::CheckpointJournal::recover(
                journal, sim::weight_fault_search_fingerprint(network, test, config),
                "weight-fault-search");
            std::size_t checked = 0;
            for (const sim::JournalRecord& rec : recovery.records) {
                const GenerationRecord record = GenerationRecord::from_json(rec.payload);
                ASSERT_EQ(record.population.size(), record.fitness.size()) << what;
                for (std::size_t i = 0; i < record.population.size(); ++i) {
                    EXPECT_EQ(sim::double_bits_hex(whole_drop(record.population[i])),
                              sim::double_bits_hex(record.fitness[i]))
                        << what << " generation " << record.index << " member " << i;
                    ++checked;
                }
            }
            EXPECT_GT(checked, 0u) << what;
            std::remove(journal.c_str());
        }
    }
}

namespace {

/// RAII restore of the process-wide metrics switch and SIMD mode a test
/// changes.
struct KnobsGuard {
    bool metrics_on = metrics::enabled();
    simd::Mode mode = simd::mode();
    ~KnobsGuard() {
        metrics::set_enabled(metrics_on);
        simd::set_mode(mode);
    }
};

std::uint64_t counter_total(const char* name) { return metrics::counter(name).total(); }

/// An untrained zoo victim (its own architecture, quantization format and
/// stream layout).
quant::QNetwork untrained_zoo_network(nn::Architecture arch) {
    Rng rng(2024);
    nn::Sequential model = nn::build_architecture(arch, rng);
    return quant::quantize_sequential(model, nn::architecture_info(arch).input_shape, {},
                                      quant::quant_format_for(arch));
}

/// `images` test images labelled with `network`'s clean predictions, so
/// every changed prediction changes a correct count.
data::Dataset self_labelled(const quant::QNetwork& network, std::size_t images) {
    data::Dataset test = data::make_datasets(31, 1, images).test;
    for (std::size_t i = 0; i < test.size(); ++i) {
        test.labels[i] = argmax(network.forward(quant::quantize_image(test.images[i])));
    }
    return test;
}

class PrefixFitnessOracle : public ::testing::TestWithParam<nn::Architecture> {};

} // namespace

// Every member fitness that journaled P-DES searches record must equal the
// drop weight_fault_correct computes, which runs QNetwork::forward_from on
// an apply_weight_faults copy. The searches run on every zoo victim, for
// both fault models, on both SIMD twins and at 1, 4 and 8 threads, and
// their reports must be byte-identical; so must the logical counts.
TEST_P(PrefixFitnessOracle, JournaledMembersMatchAFullForward) {
    KnobsGuard guard;
    metrics::set_enabled(true);
    const nn::Architecture arch = GetParam();
    const quant::QNetwork network = untrained_zoo_network(arch);
    const data::Dataset test = self_labelled(network, 40);
    const std::shared_ptr<const sim::GoldenStore> golden =
        sim::build_golden_store(network, test, 24);
    const std::string journal = temp_path(std::string("oracle_") +
                                          nn::architecture_name(arch) + ".jsonl");
    for (const accel::WeightFaultKind kind :
         {accel::WeightFaultKind::Duplicate, accel::WeightFaultKind::BitFlip}) {
        sim::WeightFaultSearchConfig config;
        config.fault_kind = kind;
        config.eval_images = 24; // a partial last block
        config.spec.max_faults = 3;
        config.spec.population = 6;
        config.spec.budget = 80;
        config.spec.seed = 5;
        config.spec.stall_generations = 2;
        config.spec.space = quant::WeightStreamView(network).size();
        config.journal_path = journal;
        const std::string what =
            std::string(nn::architecture_name(arch)) + " " + sim::weight_attack_name(kind);

        std::string reference;
        std::vector<std::uint64_t> reference_counts;
        std::uint64_t stored = 0;
        std::map<FaultSet, std::string> oracle; // drop bits per member
        for (const simd::Mode mode : {simd::Mode::Auto, simd::Mode::Scalar}) {
            simd::set_mode(mode);
            for (const std::size_t threads : {std::size_t{1}, std::size_t{4}, std::size_t{8}}) {
                config.threads = threads;
                metrics::reset();
                const sim::SearchReport report =
                    sim::run_weight_fault_search(network, test, config);
                const std::vector<std::uint64_t> counts = {
                    counter_total("quant.gemm.macs"),
                    counter_total("search.prefix_store.fills"),
                    counter_total("search.prefix_store.evictions"),
                    counter_total("search.prefix_store.resumes")};
                const std::string run = what + " " + simd::mode_name(mode) + " at " +
                                        std::to_string(threads) + " threads";
                if (reference.empty()) {
                    reference = report.to_json().dump();
                    reference_counts = counts;
                    stored += counts[1];
                } else {
                    EXPECT_EQ(report.to_json().dump(), reference) << run;
                    EXPECT_EQ(counts, reference_counts) << run;
                }

                const sim::JournalRecovery recovery = sim::CheckpointJournal::recover(
                    journal, sim::weight_fault_search_fingerprint(network, test, config),
                    "weight-fault-search");
                ASSERT_GT(recovery.records.size(), 3u) << run;
                for (const sim::JournalRecord& rec : recovery.records) {
                    const GenerationRecord record = GenerationRecord::from_json(rec.payload);
                    for (std::size_t m = 0; m < record.population.size(); ++m) {
                        const FaultSet& member = record.population[m];
                        auto it = oracle.find(member);
                        if (it == oracle.end()) {
                            const std::size_t correct = sim::weight_fault_correct(
                                network, test, *golden, member, config);
                            const double drop = 100.0 *
                                                (static_cast<double>(golden->size()) -
                                                 static_cast<double>(correct)) /
                                                static_cast<double>(golden->size());
                            it = oracle.emplace(member, sim::double_bits_hex(drop)).first;
                        }
                        EXPECT_EQ(it->second, sim::double_bits_hex(record.fitness[m]))
                            << run << " generation " << record.index << " member " << m;
                    }
                }
                std::remove(journal.c_str());
            }
        }
        // On the conv victims, P-DES carries a stage champion's conv faults
        // into every member, and the search stores those prefixes. The
        // fully connected victims hold most of their stream in the first
        // layer, where prefixes rarely repeat; the crafted batches below
        // store prefixes on every victim.
        if (arch == nn::Architecture::MiniCnn ||
            (arch == nn::Architecture::LeNet5 && kind == accel::WeightFaultKind::Duplicate)) {
            EXPECT_GT(stored, 0u) << what << ": no prefix was stored";
        }
    }
}

// Hand-built batches fed straight to the evaluator reach the cases a short
// search may miss: duplicated beats that straddle two layers (beats of 48
// words straddle every layer boundary of every zoo stream), duplications
// in beat 0, more shared new prefixes in one batch than a store keeps,
// and prefixes stored, evicted and then seen again. Every count must equal
// weight_fault_correct's, for both fault models on both SIMD twins.
TEST_P(PrefixFitnessOracle, CraftedBatchesMatchAFullForward) {
    KnobsGuard guard;
    metrics::set_enabled(true);
    const nn::Architecture arch = GetParam();
    const quant::QNetwork network = untrained_zoo_network(arch);
    const data::Dataset test = self_labelled(network, 20);
    const std::shared_ptr<const sim::GoldenStore> golden =
        sim::build_golden_store(network, test, test.size());
    const quant::WeightStreamView view(network);
    const std::vector<quant::WeightStreamView::LayerSpan>& spans = view.spans();
    ASSERT_GE(spans.size(), 3u);
    constexpr std::uint32_t kBeat = 48;
    const auto word = [&](std::size_t layer_span, std::size_t element) {
        return static_cast<std::uint32_t>(spans[layer_span].offset + element);
    };
    const std::uint32_t last = static_cast<std::uint32_t>(view.size() - 1);

    // Batch 0: beat 0, and every layer boundary's straddling beat named
    // from either side, alone and with a fault past it.
    std::vector<std::vector<FaultSet>> batches(1);
    batches[0] = {{0}, {5, kBeat - 1}, {0, last}};
    for (std::size_t k = 1; k < spans.size(); ++k) {
        const std::uint32_t boundary = word(k, 0);
        ASSERT_NE(boundary % kBeat, 0u) << "layer " << k << " starts on a beat edge";
        batches[0].push_back({boundary - 1});
        batches[0].push_back({boundary});
        batches[0].push_back({boundary - 1, last});
        batches[0].push_back({boundary, last});
    }
    // Batches 1 and 2: kPrefixStoreEntries + 2 prefixes each, every one
    // shared by two candidates, in the second weighted layer; batch 2's
    // evict batch 1's, and batch 3 names batch 1's again.
    const auto shared_prefixes = [&](std::size_t first) {
        std::vector<FaultSet> batch;
        for (std::size_t j = first; j < first + sim::kPrefixStoreEntries + 2; ++j) {
            const std::uint32_t prefix = word(1, kBeat * (j + 1) + 3);
            batch.push_back({prefix, last - 1});
            batch.push_back({prefix, last});
        }
        return batch;
    };
    batches.push_back(shared_prefixes(0));
    batches.push_back(shared_prefixes(sim::kPrefixStoreEntries + 2));
    batches.push_back(shared_prefixes(0));
    batches.push_back(batches[0]);

    for (const accel::WeightFaultKind kind :
         {accel::WeightFaultKind::Duplicate, accel::WeightFaultKind::BitFlip}) {
        sim::WeightFaultSearchConfig config;
        config.fault_kind = kind;
        config.transfer.beat_words = kBeat;
        config.eval_images = test.size();
        std::vector<std::vector<std::size_t>> want;
        for (const std::vector<FaultSet>& batch : batches) {
            std::vector<std::size_t> counts;
            for (const FaultSet& candidate : batch) {
                counts.push_back(
                    sim::weight_fault_correct(network, test, *golden, candidate, config));
            }
            want.push_back(counts);
        }
        for (const simd::Mode mode : {simd::Mode::Auto, simd::Mode::Scalar}) {
            simd::set_mode(mode);
            const std::string what = std::string(nn::architecture_name(arch)) + " " +
                                     sim::weight_attack_name(kind) + " " +
                                     simd::mode_name(mode);
            metrics::reset();
            sim::SweepRunner runner(sim::RunnerConfig{4});
            sim::WeightFaultFitness fitness(network, test, config, runner);
            EXPECT_EQ(fitness.clean_correct(), test.size()) << what;
            std::size_t changed = 0;
            for (std::size_t b = 0; b < batches.size(); ++b) {
                const std::uint64_t fills = counter_total("search.prefix_store.fills");
                const std::vector<std::size_t> got = fitness.correct(batches[b]);
                EXPECT_EQ(got, want[b]) << what << " batch " << b;
                for (std::size_t c : got) changed += test.size() - c;
                if (b == 1 || b == 2) {
                    // One entry per store for the shared prefixes that fit:
                    // the second weighted layer's prefixes reach the stores
                    // of every later weighted layer.
                    EXPECT_EQ(counter_total("search.prefix_store.fills") - fills,
                              sim::kPrefixStoreEntries * (spans.size() - 2))
                        << what << " batch " << b;
                }
            }
            EXPECT_GT(changed, 0u) << what; // the comparison is not vacuous
            EXPECT_GT(counter_total("search.prefix_store.evictions"), 0u) << what;
            EXPECT_GT(counter_total("search.prefix_store.resumes"), 0u) << what;
        }
    }
}

INSTANTIATE_TEST_SUITE_P(AllZooVictims, PrefixFitnessOracle,
                         ::testing::Values(nn::Architecture::LeNet5,
                                           nn::Architecture::MiniCnn,
                                           nn::Architecture::Mlp,
                                           nn::Architecture::Bnn),
                         [](const ::testing::TestParamInfo<nn::Architecture>& info) {
                             return std::string(nn::architecture_name(info.param));
                         });

// A Deep-Dup duplication in beat 0 has no predecessor beat to re-latch, so
// a candidate whose faults all sit there rewrites nothing: it scores the
// clean accuracy and runs no GEMM.
TEST(WeightFaultSearch, BeatZeroDuplicationsCostNothingAndScoreClean) {
    KnobsGuard guard;
    metrics::set_enabled(true);
    SmallRig rig;
    sim::WeightFaultSearchConfig config = small_config();
    sim::SweepRunner runner(sim::RunnerConfig{4});
    sim::WeightFaultFitness fitness(rig.network, rig.test, config, runner);
    const std::uint64_t macs = counter_total("quant.gemm.macs");
    const std::vector<std::size_t> got = fitness.correct({{0}, {3, 63}, {0, 1, 2}});
    EXPECT_EQ(counter_total("quant.gemm.macs"), macs);
    for (std::size_t correct : got) EXPECT_EQ(correct, fitness.clean_correct());
    // A beat-1 duplication (inside CONV1) does run.
    fitness.correct({{64}});
    EXPECT_GT(counter_total("quant.gemm.macs"), macs);
}

TEST(WeightFaultSearch, DeepLaserOutDamagesItsBudgetOnARandomNet) {
    // Sign flips move Q3.4 weights by 8.0 — even an untrained network's
    // outputs must change; the report plumbing must carry the drop.
    SmallRig rig;
    sim::WeightFaultSearchConfig config = small_config();
    config.fault_kind = accel::WeightFaultKind::BitFlip;
    const sim::SearchReport report =
        sim::run_weight_fault_search(rig.network, rig.test, config);
    EXPECT_EQ(report.attack, "deeplaser");
    EXPECT_EQ(report.algorithm, "des");
    EXPECT_LE(report.best.size(), 2u);
    EXPECT_GE(report.best_drop, 0.0);
    // The driver may exhaust its stages before the budget (stall on the
    // final stage) but must never overrun it.
    EXPECT_GT(report.evaluations, 0u);
    EXPECT_LE(report.evaluations, 60u);
}

TEST(WeightFaultSearch, JournalTruncateAndResumeReproducesTheReport) {
    SmallRig rig;
    const std::string journal = temp_path("resume.jsonl");
    const std::string journal_cut = temp_path("resume_cut.jsonl");

    sim::WeightFaultSearchConfig config = small_config();
    config.journal_path = journal;
    const sim::SearchReport reference =
        sim::run_weight_fault_search(rig.network, rig.test, config);

    // Keep the header plus half the generation records.
    std::ifstream in(journal);
    ASSERT_TRUE(in);
    std::vector<std::string> lines;
    for (std::string line; std::getline(in, line);) lines.push_back(line);
    ASSERT_GT(lines.size(), 3u);
    {
        std::ofstream out(journal_cut, std::ios::trunc);
        for (std::size_t i = 0; i < 1 + (lines.size() - 1) / 2; ++i) {
            out << lines[i] << "\n";
        }
    }

    sim::WeightFaultSearchConfig resumed = small_config();
    resumed.journal_path = journal_cut;
    resumed.resume = true;
    const sim::SearchReport report =
        sim::run_weight_fault_search(rig.network, rig.test, resumed);
    EXPECT_EQ(report.to_json().dump(2), reference.to_json().dump(2));

    std::remove(journal.c_str());
    std::remove(journal_cut.c_str());
}

TEST(WeightFaultSearch, ResumeRejectsAForeignFingerprint) {
    SmallRig rig;
    const std::string journal = temp_path("foreign.jsonl");
    sim::WeightFaultSearchConfig config = small_config();
    config.journal_path = journal;
    sim::run_weight_fault_search(rig.network, rig.test, config);

    // Same journal, different search knobs -> different fingerprint.
    sim::WeightFaultSearchConfig other = small_config();
    other.spec.seed = 4;
    other.journal_path = journal;
    other.resume = true;
    EXPECT_THROW(sim::run_weight_fault_search(rig.network, rig.test, other),
                 ConfigError);
    std::remove(journal.c_str());
}

// A journal under the search's real fingerprint whose second record was
// tampered with: resume must refuse it with ConfigError, not run on it.
TEST(WeightFaultSearch, ResumeRejectsATamperedRecord) {
    SmallRig rig;
    const std::string journal = temp_path("tampered.jsonl");
    sim::WeightFaultSearchConfig config = small_config();
    config.spec.space = quant::WeightStreamView(rig.network).size();
    config.journal_path = journal;
    sim::run_weight_fault_search(rig.network, rig.test, config);

    const std::uint64_t fingerprint =
        sim::weight_fault_search_fingerprint(rig.network, rig.test, config);
    const sim::JournalRecovery honest =
        sim::CheckpointJournal::recover(journal, fingerprint, "weight-fault-search");
    ASSERT_GE(honest.records.size(), 2u);
    {
        const auto rewritten =
            sim::CheckpointJournal::create(journal, fingerprint, "weight-fault-search");
        for (const sim::JournalRecord& record : honest.records) {
            Json payload = record.payload;
            if (record.index == 1) payload.set("stage", std::uint64_t{0});
            rewritten->append(record.index, std::move(payload));
        }
        rewritten->flush();
    }

    config.resume = true;
    try {
        sim::run_weight_fault_search(rig.network, rig.test, config);
        ADD_FAILURE() << "expected ConfigError";
    } catch (const ConfigError& e) {
        EXPECT_NE(std::string(e.what()).find("record 1"), std::string::npos) << e.what();
    }
    std::remove(journal.c_str());
}

TEST(WeightFaultSearch, UnrunnableConfigsEndInConfigError) {
    SmallRig rig;
    const std::pair<const char*, void (*)(sim::WeightFaultSearchConfig&)> rows[] = {
        {"zero eval images", [](sim::WeightFaultSearchConfig& c) { c.eval_images = 0; }},
        {"zero beat words",
         [](sim::WeightFaultSearchConfig& c) { c.transfer.beat_words = 0; }},
        {"bit 8", [](sim::WeightFaultSearchConfig& c) { c.fault_bit = 8; }},
        {"bit 263 (7 mod 256)", [](sim::WeightFaultSearchConfig& c) { c.fault_bit = 263; }},
    };
    for (const auto& [what, edit] : rows) {
        sim::WeightFaultSearchConfig config = small_config();
        config.fault_kind = accel::WeightFaultKind::BitFlip;
        edit(config);
        EXPECT_THROW(sim::run_weight_fault_search(rig.network, rig.test, config),
                     ConfigError)
            << what;
    }
}

TEST(WeightFaultSearch, AttackNamesRoundTrip) {
    EXPECT_EQ(sim::parse_weight_attack("deep-dup"),
              accel::WeightFaultKind::Duplicate);
    EXPECT_EQ(sim::parse_weight_attack("deeplaser"),
              accel::WeightFaultKind::BitFlip);
    EXPECT_THROW(sim::parse_weight_attack("rowhammer"), ConfigError);
    EXPECT_STREQ(sim::weight_attack_name(accel::WeightFaultKind::Duplicate),
                 "deep-dup");
}
