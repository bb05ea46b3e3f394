// attack::SearchDriver (P-DES + baselines) and the sim-side weight-fault
// search orchestration: determinism across threads, golden-cache
// equivalence, journal resume, manifest strictness.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>

#include "attack/search.hpp"
#include "data/synth_mnist.hpp"
#include "sim/campaign.hpp"
#include "sim/search.hpp"
#include "test_helpers.hpp"
#include "util/error.hpp"

using namespace deepstrike;
using attack::FaultSet;
using attack::GenerationRecord;
using attack::SearchAlgorithm;
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

SearchSpec small_spec(SearchAlgorithm algorithm) {
    SearchSpec spec;
    spec.algorithm = algorithm;
    spec.space = 64;
    spec.max_faults = 3;
    spec.population = 8;
    spec.budget = 600;
    spec.seed = 7;
    return spec;
}

} // namespace

TEST(SearchSpec, ValidateRejectsNonsense) {
    SearchSpec spec = small_spec(SearchAlgorithm::Des);
    EXPECT_NO_THROW(spec.validate());
    spec.space = 0;
    EXPECT_THROW(spec.validate(), ConfigError);
    spec = small_spec(SearchAlgorithm::Des);
    spec.max_faults = 100;
    EXPECT_THROW(spec.validate(), ConfigError); // exceeds space 64
    spec = small_spec(SearchAlgorithm::Des);
    spec.population = 3;
    EXPECT_THROW(spec.validate(), ConfigError); // DES needs >= 4
    spec = small_spec(SearchAlgorithm::Des);
    spec.budget = 0;
    EXPECT_THROW(spec.validate(), ConfigError);
    spec = small_spec(SearchAlgorithm::Des);
    spec.crossover = 1.5;
    EXPECT_THROW(spec.validate(), ConfigError);
}

TEST(SearchDriverTest, RandomFaultSetIsSortedDistinct) {
    for (std::uint64_t seed = 0; seed < 20; ++seed) {
        const FaultSet set = attack::random_fault_set(5, 16, seed);
        ASSERT_EQ(set.size(), 5u);
        for (std::size_t i = 1; i < set.size(); ++i) {
            EXPECT_LT(set[i - 1], set[i]);
        }
        EXPECT_LT(set.back(), 16u);
    }
}

TEST(SearchDriverTest, AlgorithmNamesRoundTrip) {
    EXPECT_EQ(attack::parse_search_algorithm("des"), SearchAlgorithm::Des);
    EXPECT_EQ(attack::parse_search_algorithm("greedy"), SearchAlgorithm::Greedy);
    EXPECT_EQ(attack::parse_search_algorithm("random"), SearchAlgorithm::Random);
    EXPECT_THROW(attack::parse_search_algorithm("anneal"), ConfigError);
    EXPECT_STREQ(attack::search_algorithm_name(SearchAlgorithm::Des), "des");
}

TEST(SearchDriverTest, FindsPlantedOptimum) {
    const FaultSet planted = {5, 23, 40};
    for (SearchAlgorithm algorithm :
         {SearchAlgorithm::Des, SearchAlgorithm::Greedy}) {
        SearchDriver driver(small_spec(algorithm), planted_batch(planted));
        const SearchResult result = driver.run();
        EXPECT_EQ(result.best, planted)
            << attack::search_algorithm_name(algorithm);
        EXPECT_LE(result.evaluations, 600u);
    }
}

TEST(SearchDriverTest, DeterministicAcrossRuns) {
    const FaultSet planted = {2, 9, 33};
    for (SearchAlgorithm algorithm :
         {SearchAlgorithm::Des, SearchAlgorithm::Greedy, SearchAlgorithm::Random}) {
        SearchDriver a(small_spec(algorithm), planted_batch(planted));
        SearchDriver b(small_spec(algorithm), planted_batch(planted));
        const SearchResult ra = a.run();
        const SearchResult rb = b.run();
        EXPECT_EQ(ra.best, rb.best);
        EXPECT_EQ(ra.best_fitness, rb.best_fitness);
        EXPECT_EQ(ra.evaluations, rb.evaluations);
        EXPECT_EQ(ra.generations, rb.generations);
        EXPECT_EQ(ra.convergence, rb.convergence);
    }
}

TEST(SearchDriverTest, TargetStopsEarly) {
    SearchSpec spec = small_spec(SearchAlgorithm::Des);
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
    const FaultSet planted = {2, 9, 33};
    for (SearchAlgorithm algorithm :
         {SearchAlgorithm::Des, SearchAlgorithm::Greedy, SearchAlgorithm::Random}) {
        // Reference: uninterrupted run, recording every generation.
        std::vector<Json> records;
        SearchDriver reference(small_spec(algorithm), planted_batch(planted));
        reference.set_observer([&](const GenerationRecord& record) {
            records.push_back(record.to_json());
        });
        const SearchResult expected = reference.run();
        ASSERT_GT(records.size(), 2u);

        // Resume from the first half of the journal; the continuation must
        // land on the identical result and convergence curve.
        const std::vector<Json> half(records.begin(),
                                     records.begin() + records.size() / 2);
        SearchDriver resumed(small_spec(algorithm), planted_batch(planted));
        resumed.restore(half);
        const SearchResult result = resumed.run();
        EXPECT_EQ(result.best, expected.best);
        EXPECT_EQ(result.best_fitness, expected.best_fitness);
        EXPECT_EQ(result.evaluations, expected.evaluations);
        EXPECT_EQ(result.generations, expected.generations);
        EXPECT_EQ(result.convergence, expected.convergence);
    }
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

TEST(WeightFaultSearch, GoldenCacheElisionIsByteExact) {
    SmallRig rig;
    sim::WeightFaultSearchConfig config = small_config();
    const sim::SearchReport with =
        sim::run_weight_fault_search(rig.network, rig.test, config);
    config.golden_cache = false;
    const sim::SearchReport without =
        sim::run_weight_fault_search(rig.network, rig.test, config);
    EXPECT_EQ(with.to_json().dump(2), without.to_json().dump(2));
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

TEST(WeightFaultSearch, AttackNamesRoundTrip) {
    EXPECT_EQ(sim::parse_weight_attack("deep-dup"),
              accel::WeightFaultKind::Duplicate);
    EXPECT_EQ(sim::parse_weight_attack("deeplaser"),
              accel::WeightFaultKind::BitFlip);
    EXPECT_THROW(sim::parse_weight_attack("rowhammer"), ConfigError);
    EXPECT_STREQ(sim::weight_attack_name(accel::WeightFaultKind::Duplicate),
                 "deep-dup");
}

// -------------------------------------------------------- manifest keys

TEST(ManifestKeys, SearchManifestRejectsUnknownKeys) {
    Json ok = Json::object();
    ok.set("attack", "deeplaser");
    ok.set("budget", std::uint64_t{50});
    const sim::WeightFaultSearchConfig config =
        sim::search_config_from_manifest(ok);
    EXPECT_EQ(config.fault_kind, accel::WeightFaultKind::BitFlip);
    EXPECT_EQ(config.spec.budget, 50u);

    Json typo = Json::object();
    typo.set("attack", "deeplaser");
    typo.set("buget", std::uint64_t{50}); // the classic
    EXPECT_THROW(sim::search_config_from_manifest(typo), FormatError);

    EXPECT_THROW(sim::search_config_from_manifest(Json("not-an-object")),
                 FormatError);
}

TEST(ManifestKeys, SharedHelperNamesTheOffender) {
    Json manifest = Json::object();
    manifest.set("good", 1);
    manifest.set("bad", 2);
    try {
        sim::require_known_manifest_keys(manifest, {"good"}, "unit manifest");
        FAIL() << "expected FormatError";
    } catch (const FormatError& e) {
        EXPECT_NE(std::string(e.what()).find("unit manifest"), std::string::npos);
        EXPECT_NE(std::string(e.what()).find("'bad'"), std::string::npos);
    }
}
