#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <limits>
#include <memory>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "accel/arch_profiles.hpp"
#include "nn/zoo.hpp"
#include "quant/qnetwork.hpp"
#include "sim/campaign.hpp"
#include "sim/golden_cache.hpp"
#include "sim/journal.hpp"
#include "test_helpers.hpp"
#include "util/checksum.hpp"
#include "util/error.hpp"
#include "util/metrics.hpp"
#include "util/rng.hpp"

namespace deepstrike::sim {
namespace {

CampaignConfig small_config() {
    CampaignConfig cfg;
    cfg.strike_grid = {300, 900};
    cfg.eval_images = 25;
    cfg.blind_offsets = 3;
    return cfg;
}

TEST(Campaign, ProducesPointsForEverySegmentAndBlind) {
    Platform platform(PlatformConfig{}, deepstrike::testing::random_qnetwork(61));
    auto ds = data::make_datasets(9, 1, 30);

    const CampaignReport report = run_campaign(platform, ds.test, small_config());
    EXPECT_TRUE(report.detector_fired);
    ASSERT_EQ(report.profile.segments.size(), 5u);

    std::size_t guided = 0;
    std::size_t blind = 0;
    for (const auto& p : report.points) {
        EXPECT_GT(p.strikes, 0u);
        EXPECT_EQ(p.images, 25u);
        EXPECT_NEAR(p.drop, report.clean_accuracy - p.accuracy, 1e-12);
        (p.target == "BLIND" ? blind : guided) += 1;
    }
    // 5 segments x up-to-2 counts (short segments cap to one) + 2 blind.
    EXPECT_GE(guided, 6u);
    EXPECT_EQ(blind, 2u);

    const CampaignPoint* worst = report.most_damaging();
    ASSERT_NE(worst, nullptr);
    EXPECT_NE(worst->target, "BLIND");
}

TEST(Campaign, JsonReportWellFormed) {
    Platform platform(PlatformConfig{}, deepstrike::testing::random_qnetwork(62));
    auto ds = data::make_datasets(9, 1, 30);
    CampaignConfig cfg = small_config();
    cfg.blind_offsets = 0;

    const CampaignReport report = run_campaign(platform, ds.test, cfg);
    const std::string json = report.to_json().dump();
    for (const char* needle :
         {"\"clean_accuracy\"", "\"profiled_segments\"", "\"points\"",
          "\"most_damaging\"", "\"accuracy_drop\""}) {
        EXPECT_NE(json.find(needle), std::string::npos) << needle;
    }
    // No blind entries when disabled.
    EXPECT_EQ(json.find("BLIND"), std::string::npos);
}

TEST(Campaign, MarkdownReportHasTable) {
    Platform platform(PlatformConfig{}, deepstrike::testing::random_qnetwork(63));
    auto ds = data::make_datasets(9, 1, 30);
    const CampaignReport report = run_campaign(platform, ds.test, small_config());
    const std::string md = report.to_markdown();
    EXPECT_NE(md.find("| target | strikes |"), std::string::npos);
    EXPECT_NE(md.find("most damaging:"), std::string::npos);
}

TEST(Campaign, Validation) {
    Platform platform(PlatformConfig{}, deepstrike::testing::random_qnetwork(64));
    auto ds = data::make_datasets(9, 1, 10);
    CampaignConfig cfg;
    cfg.strike_grid.clear();
    EXPECT_THROW(run_campaign(platform, ds.test, cfg), ContractError);
    cfg = CampaignConfig{};
    cfg.eval_images = 0;
    EXPECT_THROW(run_campaign(platform, ds.test, cfg), ContractError);
    cfg = CampaignConfig{};
    cfg.strike_grid = {500, 0};
    EXPECT_THROW(run_campaign(platform, ds.test, cfg), ContractError);
}

// Every journal carries its campaign's fingerprint, so the value for a
// fixed victim and config is pinned: a change to the scheme hash or to
// anything else the fingerprint chains over orphans every existing
// journal, and must show up here.
TEST(Campaign, FingerprintIsPinned) {
    Platform platform(PlatformConfig{}, deepstrike::testing::random_qnetwork(61));
    auto ds = data::make_datasets(9, 1, 30);
    EXPECT_EQ(plan_campaign(platform, ds.test, small_config()).fingerprint,
              0x9f63153df6f9cb46ULL);
}

// A blind count whose replay cannot fit the schedule is capped at the
// largest one that does, as guided counts are capped at their segment:
// the first count over the cap becomes the cap, later ones are skipped.
TEST(Campaign, BlindStrikeCountsCapAtTheSchedule) {
    Platform platform(PlatformConfig{}, deepstrike::testing::random_qnetwork(61));
    auto ds = data::make_datasets(9, 1, 30);
    const std::size_t total = platform.engine().schedule().total_cycles;
    const std::size_t cap = (total + 1) / 2;
    CampaignConfig cfg = small_config();
    cfg.strike_grid = {cap, cap + 1, total, 300};
    const CampaignPlan plan = plan_campaign(platform, ds.test, cfg);
    ASSERT_TRUE(plan.prof.detector_fired);

    std::vector<std::size_t> blind_strikes;
    for (const PlannedCampaignPoint& p : plan.points) {
        if (p.blind_offsets == 0) continue;
        blind_strikes.push_back(p.strikes);
        EXPECT_EQ(p.scheme.num_strikes, p.strikes);
        EXPECT_LE(p.scheme.total_cycles(), total) << campaign_point_label(p);
    }
    EXPECT_EQ(blind_strikes, (std::vector<std::size_t>{cap, cap, 300}));

    // The cap is the largest count that fits: one more strike, at the gap
    // the planner would give it, overruns the schedule.
    attack::AttackScheme over;
    over.num_strikes = cap + 1;
    over.strike_cycles = 1;
    over.gap_cycles = std::max<std::size_t>(1, total / (cap + 1) / 2);
    EXPECT_GT(over.total_cycles(), total);
}

/// RAII restore of the process-wide metrics switch a test turns on.
struct MetricsOnGuard {
    bool was_on = metrics::enabled();
    MetricsOnGuard() { metrics::set_enabled(true); }
    ~MetricsOnGuard() { metrics::set_enabled(was_on); }
};

// Image i reads blind offset i % n, so with fewer images than offsets a
// blind point replays one offset per image: its record equals an
// evaluation over all n offsets' traces, the fingerprint still hashes the
// configured count, and the campaign co-simulates images x total cycles
// per blind point, not offsets x total cycles.
TEST(Campaign, BlindPointsReplayOnlyTheOffsetsImagesRead) {
    MetricsOnGuard metrics_on;
    Platform platform(PlatformConfig{}, deepstrike::testing::random_qnetwork(61));
    auto ds = data::make_datasets(9, 1, 30);
    CampaignConfig cfg = small_config();
    cfg.eval_images = 5;
    cfg.blind_offsets = 8;
    const CampaignPlan plan = plan_campaign(platform, ds.test, cfg);

    SweepRunner runner(platform, RunnerConfig{1});
    std::size_t blind_points = 0;
    std::size_t blind_faults = 0;
    for (std::size_t i = 0; i < plan.points.size(); ++i) {
        const PlannedCampaignPoint& p = plan.points[i];
        if (p.blind_offsets == 0) continue;
        ++blind_points;
        EXPECT_EQ(p.blind_offsets, 5u);
        const std::vector<accel::OverlayPlan> all =
            SweepRunner(platform, RunnerConfig{1})
                .blind_bundle(p.scheme, cfg.blind_offsets, cfg.blind_offset_seed)
                ->plans;
        const AccuracyResult want =
            evaluate_accuracy(platform, ds.test, plan.eval_images, all, cfg.fault_seed);
        const Json got =
            evaluate_campaign_record(platform, ds.test, plan, runner, nullptr, i + 1);
        EXPECT_EQ(got.at("accuracy_bits").as_string(), double_bits_hex(want.accuracy));
        EXPECT_EQ(got.at("duplication_faults").as_uint(), want.faults.duplication);
        EXPECT_EQ(got.at("random_faults").as_uint(), want.faults.random);
        EXPECT_EQ(got.at("images").as_uint(), want.images);
        blind_faults += want.faults.total();
    }
    EXPECT_EQ(blind_points, 2u);
    EXPECT_GT(blind_faults, 0u); // not vacuous

    // The fingerprint hashes the configured offset count.
    CampaignConfig clamped = cfg;
    clamped.blind_offsets = 5;
    EXPECT_NE(plan_campaign(platform, ds.test, clamped).fingerprint, plan.fingerprint);

    const auto cosim_cycles = [] { return metrics::counter("cosim.cycles").total(); };
    CampaignConfig no_blind = cfg;
    no_blind.blind_offsets = 0;
    std::uint64_t before = cosim_cycles();
    const CampaignReport report = run_campaign(platform, ds.test, cfg);
    const std::uint64_t with_blind = cosim_cycles() - before;
    before = cosim_cycles();
    run_campaign(platform, ds.test, no_blind);
    const std::uint64_t without_blind = cosim_cycles() - before;
    const std::uint64_t total = platform.engine().schedule().total_cycles;
    EXPECT_EQ(with_blind - without_blind, blind_points * 5 * total);
    // A campaign configured with one offset per image reports the same bytes.
    EXPECT_EQ(run_campaign(platform, ds.test, clamped).to_json().dump(),
              report.to_json().dump());
}

TEST(Campaign, EmptyMostDamagingWhenNoGuidedPoints) {
    CampaignReport report;
    EXPECT_EQ(report.most_damaging(), nullptr);
}

// ----------------------------------------------------------- resume

std::string journal_temp_path(const std::string& name) {
    return ::testing::TempDir() + "ds_campaign_test_" + name;
}

std::string read_file(const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    std::ostringstream buffer;
    buffer << in.rdbuf();
    return buffer.str();
}

/// Keeps the header plus the first `keep_records` complete records,
/// simulating a campaign killed after that many points were persisted.
void truncate_journal_to(const std::string& path, std::size_t keep_records) {
    std::istringstream lines(read_file(path));
    std::string line;
    std::string kept;
    std::size_t records = 0;
    while (std::getline(lines, line)) {
        const bool is_header = kept.empty();
        if (!is_header && records == keep_records) break;
        kept += line + "\n";
        if (!is_header) ++records;
    }
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << kept;
}

struct ResumeFixture : public ::testing::Test {
    static void SetUpTestSuite() {
        platform = new Platform(PlatformConfig{},
                                deepstrike::testing::random_qnetwork(61));
        dataset = new data::Dataset(data::make_datasets(9, 1, 30).test);
    }
    static void TearDownTestSuite() {
        delete dataset;
        delete platform;
    }
    static Platform* platform;
    static data::Dataset* dataset;
};

Platform* ResumeFixture::platform = nullptr;
data::Dataset* ResumeFixture::dataset = nullptr;

TEST_F(ResumeFixture, ResumedReportsAreByteIdenticalAtAnyThreadCount) {
    const std::string path = journal_temp_path("resume.jsonl");
    CampaignConfig cfg = small_config();
    cfg.threads = 1;

    // Reference: an uninterrupted, journal-free run.
    const CampaignReport reference = run_campaign(*platform, *dataset, cfg);
    const std::string reference_json = reference.to_json().dump(2);
    const std::string reference_md = reference.to_markdown();

    // Journaled run: identical bytes, journal fully populated.
    cfg.journal_path = path;
    const CampaignReport journaled = run_campaign(*platform, *dataset, cfg);
    EXPECT_EQ(journaled.to_json().dump(2), reference_json);

    const std::size_t total_records = 1 + reference.points.size(); // + clean
    for (const std::size_t keep : {std::size_t{0}, std::size_t{2},
                                   total_records - 1, total_records}) {
        // Simulate a crash with `keep` records persisted...
        cfg.journal_path.clear();
        cfg.resume = false;
        cfg.threads = 1;
        cfg.journal_path = path;
        run_campaign(*platform, *dataset, cfg); // rebuild a full journal
        truncate_journal_to(path, keep);

        // ...then resume, serially and wide.
        cfg.resume = true;
        for (const std::size_t threads : {std::size_t{1}, std::size_t{8}}) {
            cfg.threads = threads;
            RunManifest manifest;
            const CampaignReport resumed =
                run_campaign(*platform, *dataset, cfg, &manifest);
            EXPECT_EQ(resumed.to_json().dump(2), reference_json)
                << "keep=" << keep << " threads=" << threads;
            EXPECT_EQ(resumed.to_markdown(), reference_md);
            EXPECT_EQ(manifest.points_resumed, keep);
            EXPECT_EQ(manifest.points.size(), total_records - keep);
            EXPECT_EQ(manifest.journal, path);
            if (keep == total_records) {
                // Zero remaining: nothing reruns, the report is rebuilt
                // entirely from the journal.
                EXPECT_EQ(manifest.points.size(), 0u);
            }
            truncate_journal_to(path, keep); // reset for the next width
        }
    }
    std::remove(path.c_str());
}

TEST_F(ResumeFixture, ResumeRejectsJournalFromDifferentConfig) {
    const std::string path = journal_temp_path("mismatch.jsonl");
    CampaignConfig cfg = small_config();
    cfg.threads = 1;
    cfg.journal_path = path;
    run_campaign(*platform, *dataset, cfg);

    cfg.resume = true;
    cfg.fault_seed += 1; // different campaign → different fingerprint
    EXPECT_THROW(run_campaign(*platform, *dataset, cfg), ConfigError);

    cfg.fault_seed -= 1;
    EXPECT_NO_THROW(run_campaign(*platform, *dataset, cfg));
    std::remove(path.c_str());
}

// ------------------------------------------------- hostile journal records

/// A campaign journal's header line and its records' payloads, in file
/// order.
struct JournalText {
    std::string header;
    std::vector<Json> records;
};

JournalText read_journal(const std::string& path) {
    JournalText journal;
    std::istringstream lines(read_file(path));
    std::string line;
    while (std::getline(lines, line)) {
        if (journal.header.empty()) {
            journal.header = line;
        } else {
            journal.records.push_back(Json::parse(line.substr(line.find(' ') + 1)));
        }
    }
    return journal;
}

/// Writes a journal with a freshly computed checksum on every record, so
/// only the campaign's own record checks can reject it.
void write_journal(const std::string& path, const std::string& header,
                   const std::vector<Json>& records) {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << header << "\n";
    for (const Json& record : records) {
        const std::string body = record.dump();
        out << crc32_hex(crc32(body)) << " " << body << "\n";
    }
}

Json with(Json record, const std::string& key, Json value) {
    record.set(key, std::move(value));
    return record;
}

Json without(const Json& record, const std::string& key) {
    Json out = Json::object();
    for (const std::string& k : record.keys()) {
        if (k != key) out.set(k, record.at(k));
    }
    return out;
}

/// The untrained MLP victim: the cheapest zoo co-sim, since every resume
/// profiles the victim again before it reads the journal.
struct MlpVictim {
    Platform platform;
    data::Dataset dataset = data::make_datasets(9, 1, 30).test;

    static PlatformConfig config() {
        PlatformConfig cfg;
        cfg.accel = accel::accel_config_for(nn::Architecture::Mlp);
        return cfg;
    }
    static quant::QNetwork network() {
        Rng rng(2024);
        nn::Sequential model = nn::build_architecture(nn::Architecture::Mlp, rng);
        return quant::quantize_sequential(
            model, nn::architecture_info(nn::Architecture::Mlp).input_shape, {},
            quant::quant_format_for(nn::Architecture::Mlp));
    }
    MlpVictim() : platform(config(), network()) {}
};

const MlpVictim& mlp_victim() {
    static const MlpVictim victim;
    return victim;
}

/// A journaled MLP campaign to resume from hostile journals: the honest
/// journal and report, and a resume that names the typed error.
struct HostileJournal {
    CampaignConfig cfg;
    JournalText honest;
    std::string honest_report;

    explicit HostileJournal(const std::string& name) {
        cfg = small_config();
        cfg.strike_grid = {500, 2000};
        cfg.eval_images = 20;
        cfg.threads = 4;
        cfg.journal_path = journal_temp_path(name);
        const MlpVictim& v = mlp_victim();
        honest_report = run_campaign(v.platform, v.dataset, cfg).to_json().dump(2);
        honest = read_journal(cfg.journal_path);
        cfg.resume = true;
    }
    ~HostileJournal() { std::remove(cfg.journal_path.c_str()); }

    const Json& record(std::uint64_t index) const {
        for (const Json& r : honest.records) {
            if (r.at("index").as_uint() == index) return r;
        }
        throw ContractError("no honest record " + std::to_string(index));
    }

    /// The honest records with record `index` replaced by `mutant`.
    std::vector<Json> replaced(std::uint64_t index, const Json& mutant) const {
        std::vector<Json> records = honest.records;
        for (Json& r : records) {
            if (r.at("index").as_uint() == index) r = mutant;
        }
        return records;
    }

    enum class Outcome { Report, FormatError, ConfigError };
    /// Resumes from `records`; `report` receives the report on success.
    Outcome resume(const std::vector<Json>& records, std::string* report = nullptr) const {
        write_journal(cfg.journal_path, honest.header, records);
        const MlpVictim& v = mlp_victim();
        try {
            const std::string json = run_campaign(v.platform, v.dataset, cfg).to_json().dump(2);
            if (report != nullptr) *report = json;
            return Outcome::Report;
        } catch (const FormatError&) {
            return Outcome::FormatError;
        } catch (const ConfigError&) {
            return Outcome::ConfigError;
        }
    }
};

// Each row once resumed with exit 0 and a silently wrong report.
TEST(CampaignJournal, HostileRecordsEndInTypedErrors) {
    const HostileJournal j("hostile.jsonl");
    using Outcome = HostileJournal::Outcome;
    std::string report;
    ASSERT_EQ(j.resume(j.honest.records, &report), Outcome::Report);
    EXPECT_EQ(report, j.honest_report);

    const Json& point = j.record(1);
    const std::string other_bits =
        double_bits_hex(point.at("accuracy_bits").as_string() == double_bits_hex(0.5) ? 0.25
                                                                                      : 0.5);
    std::vector<Json> written_twice = j.honest.records;
    written_twice.push_back(with(point, "accuracy_bits", other_bits));
    const std::pair<const char*, std::vector<Json>> format_rows[] = {
        {"accuracy_bits -000000000000001",
         j.replaced(1, with(point, "accuracy_bits", "-000000000000001"))},
        {"accuracy_bits 0x3fe00000000000",
         j.replaced(1, with(point, "accuracy_bits", "0x3fe00000000000"))},
        {"NaN accuracy", j.replaced(1, with(point, "accuracy_bits", "7ff8000000000000"))},
        {"accuracy 2.0", j.replaced(1, with(point, "accuracy_bits", "4000000000000000"))},
        {"clean record replaced by a point payload",
         j.replaced(0, with(point, "index", std::uint64_t{0}))},
        {"record 1 written twice with different bits", written_twice},
        {"kind deleted", j.replaced(1, without(point, "kind"))},
    };
    for (const auto& [what, records] : format_rows) {
        EXPECT_EQ(j.resume(records), Outcome::FormatError) << what;
    }
    EXPECT_EQ(j.resume(j.replaced(1, with(point, "images", std::uint64_t{999}))),
              Outcome::ConfigError)
        << "999 images on a 20-image plan";
}

// Every record of an honest journal, mutated many ways (checksums
// recomputed), ends in a typed error; records that are only reordered, in
// full or in part, resume to the honest report bytes.
TEST(CampaignJournal, SeededRecordMutantsEndInTypedErrors) {
    const HostileJournal j("mutants.jsonl");
    using Outcome = HostileJournal::Outcome;
    const std::size_t n_records = j.honest.records.size();
    ASSERT_GE(n_records, 4u);

    Rng rng(0xCA3F16);
    const auto pick = [&rng](std::size_t size) {
        return static_cast<std::size_t>(
            rng.uniform_int(0, static_cast<std::int64_t>(size) - 1));
    };
    const std::string hex = "0123456789abcdef";
    std::size_t rejected[2] = {0, 0}; // FormatError, ConfigError
    for (const Json& record : j.honest.records) {
        const std::uint64_t index = record.at("index").as_uint();
        const bool clean = index == 0;
        const std::string bits = record.at("accuracy_bits").as_string();
        std::vector<std::pair<std::string, Json>> mutants;
        const auto mutate = [&](const std::string& what, Json mutant) {
            mutants.emplace_back(what, std::move(mutant));
        };

        // accuracy_bits that are not 16 lowercase hex digits.
        std::string digit = bits;
        digit[pick(16)] = "gxzG .+-"[pick(8)];
        mutate("a non-hex digit", with(record, "accuracy_bits", digit));
        std::string upper = bits;
        std::transform(upper.begin(), upper.end(), upper.begin(),
                       [](char c) { return c >= 'a' && c <= 'f' ? c - 'a' + 'A' : c; });
        if (upper != bits) mutate("upper-case hex", with(record, "accuracy_bits", upper));
        mutate("too few digits", with(record, "accuracy_bits", bits.substr(0, pick(16))));
        mutate("17 digits", with(record, "accuracy_bits", bits + hex[pick(16)]));
        for (const char* prefix : {"0x", "-", "+", " "}) {
            const std::string p = prefix;
            mutate("prefix '" + p + "'", with(record, "accuracy_bits", p + bits.substr(p.size())));
        }
        mutate("a number", with(record, "accuracy_bits", 0.5));
        // Well-formed bits outside [0, 1] or not finite.
        std::string nan = "7ff8";
        for (int k = 0; k < 12; ++k) nan += hex[pick(16)];
        for (const std::string& b :
             {double_bits_hex(-(0.001 + rng.uniform())), double_bits_hex(1.001 + rng.uniform()),
              double_bits_hex(std::numeric_limits<double>::infinity()),
              double_bits_hex(-std::numeric_limits<double>::infinity()), nan}) {
            mutate("accuracy bits " + b, with(record, "accuracy_bits", b));
        }
        // The wrong kind, or none.
        mutate("the other kind", with(record, "kind", clean ? "point" : "clean"));
        mutate("an unknown kind", with(record, "kind", clean ? "clea" : "points"));
        mutate("a numeric kind", with(record, "kind", 1));
        // An index outside the plan, or one another record holds.
        mutate("an index past the plan",
               with(record, "index", static_cast<std::uint64_t>(n_records + pick(1000))));
        mutate("another record's index",
               with(record, "index", static_cast<std::uint64_t>((index + 1 + pick(n_records - 1)) %
                                                                n_records)));
        // Missing fields.
        std::vector<std::string> keys = record.keys();
        keys.erase(std::remove(keys.begin(), keys.end(), "accuracy"), keys.end());
        for (const std::string& key : keys) mutate("no " + key, without(record, key));
        if (!clean) {
            std::uint64_t images = pick(1000000);
            if (images == j.cfg.eval_images) ++images;
            mutate("images " + std::to_string(images), with(record, "images", images));
            mutate("images 2^64-1",
                   with(record, "images", std::numeric_limits<std::uint64_t>::max()));
            mutate("negative images", with(record, "images", std::int64_t{-25}));
            mutate("images as a string", with(record, "images", "25"));
            const std::string label = record.at("label").as_string();
            mutate("a truncated label", with(record, "label", label.substr(0, pick(label.size()))));
            mutate("a numeric label", with(record, "label", 3));
            for (const char* key : {"duplication_faults", "random_faults"}) {
                mutate(std::string("negative ") + key,
                       with(record, key, -static_cast<std::int64_t>(1 + pick(100))));
                mutate(std::string(key) + " 2^64-1",
                       with(record, key, std::numeric_limits<std::uint64_t>::max()));
                mutate(std::string("fractional ") + key, with(record, key, 1.5));
                mutate(std::string(key) + " as a string", with(record, key, "7"));
            }
        }

        for (const auto& [what, mutant] : mutants) {
            const Outcome outcome = j.resume(j.replaced(index, mutant));
            EXPECT_NE(outcome, Outcome::Report) << "record " << index << ": " << what;
            if (outcome != Outcome::Report) ++rejected[outcome == Outcome::FormatError ? 0 : 1];
        }
        // The record written twice, the second time as is or changed.
        for (const Json& copy : {record, mutants.front().second}) {
            std::vector<Json> records = j.honest.records;
            records.insert(records.begin() + static_cast<std::ptrdiff_t>(pick(n_records + 1)),
                           copy);
            EXPECT_EQ(j.resume(records), Outcome::FormatError)
                << "record " << index << " written twice";
        }
    }
    EXPECT_GT(rejected[0], 0u);
    EXPECT_GT(rejected[1], 0u);

    // Reordered records, all of them or a prefix of a shuffle (the rest
    // reruns), resume to the honest report.
    for (std::size_t keep : {n_records, n_records, pick(n_records)}) {
        std::vector<Json> records = j.honest.records;
        for (std::size_t i = records.size(); i > 1; --i) std::swap(records[i - 1], records[pick(i)]);
        records.resize(keep);
        std::string report;
        EXPECT_EQ(j.resume(records, &report), Outcome::Report)
            << "keep=" << keep;
        EXPECT_EQ(report, j.honest_report) << "keep=" << keep;
    }
}

// ------------------------------------------------------------ phases

// The phase split (plan / evaluate one record / assemble) must rebuild
// run_campaign's report byte for byte from records computed outside it,
// in any order, each on its own runner, with the campaign's golden store
// or with none (each record then builds its own).
TEST(CampaignPhases, OutOfOrderRecordsAssembleToRunCampaignReport) {
    Platform platform(PlatformConfig{}, deepstrike::testing::random_qnetwork(61));
    auto ds = data::make_datasets(9, 1, 30);
    CampaignConfig cfg = small_config();
    cfg.threads = 1;
    const CampaignReport reference = run_campaign(platform, ds.test, cfg);
    const std::string reference_json = reference.to_json().dump(2);

    const CampaignPlan plan = plan_campaign(platform, ds.test, cfg);
    ASSERT_EQ(plan.record_count(), reference.points.size() + 1);
    const std::shared_ptr<const GoldenStore> store =
        build_golden_store(platform.engine().network(), ds.test, plan.eval_images);
    const std::vector<const GoldenStore*> goldens = {store.get(), nullptr};
    for (const GoldenStore* golden : goldens) {
        std::vector<Json> records(plan.record_count());
        for (std::size_t idx = plan.record_count(); idx-- > 0;) {
            SweepRunner runner(platform, RunnerConfig{1});
            records[idx] =
                evaluate_campaign_record(platform, ds.test, plan, runner, golden, idx);
        }
        const CampaignReport assembled = assemble_campaign_report(plan_info(plan), records);
        EXPECT_EQ(assembled.to_json().dump(2), reference_json)
            << "golden=" << (golden != nullptr);
        EXPECT_EQ(assembled.to_markdown(), reference.to_markdown());

        // A missing record (2 = point 1) drops exactly its point and marks
        // the report partial.
        records[2] = Json();
        CampaignReport expected = reference;
        expected.points.erase(expected.points.begin() + 1);
        expected.partial = true;
        EXPECT_EQ(assemble_campaign_report(plan_info(plan), records).to_json().dump(2),
                  expected.to_json().dump(2));
    }
}

TEST(CampaignReportJson, PartialKeyOnlyWhenPartial) {
    CampaignReport report;
    EXPECT_EQ(report.to_json().dump().find("\"partial\""), std::string::npos);
    report.partial = true;
    EXPECT_NE(report.to_json().dump().find("\"partial\":true"), std::string::npos);
}

} // namespace
} // namespace deepstrike::sim
