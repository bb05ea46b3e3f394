#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "sim/campaign.hpp"
#include "sim/golden_cache.hpp"
#include "sim/journal.hpp"
#include "test_helpers.hpp"
#include "util/error.hpp"

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

TEST_F(ResumeFixture, DeadlineProducesValidPartialReport) {
    CampaignConfig cfg = small_config();
    cfg.threads = 1;
    cfg.deadline_seconds = 1e-9; // expires before any point starts
    cfg.journal_path = journal_temp_path("partial.jsonl");

    RunManifest manifest;
    const CampaignReport report =
        run_campaign(*platform, *dataset, cfg, &manifest);
    EXPECT_TRUE(report.partial);
    EXPECT_TRUE(manifest.partial);
    EXPECT_GT(manifest.points_skipped, 0u);
    // Only completed points appear; the report is still well-formed JSON
    // with the partial marker set.
    EXPECT_TRUE(report.points.empty());
    const std::string json = report.to_json().dump(2);
    EXPECT_NE(json.find("\"partial\": true"), std::string::npos);
    std::remove(cfg.journal_path.c_str());
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
            SweepRunner runner(platform, RunnerConfig{1, true});
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
