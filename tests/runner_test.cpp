#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstring>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "sim/campaign.hpp"
#include "sim/runner.hpp"
#include "test_helpers.hpp"
#include "util/error.hpp"
#include "util/metrics.hpp"
#include "util/parallel.hpp"
#include "util/rng.hpp"

namespace deepstrike::sim {
namespace {

using deepstrike::testing::same_plan;

// ------------------------------------------------------------ thread pool

TEST(ThreadPool, ReusableAfterALoopThrows) {
    ThreadPool pool(2);
    EXPECT_THROW(pool.for_each(2, [](std::size_t) { throw ConfigError("first"); }),
                 ConfigError);

    // The pool must stay fully usable: several further loops.
    std::atomic<int> counter{0};
    for (int round = 0; round < 3; ++round) {
        pool.for_each(20, [&counter](std::size_t) { counter.fetch_add(1); });
    }
    EXPECT_EQ(counter.load(), 60);
}

TEST(ThreadPool, NestedTwoWideLoopsFinishOnOneWorker) {
    // Two-wide loops inside a two-wide loop must finish on a one-worker
    // pool: a caller whose items are all claimed runs other queued loops
    // while it waits.
    ThreadPool pool(1);
    std::atomic<int> counter{0};
    pool.for_each(
        2,
        [&](std::size_t) {
            pool.for_each(2, [&counter](std::size_t) { counter.fetch_add(1); }, 2);
            counter.fetch_add(1);
        },
        2);
    EXPECT_EQ(counter.load(), 6);
}

TEST(ThreadPool, ManyShortLoopsCallEachFunctionExactlyItsCount) {
    // Thousands of loops of 1-8 items: most return while some of their
    // queue entries are still waiting for a worker. Such an entry is popped
    // after its function object died and must claim no item; the counts
    // below (and the sanitizers, for a call into a dead object) show it.
    constexpr std::size_t kLoops = 3000;
    std::vector<std::atomic<std::size_t>> calls(kLoops);
    {
        ThreadPool pool(4);
        for (std::size_t r = 0; r < kLoops; ++r) {
            // On the heap and freed as soon as for_each returns, so a late
            // call is a use after free.
            auto fn = std::make_unique<std::function<void(std::size_t)>>(
                [&calls, r](std::size_t) { calls[r].fetch_add(1, std::memory_order_relaxed); });
            pool.for_each(1 + r % 8, *fn);
            fn.reset();
            EXPECT_EQ(calls[r].load(), 1 + r % 8) << "loop " << r;
        }
    } // joins the workers after they drained every late entry
    for (std::size_t r = 0; r < kLoops; ++r) {
        ASSERT_EQ(calls[r].load(), 1 + r % 8) << "loop " << r;
    }
}

TEST(ThreadPool, NestedForEachInsidePoolTask) {
    ThreadPool pool(2);
    std::atomic<int> counter{0};
    pool.for_each(4, [&](std::size_t) {
        pool.for_each(8, [&](std::size_t) { counter.fetch_add(1); });
    });
    EXPECT_EQ(counter.load(), 32);
}

TEST(ThreadPool, ForEachRethrowsAfterRunningEveryItem) {
    ThreadPool pool(4);
    std::atomic<int> hits{0};
    EXPECT_THROW(pool.for_each(100,
                               [&](std::size_t i) {
                                   hits.fetch_add(1);
                                   if (i == 13) throw ConfigError("bad point");
                               }),
                 ConfigError);
    EXPECT_EQ(hits.load(), 100);
}

// ------------------------------------------------------------ derive_seed

TEST(DeriveSeed, DeterministicAndTagSensitive) {
    EXPECT_EQ(derive_seed(1, 2, 3), derive_seed(1, 2, 3));
    EXPECT_NE(derive_seed(1, 2, 3), derive_seed(1, 3, 2)); // order matters
    EXPECT_NE(derive_seed(1, 0), derive_seed(1, 1));       // tag 0 still mixes
    EXPECT_NE(derive_seed(1, 0), derive_seed(2, 0));
    EXPECT_NE(derive_seed(7), 7u);
}

// ------------------------------------------------------------ sweep runner

TEST(SweepRunner, RunsEveryTaskAndTimesThem) {
    SweepRunner runner(RunnerConfig{4});
    std::vector<int> out(10, 0);
    std::vector<SweepTask> tasks;
    for (std::size_t i = 0; i < out.size(); ++i) {
        tasks.push_back({"point#" + std::to_string(i),
                         [&out, i] { out[i] = static_cast<int>(i) * 2; }});
    }
    const RunManifest mf = runner.run("unit", std::move(tasks));

    for (std::size_t i = 0; i < out.size(); ++i) {
        EXPECT_EQ(out[i], static_cast<int>(i) * 2);
    }
    EXPECT_EQ(mf.sweep, "unit");
    EXPECT_EQ(mf.threads, 4u);
    ASSERT_EQ(mf.points.size(), 10u);
    for (const auto& p : mf.points) {
        EXPECT_TRUE(p.ok);
        EXPECT_GE(p.seconds, 0.0);
    }
    const std::string json = mf.to_json().dump();
    for (const char* needle :
         {"\"sweep\"", "\"threads\"", "\"total_seconds\"", "\"point_stats\""}) {
        EXPECT_NE(json.find(needle), std::string::npos) << needle;
    }
}

TEST(SweepRunner, LowestIndexedFailureWins) {
    SweepRunner runner(RunnerConfig{4});
    std::vector<SweepTask> tasks;
    for (std::size_t i = 0; i < 8; ++i) {
        tasks.push_back({"p", [i] {
                             if (i >= 5) throw ConfigError("point " + std::to_string(i));
                         }});
    }
    try {
        runner.run("failing", std::move(tasks));
        FAIL() << "expected ConfigError";
    } catch (const ConfigError& e) {
        const std::string what = e.what();
        EXPECT_NE(what.find("point 5"), std::string::npos) << what;
    }
}

TEST(SweepRunner, ManifestOmitsResilienceKeysOnPlainRuns) {
    SweepRunner runner(RunnerConfig{2});
    std::vector<SweepTask> tasks;
    tasks.push_back({"p", [] {}});
    const RunManifest mf = runner.run("plain", std::move(tasks));
    const std::string json = mf.to_json().dump();
    for (const char* absent : {"\"points_resumed\"", "\"journal\""}) {
        EXPECT_EQ(json.find(absent), std::string::npos) << absent;
    }
}

struct RunnerPlatformFixture : public ::testing::Test {
    static void SetUpTestSuite() {
        platform = new Platform(PlatformConfig{},
                                deepstrike::testing::random_qnetwork(61));
        dataset = new data::Dataset(data::make_datasets(9, 1, 30).test);
        profiling = new ProfilingRun(run_profiling(*platform));
    }
    static void TearDownTestSuite() {
        delete profiling;
        delete dataset;
        delete platform;
    }

    static Platform* platform;
    static data::Dataset* dataset;
    static ProfilingRun* profiling;
};

Platform* RunnerPlatformFixture::platform = nullptr;
data::Dataset* RunnerPlatformFixture::dataset = nullptr;
ProfilingRun* RunnerPlatformFixture::profiling = nullptr;

TEST_F(RunnerPlatformFixture, CampaignReportBitIdenticalAcrossThreadCounts) {
    CampaignConfig cfg;
    cfg.strike_grid = {200, 700};
    cfg.eval_images = 20;
    cfg.blind_offsets = 2;

    cfg.threads = 1;
    const CampaignReport serial = run_campaign(*platform, *dataset, cfg);
    cfg.threads = 8;
    const CampaignReport parallel = run_campaign(*platform, *dataset, cfg);

    EXPECT_EQ(serial.to_json().dump(2), parallel.to_json().dump(2));
    EXPECT_EQ(serial.to_markdown(), parallel.to_markdown());
}

TEST_F(RunnerPlatformFixture, CampaignManifestRecordsSweep) {
    CampaignConfig cfg;
    cfg.strike_grid = {200};
    cfg.eval_images = 10;
    cfg.blind_offsets = 2;
    cfg.threads = 2;

    RunManifest manifest;
    const CampaignReport report = run_campaign(*platform, *dataset, cfg, &manifest);

    // clean baseline + guided points + 1 blind point.
    EXPECT_EQ(manifest.points.size(), report.points.size() + 1);
    EXPECT_EQ(manifest.threads, 2u);
    EXPECT_EQ(manifest.sweep, "campaign");
    for (const auto& p : manifest.points) EXPECT_TRUE(p.ok);
}

TEST_F(RunnerPlatformFixture, BlindPointsCarryNoSegmentIndex) {
    CampaignConfig cfg;
    cfg.strike_grid = {150};
    cfg.eval_images = 8;
    cfg.blind_offsets = 2;
    cfg.threads = 1;

    const CampaignReport report = run_campaign(*platform, *dataset, cfg);
    bool saw_blind = false;
    for (const auto& p : report.points) {
        if (p.target == "BLIND") {
            saw_blind = true;
            EXPECT_TRUE(p.is_blind());
            EXPECT_FALSE(p.segment_index.has_value());
        } else {
            EXPECT_FALSE(p.is_blind());
            ASSERT_TRUE(p.segment_index.has_value());
            EXPECT_LT(*p.segment_index, report.profile.segments.size());
        }
    }
    ASSERT_TRUE(saw_blind);

    // The JSON sentinel is -1, not a wrapped size_t.
    const std::string json = report.to_json().dump(2);
    EXPECT_NE(json.find("\"segment_index\": -1"), std::string::npos);
    EXPECT_EQ(json.find("18446744073709551615"), std::string::npos);
}

// ------------------------------------------------------------ batched fill

/// RunnerPlatformFixture's victim and profile, for SweepRunner tests outside
/// the fixture.
struct BatchVictim {
    Platform platform{PlatformConfig{}, deepstrike::testing::random_qnetwork(61)};
    ProfilingRun profiling = run_profiling(platform);
};

const BatchVictim& batch_victim() {
    static const BatchVictim victim;
    return victim;
}

/// Guided schemes over every profiled segment at two strike counts (capped
/// like a campaign's), ending with a repeat of the first.
std::vector<attack::AttackScheme> batch_guided_schemes() {
    const BatchVictim& v = batch_victim();
    std::vector<attack::AttackScheme> schemes;
    for (const attack::ProfiledSegment& seg : v.profiling.profile.segments) {
        for (const std::size_t strikes : {std::size_t{40}, std::size_t{90}}) {
            const std::size_t n = std::min(strikes, seg.duration_samples() / 4);
            if (n == 0) continue;
            schemes.push_back(attack::plan_attack(seg, v.profiling.trigger_sample,
                                                  v.platform.config().samples_per_cycle(), n));
        }
    }
    schemes.push_back(schemes.front());
    return schemes;
}

attack::AttackScheme blind_scheme(std::size_t strikes, std::size_t gap) {
    attack::AttackScheme scheme;
    scheme.num_strikes = strikes;
    scheme.gap_cycles = gap;
    return scheme;
}

bool same_trace(const accel::VoltageTrace& a, const accel::VoltageTrace& b) {
    return a.size() == b.size() &&
           (a.empty() || std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

void expect_same_guided(const GuidedTraceBundle& got, const GuidedTraceBundle& want,
                        const std::string& where) {
    EXPECT_TRUE(same_trace(got.trace, want.trace)) << where << ": trace differs";
    EXPECT_TRUE(same_plan(got.plan, want.plan)) << where << ": plan differs";
}

void expect_same_blind(const BlindTraceBundle& got, const BlindTraceBundle& want,
                       const std::string& where) {
    ASSERT_EQ(got.traces.size(), want.traces.size()) << where;
    ASSERT_EQ(got.plans.size(), want.plans.size()) << where;
    for (std::size_t i = 0; i < want.traces.size(); ++i) {
        EXPECT_TRUE(same_trace(got.traces[i], want.traces[i]))
            << where << ": offset " << i << " trace differs";
        EXPECT_TRUE(same_plan(got.plans[i], want.plans[i]))
            << where << ": offset " << i << " plan differs";
    }
}

// The store keys requests by value: equal requests share one bundle, and
// requests that differ in a single field — one detector zone bit,
// auto_rearm, the blind offset seed — each get their own bundle, equal to
// a fresh runner's fill.
TEST_F(RunnerPlatformFixture, TraceCacheHitMissAccounting) {
    ASSERT_TRUE(profiling->detector_fired);
    ASSERT_GE(profiling->profile.segments.size(), 3u);

    SweepRunner runner(*platform, RunnerConfig{1});
    const double spc = platform->config().samples_per_cycle();
    const attack::AttackScheme scheme = attack::plan_attack(
        profiling->profile.segments[2], profiling->trigger_sample, spc, 100);
    const attack::AttackScheme other = attack::plan_attack(
        profiling->profile.segments[0], profiling->trigger_sample, spc, 60);

    const auto bundle = runner.guided_bundle({}, scheme);
    const attack::AttackScheme copy = scheme;
    EXPECT_EQ(runner.guided_bundle(attack::DetectorConfig{}, copy).get(), bundle.get());
    EXPECT_NE(runner.guided_bundle({}, other).get(), bundle.get());

    attack::DetectorConfig zone_bit;
    zone_bit.zone_bits[3] += 1;
    attack::DetectorConfig rearm;
    rearm.auto_rearm = true;
    for (const attack::DetectorConfig& detector : {zone_bit, rearm}) {
        const std::string where = detector.auto_rearm ? "auto_rearm" : "zone bit";
        const auto own = runner.guided_bundle(detector, scheme);
        EXPECT_NE(own.get(), bundle.get()) << where;
        EXPECT_EQ(runner.guided_bundle(detector, scheme).get(), own.get()) << where;
        SweepRunner fresh(*platform, RunnerConfig{1});
        expect_same_guided(*own, *fresh.guided_bundle(detector, scheme), where);
    }

    const attack::AttackScheme blind = blind_scheme(50, 20);
    const auto replays = runner.blind_bundle(blind, 3, 99);
    EXPECT_EQ(runner.blind_bundle(blind, 3, 99).get(), replays.get());
    const auto reseeded = runner.blind_bundle(blind, 3, 100);
    EXPECT_NE(reseeded.get(), replays.get());
    SweepRunner fresh(*platform, RunnerConfig{1});
    expect_same_blind(*reseeded, *fresh.blind_bundle(blind, 3, 100), "offset seed");
}

std::uint64_t cosim_cycles() { return metrics::counter("cosim.cycles").total(); }

/// RAII restore of the process-wide metrics switch these tests turn on.
struct MetricsOnGuard {
    bool was_on = metrics::enabled();
    MetricsOnGuard() { metrics::set_enabled(true); }
    ~MetricsOnGuard() { metrics::set_enabled(was_on); }
};

// One prefetch batch fills every bundle exactly as one-request fills do.
// It co-simulates a request repeated within it once, and consuming the
// prefetched bundles co-simulates nothing. The 11-offset blind bundle
// spans a full and a partial lane group. The runners keep their traces,
// so each blind trace is also checked against a lone co-sim.
TEST(SweepRunner, PrefetchMatchesSingleFills) {
    MetricsOnGuard metrics_on;
    const BatchVictim& v = batch_victim();
    const std::vector<attack::AttackScheme> guided = batch_guided_schemes();
    ASSERT_GE(guided.size(), 6u);
    const std::vector<BlindRequest> blind = {{blind_scheme(40, 60), 11, 5},
                                             {blind_scheme(25, 90), 2, 6}};
    // One co-sim per distinct guided scheme (the last repeats the first)
    // and per blind offset.
    const std::uint64_t cosim_length = v.platform.engine().schedule().total_cycles;
    const std::uint64_t prefetch_cycles =
        cosim_length * (guided.size() - 1 + blind[0].n_offsets + blind[1].n_offsets);

    // The oracle of the 11-offset bundle: offset i is the i-th draw of the
    // offset seed over the cycles where the replay fits, co-simulated alone.
    const BlindRequest& wide = blind[0];
    std::vector<accel::VoltageTrace> oracle;
    {
        const std::size_t total = v.platform.engine().schedule().total_cycles;
        Rng rng(wide.offset_seed);
        for (std::size_t i = 0; i < wide.n_offsets; ++i) {
            const auto start = static_cast<std::size_t>(rng.uniform_int(
                0, static_cast<std::int64_t>(total - wide.scheme.total_cycles())));
            attack::BlindController controller(wide.scheme, start);
            BlindSource source(controller);
            oracle.push_back(v.platform.simulate_inference(source).capture_v);
        }
    }

    for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
        const std::string where = "threads " + std::to_string(threads);
        SweepRunner batched(v.platform, RunnerConfig{threads, true});
        const std::uint64_t before = cosim_cycles();
        batched.prefetch({}, guided, blind);
        const std::uint64_t prefetched = cosim_cycles();
        EXPECT_EQ(prefetched - before, prefetch_cycles) << where;
        std::vector<std::shared_ptr<const GuidedTraceBundle>> got_guided;
        for (const attack::AttackScheme& scheme : guided) {
            got_guided.push_back(batched.guided_bundle({}, scheme));
        }
        std::vector<std::shared_ptr<const BlindTraceBundle>> got_blind;
        for (const BlindRequest& r : blind) {
            got_blind.push_back(batched.blind_bundle(r.scheme, r.n_offsets, r.offset_seed));
        }
        EXPECT_EQ(cosim_cycles(), prefetched) << where << ": a stored bundle refilled";

        SweepRunner single(v.platform, RunnerConfig{threads, true});
        for (std::size_t i = 0; i < guided.size(); ++i) {
            expect_same_guided(*got_guided[i], *single.guided_bundle({}, guided[i]), where);
        }
        for (std::size_t b = 0; b < blind.size(); ++b) {
            const BlindRequest& r = blind[b];
            expect_same_blind(*got_blind[b],
                              *single.blind_bundle(r.scheme, r.n_offsets, r.offset_seed),
                              where);
        }
        for (std::size_t i = 0; i < oracle.size(); ++i) {
            EXPECT_TRUE(same_trace(got_blind[0]->traces[i], oracle[i]))
                << where << ": offset " << i << " differs from its oracle";
        }
    }
}

// A default runner keeps plans only: its bundles hold no trace, and each
// plan, made in the tick loop, equals, windows and factor bits, the plan
// a cache_traces runner makes from the trace it keeps. The fills count
// the same plans and co-simulate the same cycles.
TEST(SweepRunner, DefaultBundlesHoldPlansNotTraces) {
    MetricsOnGuard metrics_on;
    const BatchVictim& v = batch_victim();
    const std::vector<attack::AttackScheme> guided = batch_guided_schemes();
    const std::vector<BlindRequest> blind = {{blind_scheme(40, 60), 11, 5}};
    const auto counts = [] {
        return std::vector<std::uint64_t>{metrics::counter("overlay.plans").total(),
                                          metrics::counter("overlay.unsafe_windows").total(),
                                          metrics::counter("overlay.window_cycles").total(),
                                          cosim_cycles()};
    };

    EXPECT_FALSE(RunnerConfig{}.cache_traces);
    for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
        const std::string where = "threads " + std::to_string(threads);
        metrics::reset();
        SweepRunner plans_only(v.platform, RunnerConfig{threads});
        plans_only.prefetch({}, guided, blind);
        const std::vector<std::uint64_t> plan_counts = counts();
        metrics::reset();
        SweepRunner traced(v.platform, RunnerConfig{threads, true});
        traced.prefetch({}, guided, blind);
        EXPECT_EQ(counts(), plan_counts) << where;
        EXPECT_GT(plan_counts[1], 0u) << where << ": no plan has a window";

        for (const attack::AttackScheme& scheme : guided) {
            const auto got = plans_only.guided_bundle({}, scheme);
            const auto want = traced.guided_bundle({}, scheme);
            EXPECT_TRUE(got->trace.empty()) << where;
            EXPECT_FALSE(want->trace.empty()) << where;
            EXPECT_TRUE(same_plan(got->plan, want->plan)) << where << ": plan differs";
        }
        const BlindRequest& r = blind[0];
        const auto got = plans_only.blind_bundle(r.scheme, r.n_offsets, r.offset_seed);
        const auto want = traced.blind_bundle(r.scheme, r.n_offsets, r.offset_seed);
        EXPECT_TRUE(got->traces.empty()) << where;
        ASSERT_EQ(want->traces.size(), r.n_offsets) << where;
        ASSERT_EQ(got->plans.size(), want->plans.size()) << where;
        for (std::size_t i = 0; i < want->plans.size(); ++i) {
            EXPECT_TRUE(same_plan(got->plans[i], want->plans[i]))
                << where << ": offset " << i << " plan differs";
        }
    }
}

// A scheme whose controller cannot be built (100,000 strikes overflow the
// 73,728-bit signal RAM) fails its own request — guided or blind — and no
// other, at every thread count, and the failure is not stored: each later
// request refills and throws again.
TEST(SweepRunner, BadSchemeFailsOnlyItsOwnTrace) {
    const BatchVictim& v = batch_victim();
    const std::vector<attack::AttackScheme> guided = batch_guided_schemes();
    const attack::AttackScheme& good = guided[0];
    const attack::AttackScheme& good2 = guided[1];
    attack::AttackScheme bad;
    bad.num_strikes = 100000;
    bad.gap_cycles = 1;
    const BlindRequest blind_good{blind_scheme(40, 60), 9, 5};

    for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
        const std::string where = "threads " + std::to_string(threads);
        SweepRunner fresh(v.platform, RunnerConfig{threads});
        const auto want_good = fresh.guided_bundle({}, good);
        const auto want_good2 = fresh.guided_bundle({}, good2);
        const auto want_blind = fresh.blind_bundle(blind_good.scheme, blind_good.n_offsets,
                                                   blind_good.offset_seed);

        SweepRunner runner(v.platform, RunnerConfig{threads});
        EXPECT_NO_THROW(runner.prefetch({}, {good, bad, good2},
                                        {{bad, 3, 5}, blind_good}))
            << where;
        for (int round = 0; round < 2; ++round) {
            EXPECT_THROW(runner.guided_bundle({}, bad), ConfigError) << where;
            EXPECT_THROW(runner.blind_bundle(bad, 3, 5), ConfigError) << where;
            expect_same_guided(*runner.guided_bundle({}, good2), *want_good2, where);
            expect_same_guided(*runner.guided_bundle({}, good), *want_good, where);
            expect_same_blind(*runner.blind_bundle(blind_good.scheme, blind_good.n_offsets,
                                                   blind_good.offset_seed),
                              *want_blind, where);
        }

        // The same holds for a bad scheme's first request.
        SweepRunner cold(v.platform, RunnerConfig{threads});
        EXPECT_THROW(cold.guided_bundle({}, bad), ConfigError) << where;
        EXPECT_THROW(cold.blind_bundle(bad, 3, 5), ConfigError) << where;
        expect_same_guided(*cold.guided_bundle({}, good2), *want_good2, where);
    }
}

TEST(DspSweep, MatchesPointwiseCharacterization) {
    DspRigConfig cfg;
    cfg.trials = 400;
    const std::vector<std::size_t> cells = {4000, 12000, 20000};

    RunManifest manifest;
    const auto sweep = run_dsp_characterization_sweep(cells, cfg, 4, &manifest);
    ASSERT_EQ(sweep.size(), cells.size());
    EXPECT_EQ(manifest.points.size(), cells.size());

    for (std::size_t i = 0; i < cells.size(); ++i) {
        const DspRigResult ref = run_dsp_characterization(cells[i], cfg);
        EXPECT_EQ(sweep[i].n_striker_cells, ref.n_striker_cells);
        EXPECT_DOUBLE_EQ(sweep[i].duplication_rate, ref.duplication_rate);
        EXPECT_DOUBLE_EQ(sweep[i].random_rate, ref.random_rate);
        EXPECT_DOUBLE_EQ(sweep[i].min_voltage, ref.min_voltage);
    }
}

} // namespace
} // namespace deepstrike::sim
