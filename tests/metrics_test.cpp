#include <gtest/gtest.h>

#include <algorithm>
#include <latch>
#include <thread>
#include <vector>

#include "util/error.hpp"
#include "util/metrics.hpp"
#include "util/trace.hpp"

namespace deepstrike {
namespace {

/// Enables collection for one test and restores the off-default after,
/// resetting accumulated values both ways so tests stay independent.
struct MetricsOn {
    MetricsOn() {
        metrics::reset();
        metrics::set_enabled(true);
    }
    ~MetricsOn() {
        metrics::set_enabled(false);
        metrics::reset();
    }
};

const metrics::CounterSnapshot* find_counter(const metrics::MetricsSnapshot& snap,
                                             const std::string& name) {
    for (const auto& c : snap.counters) {
        if (c.name == name) return &c;
    }
    return nullptr;
}

TEST(Metrics, DisabledHandlesAreNoOps) {
    metrics::reset();
    ASSERT_FALSE(metrics::enabled());
    metrics::Counter& c = metrics::counter("test.noop_counter");
    c.add(7);
    EXPECT_EQ(c.total(), 0u);
    metrics::Histogram& h = metrics::histogram("test.noop_hist");
    h.observe(3);
    metrics::Gauge& g = metrics::gauge("test.noop_gauge");
    g.set(5);
    EXPECT_EQ(g.value(), 0);

    const auto snap = metrics::snapshot();
    const auto* cs = find_counter(snap, "test.noop_counter");
    ASSERT_NE(cs, nullptr);
    EXPECT_EQ(cs->value, 0u);
}

TEST(Metrics, CounterAccumulatesAndRegistryDedupsByName) {
    MetricsOn on;
    metrics::Counter& a = metrics::counter("test.counter", "items", "help text");
    metrics::Counter& b = metrics::counter("test.counter");
    EXPECT_EQ(&a, &b);
    EXPECT_EQ(a.unit(), "items");
    a.add();
    b.add(9);
    EXPECT_EQ(a.total(), 10u);

    metrics::reset();
    EXPECT_EQ(a.total(), 0u);
}

TEST(Metrics, RacingByNameUpdatesAreExact) {
    MetricsOn on;
    constexpr std::size_t kThreads = 4;
    constexpr std::uint64_t kUpdatesPerThread = 10'000;

    // Product sites look their metric up by name on every update. These two
    // names are new, so the threads, released together, also race to
    // register them.
    std::latch start(kThreads);
    std::vector<std::thread> threads;
    for (std::size_t t = 0; t < kThreads; ++t) {
        threads.emplace_back([&, t] {
            start.arrive_and_wait();
            for (std::uint64_t i = 0; i < kUpdatesPerThread; ++i) {
                metrics::counter("test.racing_counter").add();
                metrics::histogram("test.racing_hist").observe(t + 1);
            }
        });
    }
    for (auto& t : threads) t.join();

    EXPECT_EQ(metrics::counter("test.racing_counter").total(),
              kThreads * kUpdatesPerThread);
    const auto snap = metrics::snapshot();
    const auto hs = std::find_if(snap.histograms.begin(), snap.histograms.end(),
                                 [](const auto& h) { return h.name == "test.racing_hist"; });
    ASSERT_NE(hs, snap.histograms.end());
    EXPECT_EQ(hs->count, kThreads * kUpdatesPerThread);
    EXPECT_EQ(hs->sum, kUpdatesPerThread * (1 + 2 + 3 + 4));
    EXPECT_EQ(hs->min, 1u);
    EXPECT_EQ(hs->max, kThreads);
}

TEST(Metrics, HistogramBucketsAndSummaryStats) {
    MetricsOn on;
    metrics::Histogram& h =
        metrics::histogram("test.bucket_hist", "units", "", {10, 100});
    h.observe(5);    // bucket 0 (<= 10)
    h.observe(10);   // bucket 0
    h.observe(99);   // bucket 1 (<= 100)
    h.observe(1000); // overflow bucket

    const auto snap = metrics::snapshot();
    for (const auto& hs : snap.histograms) {
        if (hs.name != "test.bucket_hist") continue;
        ASSERT_EQ(hs.bucket_counts.size(), 3u);
        EXPECT_EQ(hs.bucket_counts[0], 2u);
        EXPECT_EQ(hs.bucket_counts[1], 1u);
        EXPECT_EQ(hs.bucket_counts[2], 1u);
        EXPECT_EQ(hs.count, 4u);
        EXPECT_EQ(hs.sum, 1114u);
        EXPECT_EQ(hs.min, 5u);
        EXPECT_EQ(hs.max, 1000u);
        EXPECT_DOUBLE_EQ(hs.mean(), 1114.0 / 4.0);
        EXPECT_EQ(hs.approx_quantile(0.5), 10u);  // 2nd of 4 lands in bucket 0
        EXPECT_EQ(hs.approx_quantile(1.0), 1000u); // overflow reports max
    }
}

TEST(Metrics, HistogramRejectsUnsortedBounds) {
    EXPECT_THROW(metrics::histogram("test.bad_bounds", "", "", {5, 3}),
                 ContractError);
}

TEST(Metrics, SnapshotJsonIsSortedAndComplete) {
    MetricsOn on;
    metrics::counter("test.json_b").add(2);
    metrics::counter("test.json_a").add(1);
    metrics::gauge("test.json_gauge", "items").set(-3);
    metrics::histogram("test.json_hist").observe(4);

    const auto snap = metrics::snapshot();
    for (std::size_t i = 1; i < snap.counters.size(); ++i) {
        EXPECT_LT(snap.counters[i - 1].name, snap.counters[i].name);
    }
    const std::string json = snap.to_json().dump();
    for (const char* needle :
         {"\"test.json_a\"", "\"test.json_b\"", "\"test.json_gauge\"",
          "\"test.json_hist\"", "\"bucket_bounds\"", "\"bucket_counts\"",
          "\"counters\"", "\"gauges\"", "\"histograms\""}) {
        EXPECT_NE(json.find(needle), std::string::npos) << needle;
    }
    EXPECT_NE(json.find("-3"), std::string::npos);
}

TEST(Trace, DisabledSpansRecordNothing) {
    trace::set_enabled(false);
    {
        trace::Span span("test.quiet");
        trace::instant("test.quiet_instant");
    }
    trace::set_enabled(true); // resets the session buffers
    EXPECT_TRUE(trace::events().empty());
    trace::set_enabled(false);
}

TEST(Trace, SpansAndInstantsRoundTripThroughChromeJson) {
    trace::set_enabled(true);
    trace::set_thread_name("test-main");
    {
        trace::Span outer("test.outer", "unit");
        trace::Span inner("test.inner", "unit");
        trace::instant("test.marker", "unit");
    }
    const auto events = trace::events();
    trace::set_enabled(false);

    ASSERT_EQ(events.size(), 3u);
    std::size_t spans = 0;
    std::size_t instants = 0;
    for (const auto& e : events) {
        (e.instant ? instants : spans) += 1;
        EXPECT_EQ(e.category, "unit");
    }
    EXPECT_EQ(spans, 2u);
    EXPECT_EQ(instants, 1u);

    const std::string json = trace::to_chrome_json().dump();
    for (const char* needle :
         {"\"traceEvents\"", "\"displayTimeUnit\"", "\"ph\":\"X\"",
          "\"ph\":\"i\"", "\"ph\":\"M\"", "\"thread_name\"", "\"test-main\"",
          "\"test.outer\"", "\"test.inner\"", "\"test.marker\""}) {
        EXPECT_NE(json.find(needle), std::string::npos) << needle;
    }
}

TEST(Trace, WorkerThreadsGetTheirOwnLanes) {
    trace::set_enabled(true);
    {
        trace::Span main_span("test.lane_main");
    }
    std::thread worker([] {
        trace::set_thread_name("test-worker");
        trace::Span span("test.lane_worker");
    });
    worker.join();
    // The worker has exited; its lane keeps its name and its event.
    const auto events = trace::events();
    const auto names = trace::thread_names();
    trace::set_enabled(false);

    ASSERT_EQ(events.size(), 2u);
    EXPECT_NE(events[0].tid, events[1].tid);
    const auto worker_event =
        std::find_if(events.begin(), events.end(),
                     [](const trace::Event& e) { return e.name == "test.lane_worker"; });
    ASSERT_NE(worker_event, events.end());
    const std::pair<std::uint32_t, std::string> worker_name{worker_event->tid, "test-worker"};
    EXPECT_NE(std::find(names.begin(), names.end(), worker_name), names.end());
}

} // namespace
} // namespace deepstrike
