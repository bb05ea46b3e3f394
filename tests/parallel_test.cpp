#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <vector>

#include "util/error.hpp"
#include "util/parallel.hpp"

namespace deepstrike {
namespace {

TEST(Parallel, RunsEveryIndexExactlyOnce) {
    std::vector<std::atomic<int>> hits(1000);
    parallel_for(1000, [&](std::size_t i) { hits[i].fetch_add(1); });
    for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(Parallel, ZeroCountIsNoop) {
    bool called = false;
    parallel_for(0, [&](std::size_t) { called = true; });
    EXPECT_FALSE(called);
}

TEST(Parallel, SingleThreadFallback) {
    std::vector<int> order;
    parallel_for(10, [&](std::size_t i) { order.push_back(static_cast<int>(i)); }, 1);
    // One thread: strictly sequential.
    for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(Parallel, SumMatchesSequential) {
    std::vector<long> partial(5000, 0);
    parallel_for(5000, [&](std::size_t i) { partial[i] = static_cast<long>(i) * 3; }, 8);
    const long total = std::accumulate(partial.begin(), partial.end(), 0L);
    EXPECT_EQ(total, 3L * 5000 * 4999 / 2);
}

TEST(Parallel, MoreThreadsThanItems) {
    std::vector<std::atomic<int>> hits(3);
    parallel_for(3, [&](std::size_t i) { hits[i].fetch_add(1); }, 64);
    for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(Parallel, ExceptionPropagates) {
    EXPECT_THROW(
        parallel_for(100,
                     [](std::size_t i) {
                         if (i == 57) throw ConfigError("boom");
                     },
                     4),
        ConfigError);
}

TEST(Parallel, AllItemsStillRunAfterException) {
    std::vector<std::atomic<int>> hits(200);
    try {
        parallel_for(200, [&](std::size_t i) {
            hits[i].fetch_add(1);
            if (i == 3) throw ConfigError("early");
        });
    } catch (const ConfigError&) {
    }
    int total = 0;
    for (const auto& h : hits) total += h.load();
    EXPECT_EQ(total, 200);
}

TEST(Parallel, NullCallableRejected) {
    std::function<void(std::size_t)> empty;
    EXPECT_THROW(parallel_for(10, empty), ContractError);
}

TEST(Parallel, DefaultThreadCountPositive) {
    EXPECT_GE(default_thread_count(), 1u);
}

// An explicit thread count above the bound is rejected before any worker
// starts, and a count at the bound is accepted; none of these calls starts
// a thread.
TEST(Parallel, ThreadCountAboveBoundRejected) {
    EXPECT_GE(max_thread_count(), 256u);
    EXPECT_THROW(set_global_thread_count(max_thread_count() + 1), ConfigError);
    EXPECT_THROW(ThreadPool(max_thread_count() + 1), ContractError);
    EXPECT_NO_THROW(set_global_thread_count(max_thread_count()));
    set_global_thread_count(0); // still all hardware threads
    EXPECT_EQ(global_thread_count(), default_thread_count());
}

// The automatic count always fits under the bound, also on hosts with more
// than 256 hardware threads: a pool of 0 and the global pool at the
// default --threads 0 both start all hardware threads.
TEST(Parallel, AutomaticCountConstructs) {
    EXPECT_LE(default_thread_count(), max_thread_count());
    EXPECT_EQ(ThreadPool(0).thread_count(), default_thread_count());
    set_global_thread_count(0);
    EXPECT_EQ(ThreadPool::global().thread_count(), default_thread_count());
}

} // namespace
} // namespace deepstrike
