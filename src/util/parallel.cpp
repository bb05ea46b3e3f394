#include "util/parallel.hpp"

#include <algorithm>
#include <atomic>
#include <exception>
#include <string>

#include "util/error.hpp"
#include "util/trace.hpp"

namespace deepstrike {

namespace {

std::mutex g_global_pool_mutex;
std::unique_ptr<ThreadPool> g_global_pool;             // guarded by the mutex
std::atomic<std::size_t> g_requested_threads{0};       // 0 = auto

/// The sequential loop of for_each at width <= 1 and parallel_for at one
/// thread: index order, every item runs, the first exception is rethrown
/// at the end.
void run_in_order(std::size_t count, const std::function<void(std::size_t)>& fn) {
    std::exception_ptr first_error;
    for (std::size_t i = 0; i < count; ++i) {
        try {
            fn(i);
        } catch (...) {
            if (!first_error) first_error = std::current_exception();
        }
    }
    if (first_error) std::rethrow_exception(first_error);
}

} // namespace

std::size_t default_thread_count() {
    const unsigned hw = std::thread::hardware_concurrency();
    return hw == 0 ? 4 : hw;
}

std::size_t max_thread_count() { return std::max<std::size_t>(256, default_thread_count()); }

void set_global_thread_count(std::size_t threads) {
    if (threads > max_thread_count()) {
        throw ConfigError("thread count " + std::to_string(threads) + " exceeds " +
                          std::to_string(max_thread_count()));
    }
    g_requested_threads.store(threads, std::memory_order_relaxed);
}

std::size_t global_thread_count() {
    const std::size_t requested = g_requested_threads.load(std::memory_order_relaxed);
    return requested == 0 ? default_thread_count() : requested;
}

/// One parallel loop. Items are claimed from `next`; the caller waits
/// until `finished` reaches `count`. `fn` is only valid until for_each
/// returns, which is never before every claimable index has finished, so
/// a late claim (i >= count) returns without touching it.
struct ThreadPool::Loop {
    Loop(std::size_t count, const std::function<void(std::size_t)>& fn)
        : count(count), fn(&fn) {}

    const std::size_t count;
    const std::function<void(std::size_t)>* const fn;
    std::atomic<std::size_t> next{0};
    std::mutex mutex;
    std::condition_variable done_cv;
    std::size_t finished = 0;  // guarded by mutex
    std::exception_ptr error;  // first caught; guarded by mutex

    /// Runs items until none is left to claim.
    void drain() {
        for (;;) {
            const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
            if (i >= count) return;
            std::exception_ptr item_error;
            try {
                (*fn)(i);
            } catch (...) {
                item_error = std::current_exception();
            }
            bool last = false;
            {
                std::lock_guard<std::mutex> lock(mutex);
                if (item_error && !error) error = item_error;
                last = ++finished == count;
            }
            if (last) done_cv.notify_all();
        }
    }

    bool done() {
        std::lock_guard<std::mutex> lock(mutex);
        return finished == count;
    }
};

ThreadPool::ThreadPool(std::size_t threads) {
    expects(threads <= max_thread_count(), "ThreadPool: at most max_thread_count() workers");
    const std::size_t n = threads == 0 ? default_thread_count() : threads;
    workers_.reserve(n);
    for (std::size_t t = 0; t < n; ++t) {
        try {
            workers_.emplace_back([this, t] {
                // Lane label for --trace-out viewers; free when tracing is off.
                trace::set_thread_name("worker-" + std::to_string(t));
                worker_loop();
            });
        } catch (const std::exception& e) {
            // The destructor does not run for a throwing constructor, and
            // a joinable std::thread destroyed unjoined terminates.
            stop_and_join();
            throw Error("ThreadPool: could not start worker " + std::to_string(t) + " of " +
                        std::to_string(n) + ": " + e.what());
        }
    }
}

ThreadPool::~ThreadPool() { stop_and_join(); }

void ThreadPool::stop_and_join() {
    {
        std::lock_guard<std::mutex> lock(mutex_);
        stop_ = true;
    }
    work_available_.notify_all();
    for (std::thread& t : workers_) t.join();
}

void ThreadPool::worker_loop() {
    for (;;) {
        std::shared_ptr<Loop> loop;
        {
            std::unique_lock<std::mutex> lock(mutex_);
            work_available_.wait(lock, [this] { return stop_ || !queue_.empty(); });
            if (queue_.empty()) return; // stop_ set and queue drained
            loop = std::move(queue_.front());
            queue_.pop_front();
        }
        loop->drain();
    }
}

std::shared_ptr<ThreadPool::Loop> ThreadPool::try_pop() {
    std::lock_guard<std::mutex> lock(mutex_);
    if (queue_.empty()) return nullptr;
    auto loop = std::move(queue_.front());
    queue_.pop_front();
    return loop;
}

void ThreadPool::for_each(std::size_t count,
                          const std::function<void(std::size_t)>& fn,
                          std::size_t width) {
    expects(static_cast<bool>(fn), "ThreadPool::for_each: callable required");
    const std::size_t w = std::min(width == 0 ? thread_count() : width, count);
    if (w <= 1) {
        run_in_order(count, fn);
        return;
    }

    auto loop = std::make_shared<Loop>(count, fn);
    {
        std::lock_guard<std::mutex> lock(mutex_);
        queue_.insert(queue_.end(), w - 1, loop);
    }
    for (std::size_t t = 0; t + 1 < w; ++t) work_available_.notify_one();

    loop->drain(); // the calling thread participates
    // Every item is claimed; while some still run elsewhere, help run
    // other queued loops (which may be the ones those items wait on).
    while (!loop->done()) {
        if (std::shared_ptr<Loop> other = try_pop()) {
            other->drain();
            continue;
        }
        std::unique_lock<std::mutex> lock(loop->mutex);
        loop->done_cv.wait(lock, [&] { return loop->finished == count; });
    }
    if (loop->error) std::rethrow_exception(loop->error);
}

ThreadPool& ThreadPool::global() {
    std::lock_guard<std::mutex> lock(g_global_pool_mutex);
    const std::size_t want = global_thread_count();
    if (!g_global_pool || g_global_pool->thread_count() != want) {
        g_global_pool.reset(); // drain the old pool before replacing it
        g_global_pool = std::make_unique<ThreadPool>(want);
    }
    return *g_global_pool;
}

void parallel_for(std::size_t count, const std::function<void(std::size_t)>& fn,
                  std::size_t threads) {
    expects(static_cast<bool>(fn), "parallel_for: callable required");
    if (threads == 1 || count <= 1) {
        run_in_order(count, fn); // sequential sweeps never touch the pool
        return;
    }
    ThreadPool::global().for_each(count, fn, threads);
}

} // namespace deepstrike
