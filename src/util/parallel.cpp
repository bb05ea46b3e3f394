#include "util/parallel.hpp"

#include <algorithm>
#include <atomic>
#include <string>

#include "util/error.hpp"
#include "util/trace.hpp"

namespace deepstrike {

namespace {

std::mutex g_global_pool_mutex;
std::unique_ptr<ThreadPool> g_global_pool;             // guarded by the mutex
std::atomic<std::size_t> g_requested_threads{0};       // 0 = auto

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

struct ThreadPool::Task::State {
    std::function<void()> fn;
    std::mutex mutex;
    std::condition_variable done_cv;
    bool done = false;
    std::exception_ptr error;
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
        std::shared_ptr<Task::State> task;
        {
            std::unique_lock<std::mutex> lock(mutex_);
            work_available_.wait(lock, [this] { return stop_ || !queue_.empty(); });
            if (queue_.empty()) return; // stop_ set and queue drained
            task = std::move(queue_.front());
            queue_.pop_front();
        }
        run_task(task);
    }
}

void ThreadPool::run_task(const std::shared_ptr<Task::State>& state) {
    std::function<void()> fn = std::move(state->fn);
    std::exception_ptr error;
    try {
        fn();
    } catch (...) {
        error = std::current_exception();
    }
    {
        std::lock_guard<std::mutex> lock(state->mutex);
        state->error = error;
        state->done = true;
    }
    state->done_cv.notify_all();
}

std::shared_ptr<ThreadPool::Task::State> ThreadPool::try_pop() {
    std::lock_guard<std::mutex> lock(mutex_);
    if (queue_.empty()) return nullptr;
    auto task = std::move(queue_.front());
    queue_.pop_front();
    return task;
}

ThreadPool::Task ThreadPool::submit(std::function<void()> fn) {
    expects(static_cast<bool>(fn), "ThreadPool::submit: callable required");
    auto state = std::make_shared<Task::State>();
    state->fn = std::move(fn);
    {
        std::lock_guard<std::mutex> lock(mutex_);
        expects(!stop_, "ThreadPool::submit: pool is shutting down");
        queue_.push_back(state);
    }
    work_available_.notify_one();
    return Task(this, state);
}

void ThreadPool::Task::wait() {
    expects(state_ != nullptr, "ThreadPool::Task::wait: empty handle");
    for (;;) {
        {
            std::unique_lock<std::mutex> lock(state_->mutex);
            if (state_->done) {
                if (state_->error) std::rethrow_exception(state_->error);
                return;
            }
        }
        // Not done: either still queued (we can run it or a sibling
        // ourselves) or being executed by another thread (then the queue
        // will drain and we block until its completion signal).
        if (auto other = pool_->try_pop()) {
            pool_->run_task(other);
            continue;
        }
        std::unique_lock<std::mutex> lock(state_->mutex);
        state_->done_cv.wait(lock, [this] { return state_->done; });
    }
}

void ThreadPool::for_each(std::size_t count,
                          const std::function<void(std::size_t)>& fn,
                          std::size_t width) {
    expects(static_cast<bool>(fn), "ThreadPool::for_each: callable required");
    if (count == 0) return;

    std::size_t w = width == 0 ? thread_count() : width;
    w = std::min(w, count);
    if (w <= 1) {
        // Strictly sequential, index order. Same semantics as the
        // concurrent path: every item runs; the first exception is
        // rethrown after the sweep completes.
        std::exception_ptr first_error;
        for (std::size_t i = 0; i < count; ++i) {
            try {
                fn(i);
            } catch (...) {
                if (!first_error) first_error = std::current_exception();
            }
        }
        if (first_error) std::rethrow_exception(first_error);
        return;
    }

    auto next = std::make_shared<std::atomic<std::size_t>>(0);
    auto error_mutex = std::make_shared<std::mutex>();
    auto first_error = std::make_shared<std::exception_ptr>();

    auto drain = [count, &fn, next, error_mutex, first_error]() {
        for (;;) {
            const std::size_t i = next->fetch_add(1, std::memory_order_relaxed);
            if (i >= count) return;
            try {
                fn(i);
            } catch (...) {
                std::lock_guard<std::mutex> lock(*error_mutex);
                if (!*first_error) *first_error = std::current_exception();
                // Keep draining indices so the sweep finishes promptly.
            }
        }
    };

    std::vector<Task> helpers;
    helpers.reserve(w - 1);
    for (std::size_t t = 0; t + 1 < w; ++t) helpers.push_back(submit(drain));
    drain(); // the calling thread participates
    for (Task& h : helpers) h.wait();
    if (*first_error) std::rethrow_exception(*first_error);
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
    if (count == 0) return;
    if (threads == 1 || count == 1) {
        // Avoid touching the pool for sequential sweeps.
        std::exception_ptr first_error;
        for (std::size_t i = 0; i < count; ++i) {
            try {
                fn(i);
            } catch (...) {
                if (!first_error) first_error = std::current_exception();
            }
        }
        if (first_error) std::rethrow_exception(first_error);
        return;
    }
    ThreadPool::global().for_each(count, fn, threads);
}

} // namespace deepstrike
