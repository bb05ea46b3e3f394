// Persistent worker pool for the embarrassingly parallel sweeps
// (per-image accuracy evaluation, per-point campaign execution, rig
// characterization).
//
// One process-wide pool (ThreadPool::global()) is shared by every layer;
// its width is a runtime knob (set_global_thread_count / the CLI's
// --threads flag). Its workers are the only threads the program starts.
// The pool's one operation is a parallel loop: the caller and up to
// width - 1 workers claim its items from one shared index. A loop may run
// further loops from inside its items: a caller whose own items are all
// claimed helps run other queued loops while it waits, so nested loops (a
// campaign point evaluating images in parallel) cannot deadlock. An
// exception thrown by an item is rethrown to the loop's caller.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace deepstrike {

/// Number of workers used when a thread count of 0 (= auto) is requested.
std::size_t default_thread_count();

/// Largest worker count a pool accepts: 256, or the hardware thread count
/// where that is larger, so the automatic count always fits.
/// A count above it is rejected before any thread starts (a hostile
/// --threads value cannot exhaust the host's threads).
std::size_t max_thread_count();

/// Sets the width of the process-wide pool (0 = auto). Takes effect the
/// next time ThreadPool::global() is called; call it before starting
/// parallel work (the CLI does so while parsing --threads). Throws
/// ConfigError above max_thread_count().
void set_global_thread_count(std::size_t threads);

/// The currently effective global width (resolves 0 to the auto value).
std::size_t global_thread_count();

class ThreadPool {
public:
    /// Spawns `threads` persistent workers (0 = default_thread_count()).
    /// Throws ContractError above max_thread_count(), before any worker
    /// starts. When the host cannot start a worker, the workers already
    /// started are stopped and joined, and the constructor throws Error.
    explicit ThreadPool(std::size_t threads = 0);

    /// Drains the queue, then joins the workers.
    ~ThreadPool();

    ThreadPool(const ThreadPool&) = delete;
    ThreadPool& operator=(const ThreadPool&) = delete;

    std::size_t thread_count() const { return workers_.size(); }

    /// Runs fn(i) for i in [0, count) over at most `width` concurrent
    /// threads (0 = pool width); the calling thread participates. Blocks
    /// until every item ran; the first exception caught is rethrown after
    /// the loop completes. width <= 1 runs strictly sequentially in index
    /// order on the calling thread.
    void for_each(std::size_t count, const std::function<void(std::size_t)>& fn,
                  std::size_t width = 0);

    /// The process-wide pool, (re)created on demand at the width requested
    /// via set_global_thread_count.
    static ThreadPool& global();

private:
    struct Loop;

    /// Stops the workers once the queue drains and joins them.
    void stop_and_join();
    void worker_loop();
    std::shared_ptr<Loop> try_pop();

    std::mutex mutex_;
    std::condition_variable work_available_;
    /// One entry per helper a loop asks for; an entry popped after its
    /// loop returned claims no item.
    std::deque<std::shared_ptr<Loop>> queue_;
    bool stop_ = false;
    std::vector<std::thread> workers_;
};

/// Runs fn(i) for i in [0, count) across `threads` workers (0 = auto) of
/// the global pool. Blocks until all items complete. fn must be safe to
/// call concurrently for distinct i.
void parallel_for(std::size_t count, const std::function<void(std::size_t)>& fn,
                  std::size_t threads = 0);

} // namespace deepstrike
