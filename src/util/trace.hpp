// Lightweight phase tracer emitting Chrome trace-event JSON.
//
// `trace::Span` is an RAII complete-event ("ph":"X"): construction stamps
// the start, destruction stamps the duration. Events from every thread
// accumulate in one process-wide list: recording a span costs one
// steady_clock read at each end and one mutex-guarded append. Spans are
// phase-granular (campaign, prefetch, lane group, point, evaluation), so a
// whole fig5b-sized campaign appends under a hundred events and the lock
// is never a hot path; a thread's lane number is its only per-thread state.
//
// The output loads directly in Perfetto (https://ui.perfetto.dev) or
// chrome://tracing: one lane ("tid") per recording thread, named via
// thread-name metadata events — `sim::SweepRunner` workers register as
// "worker-N", the driving thread as "main". docs/observability.md shows
// the span hierarchy and a worked Perfetto example.
//
// Tracing is observe-only and off by default: when disabled (no
// `--trace-out` sink), Span construction is a relaxed load and a branch.
// Wall-clock times stay in the trace file; they never reach campaign
// reports, which remain byte-identical with tracing on or off.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "util/json.hpp"

namespace deepstrike::trace {

/// Globally enables/disables recording (the CLI enables it when a
/// `--trace-out` sink is set). Off by default. Enabling resets the
/// session: the event list is cleared and the time origin re-zeroed.
void set_enabled(bool on);
bool enabled();

/// Names the calling thread's lane in the trace viewer ("main",
/// "worker-3"). Safe to call when disabled; the name sticks for the
/// thread's lifetime.
void set_thread_name(const std::string& name);

/// One recorded event (a completed span or an instant marker).
struct Event {
    std::string name;
    std::string category;
    std::uint64_t start_us = 0; // microseconds since session start
    std::uint64_t duration_us = 0;
    std::uint32_t tid = 0;      // lane: stable per recording thread
    bool instant = false;
};

/// RAII span: records a complete event covering its lifetime.
/// Nest freely — the viewer stacks overlapping spans on the same lane.
class Span {
public:
    explicit Span(std::string name, std::string category = "sim");
    ~Span();

    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;

private:
    std::string name_;
    std::string category_;
    std::uint64_t start_us_ = 0;
    bool active_ = false;
};

/// Records a zero-duration instant event ("ph":"i") on the calling
/// thread's lane — e.g. the detector trigger moment.
void instant(const std::string& name, const std::string& category = "sim");

/// All events recorded since the session started, by every thread
/// (exited ones too), sorted by (tid, start). For tests and in-process
/// summaries.
std::vector<Event> events();

/// Lane-number -> thread name map for the current session.
std::vector<std::pair<std::uint32_t, std::string>> thread_names();

/// Serializes the session as a Chrome trace-event document:
/// {"displayTimeUnit":"ms","traceEvents":[...]} with "X" span events,
/// "i" instants and "M" thread_name metadata records.
Json to_chrome_json();

/// Writes to_chrome_json() to `path`; returns false on I/O failure.
bool write_chrome_json(const std::string& path);

} // namespace deepstrike::trace
