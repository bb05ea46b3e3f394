// Process-wide metrics registry: named counters, gauges and integer-valued
// histograms, each one store shared by every thread.
//
// Design constraints, in order:
//   1. Observe-only. Metrics never influence simulation results: campaign
//      reports are byte-identical whether collection is on or off
//      (tests/observability_test.cpp enforces this).
//   2. Sized to the traffic. Instrumented code updates a metric once per
//      fault-walk block, co-sim lane group, overlay plan, GEMM layer call,
//      search batch, evaluation or sweep, never per tick or per op. Most
//      updates first look their metric up by name under the registry
//      mutex; the GEMM layer call, the most frequent, caches its handles.
//      So a counter or gauge is one atomic value and a histogram one record
//      under its own mutex: at this traffic a per-thread copy saves nothing.
//   3. Off by default, cheap when off. Collection is gated on a single
//      relaxed atomic flag set by the sinks (`--metrics-out`); when unset,
//      every handle method is a load-and-branch no-op. The truly hot
//      per-tick loops avoid even that by accumulating into plain local
//      counters and flushing once per co-simulation / inference.
//   4. Deterministic totals. Counter and histogram updates commute, and
//      instrumentation sites derive their values from logical work items
//      (ops, samples, cycles), never from scheduling — so totals are
//      identical at any thread count (also test-enforced). Gauges are
//      last-write-wins and must only be set from single-threaded phases.
//
// The metric name catalog lives in docs/observability.md; every name
// emitted by the simulator is documented there.
#pragma once

#include <atomic>
#include <cstdint>
#include <limits>
#include <mutex>
#include <string>
#include <vector>

#include "util/json.hpp"

namespace deepstrike::metrics {

namespace detail {
struct Registry;
} // namespace detail

/// Globally enables/disables collection (the CLI enables it when a
/// `--metrics-out` sink is set). Off by default.
void set_enabled(bool on);
bool enabled();

// ------------------------------------------------------------- snapshots

struct CounterSnapshot {
    std::string name, unit, help;
    std::uint64_t value = 0;
};

struct GaugeSnapshot {
    std::string name, unit, help;
    std::int64_t value = 0;
};

struct HistogramSnapshot {
    std::string name, unit, help;
    std::vector<std::uint64_t> bounds;
    std::vector<std::uint64_t> bucket_counts; // bounds.size() + 1 entries
    std::uint64_t count = 0;
    std::uint64_t sum = 0;
    std::uint64_t min = std::numeric_limits<std::uint64_t>::max(); // max() when empty
    std::uint64_t max = 0;

    double mean() const;
    /// Upper bound of the first bucket whose cumulative count reaches
    /// q * count (0 when empty); a coarse quantile for summaries.
    std::uint64_t approx_quantile(double q) const;
};

// --------------------------------------------------------------- handles

/// Monotonic counter. Obtain via metrics::counter(); handles are stable
/// for the process lifetime and safe to cache in function-local statics.
class Counter {
public:
    void add(std::uint64_t n = 1);

    /// Sum of every add() since the last reset().
    std::uint64_t total() const;

    const std::string& name() const { return name_; }
    const std::string& unit() const { return unit_; }
    const std::string& help() const { return help_; }

private:
    friend struct detail::Registry;
    Counter(std::string name, std::string unit, std::string help);

    std::string name_, unit_, help_;
    std::atomic<std::uint64_t> value_{0};
};

/// Last-write-wins signed value. Only set gauges from single-threaded
/// phases (setup, post-sweep reporting) or totals become schedule-dependent.
class Gauge {
public:
    void set(std::int64_t value);
    std::int64_t value() const;

    const std::string& name() const { return name_; }
    const std::string& unit() const { return unit_; }
    const std::string& help() const { return help_; }

private:
    friend struct detail::Registry;
    Gauge(std::string name, std::string unit, std::string help);

    std::string name_, unit_, help_;
    std::atomic<std::int64_t> value_{0};
};

/// Histogram over non-negative integer observations. Bucket i counts
/// observations <= bounds[i]; one implicit overflow bucket follows the
/// last bound. Count/sum/min/max are exact; every observation updates the
/// one record under the histogram's mutex.
class Histogram {
public:
    void observe(std::uint64_t value);

    const std::string& name() const { return record_.name; }
    const std::string& unit() const { return record_.unit; }
    const std::string& help() const { return record_.help; }
    const std::vector<std::uint64_t>& bounds() const { return record_.bounds; }

private:
    friend struct detail::Registry;
    Histogram(std::string name, std::string unit, std::string help,
              std::vector<std::uint64_t> bounds);

    /// Guards the record's counts; its name, unit, help and bounds never
    /// change after registration.
    mutable std::mutex mutex_;
    HistogramSnapshot record_;
};

/// Registers (or returns the existing) metric with this name. Unit/help
/// are recorded on first registration; re-registrations must agree on the
/// metric kind. Returned references stay valid for the process lifetime.
Counter& counter(const std::string& name, const std::string& unit = "",
                 const std::string& help = "");
Gauge& gauge(const std::string& name, const std::string& unit = "",
             const std::string& help = "");
/// Empty `bounds` selects power-of-two buckets 1, 2, 4, ... 2^20.
Histogram& histogram(const std::string& name, const std::string& unit = "",
                     const std::string& help = "",
                     std::vector<std::uint64_t> bounds = {});

/// View of every registered metric, sorted by name within each
/// kind. Deterministic for deterministic instrumentation (see header
/// comment); wall-clock never enters the registry.
struct MetricsSnapshot {
    std::vector<CounterSnapshot> counters;
    std::vector<GaugeSnapshot> gauges;
    std::vector<HistogramSnapshot> histograms;

    Json to_json() const;
};

MetricsSnapshot snapshot();

/// Zeroes every registered metric (registrations persist). For tests and
/// repeated in-process runs.
void reset();

/// Serializes snapshot() to `path`; returns false if the file cannot be
/// written.
bool write_json(const std::string& path);

} // namespace deepstrike::metrics
