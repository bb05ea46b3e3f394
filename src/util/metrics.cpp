#include "util/metrics.hpp"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <map>
#include <memory>

#include "util/error.hpp"

namespace deepstrike::metrics {

namespace {

std::atomic<bool> g_enabled{false};

} // namespace

void set_enabled(bool on) { g_enabled.store(on, std::memory_order_relaxed); }
bool enabled() { return g_enabled.load(std::memory_order_relaxed); }

namespace detail {

/// One registry for the process; intentionally leaked so handles cached in
/// function-local statics stay valid through static destruction. Its mutex
/// guards the name maps; each metric guards its own value.
struct Registry {
    template <typename Metric>
    using ByName = std::map<std::string, std::unique_ptr<Metric>>;

    std::mutex mutex;
    ByName<Counter> counters;
    ByName<Gauge> gauges;
    ByName<Histogram> histograms;

    /// The metric of `metrics` named `name`, constructed from `args` first
    /// if there is none. A constructor that throws registers nothing.
    template <typename Metric, typename... Args>
    Metric& find_or_add(ByName<Metric>& metrics, const std::string& name, Args&&... args) {
        std::lock_guard<std::mutex> lock(mutex);
        auto it = metrics.find(name);
        if (it == metrics.end()) {
            std::unique_ptr<Metric> metric(new Metric(name, std::forward<Args>(args)...));
            it = metrics.emplace(name, std::move(metric)).first;
        }
        return *it->second;
    }

    static HistogramSnapshot read(const Histogram& h) {
        std::lock_guard<std::mutex> lock(h.mutex_);
        return h.record_;
    }

    static void zero(Counter& c) { c.value_.store(0, std::memory_order_relaxed); }
    static void zero(Gauge& g) { g.value_.store(0, std::memory_order_relaxed); }
    static void zero(Histogram& h) {
        std::lock_guard<std::mutex> lock(h.mutex_);
        HistogramSnapshot& r = h.record_;
        std::fill(r.bucket_counts.begin(), r.bucket_counts.end(), 0);
        r.count = 0;
        r.sum = 0;
        r.min = std::numeric_limits<std::uint64_t>::max();
        r.max = 0;
    }
};

} // namespace detail

namespace {

using detail::Registry;

Registry& registry() {
    static Registry* r = new Registry;
    return *r;
}

std::vector<std::uint64_t> default_bounds() {
    std::vector<std::uint64_t> b;
    for (std::uint64_t v = 1; v <= (1u << 20); v <<= 1) b.push_back(v);
    return b;
}

} // namespace

// ---------------------------------------------------------------- Counter

Counter::Counter(std::string name, std::string unit, std::string help)
    : name_(std::move(name)), unit_(std::move(unit)), help_(std::move(help)) {}

void Counter::add(std::uint64_t n) {
    if (!enabled()) return;
    value_.fetch_add(n, std::memory_order_relaxed);
}

std::uint64_t Counter::total() const { return value_.load(std::memory_order_relaxed); }

// ------------------------------------------------------------------ Gauge

Gauge::Gauge(std::string name, std::string unit, std::string help)
    : name_(std::move(name)), unit_(std::move(unit)), help_(std::move(help)) {}

void Gauge::set(std::int64_t value) {
    if (!enabled()) return;
    value_.store(value, std::memory_order_relaxed);
}

std::int64_t Gauge::value() const { return value_.load(std::memory_order_relaxed); }

// -------------------------------------------------------------- Histogram

Histogram::Histogram(std::string name, std::string unit, std::string help,
                     std::vector<std::uint64_t> bounds) {
    if (bounds.empty()) bounds = default_bounds();
    expects(std::is_sorted(bounds.begin(), bounds.end()),
            "metrics::histogram: bucket bounds must be ascending");
    record_.name = std::move(name);
    record_.unit = std::move(unit);
    record_.help = std::move(help);
    record_.bounds = std::move(bounds);
    record_.bucket_counts.assign(record_.bounds.size() + 1, 0);
}

void Histogram::observe(std::uint64_t value) {
    if (!enabled()) return;
    const std::vector<std::uint64_t>& b = record_.bounds;
    const auto bucket =
        static_cast<std::size_t>(std::lower_bound(b.begin(), b.end(), value) - b.begin());
    std::lock_guard<std::mutex> lock(mutex_);
    ++record_.bucket_counts[bucket];
    ++record_.count;
    record_.sum += value;
    record_.min = std::min(record_.min, value);
    record_.max = std::max(record_.max, value);
}

// ------------------------------------------------------------ registration

Counter& counter(const std::string& name, const std::string& unit,
                 const std::string& help) {
    Registry& reg = registry();
    return reg.find_or_add(reg.counters, name, unit, help);
}

Gauge& gauge(const std::string& name, const std::string& unit,
             const std::string& help) {
    Registry& reg = registry();
    return reg.find_or_add(reg.gauges, name, unit, help);
}

Histogram& histogram(const std::string& name, const std::string& unit,
                     const std::string& help, std::vector<std::uint64_t> bounds) {
    Registry& reg = registry();
    return reg.find_or_add(reg.histograms, name, unit, help, std::move(bounds));
}

// -------------------------------------------------------------- snapshots

double HistogramSnapshot::mean() const {
    return count == 0 ? 0.0
                      : static_cast<double>(sum) / static_cast<double>(count);
}

std::uint64_t HistogramSnapshot::approx_quantile(double q) const {
    if (count == 0) return 0;
    const auto target = static_cast<std::uint64_t>(
        std::ceil(q * static_cast<double>(count)));
    std::uint64_t cumulative = 0;
    for (std::size_t i = 0; i < bucket_counts.size(); ++i) {
        cumulative += bucket_counts[i];
        if (cumulative >= target) {
            return i < bounds.size() ? bounds[i] : max;
        }
    }
    return max;
}

MetricsSnapshot snapshot() {
    Registry& reg = registry();
    std::lock_guard<std::mutex> lock(reg.mutex);
    // The maps iterate in name order, so each kind comes out sorted.
    MetricsSnapshot snap;
    for (const auto& [name, c] : reg.counters) {
        snap.counters.push_back({name, c->unit(), c->help(), c->total()});
    }
    for (const auto& [name, g] : reg.gauges) {
        snap.gauges.push_back({name, g->unit(), g->help(), g->value()});
    }
    for (const auto& [name, h] : reg.histograms) {
        snap.histograms.push_back(Registry::read(*h));
    }
    return snap;
}

void reset() {
    Registry& reg = registry();
    std::lock_guard<std::mutex> lock(reg.mutex);
    for (auto& [name, c] : reg.counters) Registry::zero(*c);
    for (auto& [name, g] : reg.gauges) Registry::zero(*g);
    for (auto& [name, h] : reg.histograms) Registry::zero(*h);
}

Json MetricsSnapshot::to_json() const {
    Json root = Json::object();

    Json cs = Json::array();
    for (const CounterSnapshot& c : counters) {
        Json j = Json::object();
        j.set("name", c.name);
        if (!c.unit.empty()) j.set("unit", c.unit);
        if (!c.help.empty()) j.set("help", c.help);
        j.set("value", c.value);
        cs.push(std::move(j));
    }
    root.set("counters", std::move(cs));

    Json gs = Json::array();
    for (const GaugeSnapshot& g : gauges) {
        Json j = Json::object();
        j.set("name", g.name);
        if (!g.unit.empty()) j.set("unit", g.unit);
        if (!g.help.empty()) j.set("help", g.help);
        j.set("value", g.value);
        gs.push(std::move(j));
    }
    root.set("gauges", std::move(gs));

    Json hs = Json::array();
    for (const HistogramSnapshot& h : histograms) {
        Json j = Json::object();
        j.set("name", h.name);
        if (!h.unit.empty()) j.set("unit", h.unit);
        if (!h.help.empty()) j.set("help", h.help);
        j.set("count", h.count);
        j.set("sum", h.sum);
        if (h.count > 0) {
            j.set("min", h.min);
            j.set("max", h.max);
            j.set("mean", h.mean());
        }
        Json bounds = Json::array();
        for (std::uint64_t b : h.bounds) bounds.push(b);
        j.set("bucket_bounds", std::move(bounds));
        Json buckets = Json::array();
        for (std::uint64_t c : h.bucket_counts) buckets.push(c);
        j.set("bucket_counts", std::move(buckets));
        hs.push(std::move(j));
    }
    root.set("histograms", std::move(hs));
    return root;
}

bool write_json(const std::string& path) {
    std::ofstream out(path, std::ios::trunc);
    if (!out) return false;
    out << snapshot().to_json().dump(2) << '\n';
    return static_cast<bool>(out);
}

} // namespace deepstrike::metrics
