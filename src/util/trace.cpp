#include "util/trace.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <fstream>
#include <map>
#include <mutex>

namespace deepstrike::trace {

namespace {

using Clock = std::chrono::steady_clock;

std::atomic<bool> g_enabled{false};

/// The session's events and lane names, from every thread; events of a
/// worker that has exited stay until the next session. Leaked, so spans
/// closing during static destruction still find it.
struct Collector {
    std::mutex mutex; // coarse: spans are phase-granular, not per-tick
    std::vector<Event> events;
    std::map<std::uint32_t, std::string> lane_names;
    std::uint32_t next_lane = 1;
    Clock::time_point origin = Clock::now();
};

Collector& collector() {
    static Collector* c = new Collector;
    return *c;
}

/// The calling thread's lane, numbered on first use; call with the
/// collector mutex held.
std::uint32_t this_lane(Collector& c) {
    thread_local std::uint32_t lane = 0;
    if (lane == 0) lane = c.next_lane++;
    return lane;
}

std::uint64_t now_us() {
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(
            Clock::now() - collector().origin)
            .count());
}

void record(Event e) {
    Collector& c = collector();
    std::lock_guard<std::mutex> lock(c.mutex);
    e.tid = this_lane(c);
    c.events.push_back(std::move(e));
}

} // namespace

void set_enabled(bool on) {
    if (on) {
        Collector& c = collector();
        std::lock_guard<std::mutex> lock(c.mutex);
        c.events.clear();
        c.origin = Clock::now();
    }
    g_enabled.store(on, std::memory_order_relaxed);
}

bool enabled() { return g_enabled.load(std::memory_order_relaxed); }

void set_thread_name(const std::string& name) {
    Collector& c = collector();
    std::lock_guard<std::mutex> lock(c.mutex);
    c.lane_names[this_lane(c)] = name;
}

Span::Span(std::string name, std::string category)
    : name_(std::move(name)), category_(std::move(category)) {
    if (!enabled()) return;
    active_ = true;
    start_us_ = now_us();
}

Span::~Span() {
    if (!active_) return;
    Event e;
    e.name = std::move(name_);
    e.category = std::move(category_);
    e.start_us = start_us_;
    const std::uint64_t end = now_us();
    e.duration_us = end > start_us_ ? end - start_us_ : 0;
    record(std::move(e));
}

void instant(const std::string& name, const std::string& category) {
    if (!enabled()) return;
    Event e;
    e.name = name;
    e.category = category;
    e.start_us = now_us();
    e.instant = true;
    record(std::move(e));
}

std::vector<Event> events() {
    std::vector<Event> all;
    {
        Collector& c = collector();
        std::lock_guard<std::mutex> lock(c.mutex);
        all = c.events;
    }
    std::stable_sort(all.begin(), all.end(), [](const Event& a, const Event& b) {
        return a.tid != b.tid ? a.tid < b.tid : a.start_us < b.start_us;
    });
    return all;
}

std::vector<std::pair<std::uint32_t, std::string>> thread_names() {
    Collector& c = collector();
    std::lock_guard<std::mutex> lock(c.mutex);
    std::vector<std::pair<std::uint32_t, std::string>> names;
    for (const auto& [lane, name] : c.lane_names) {
        if (!name.empty()) names.emplace_back(lane, name);
    }
    return names;
}

Json to_chrome_json() {
    Json root = Json::object();
    root.set("displayTimeUnit", "ms");

    Json trace_events = Json::array();
    for (const auto& [tid, name] : thread_names()) {
        Json meta = Json::object();
        meta.set("ph", "M");
        meta.set("name", "thread_name");
        meta.set("pid", 1);
        meta.set("tid", static_cast<std::uint64_t>(tid));
        Json args = Json::object();
        args.set("name", name);
        meta.set("args", std::move(args));
        trace_events.push(std::move(meta));
    }
    for (const Event& e : events()) {
        Json j = Json::object();
        j.set("ph", e.instant ? "i" : "X");
        j.set("name", e.name);
        j.set("cat", e.category);
        j.set("ts", e.start_us);
        if (!e.instant) j.set("dur", e.duration_us);
        j.set("pid", 1);
        j.set("tid", static_cast<std::uint64_t>(e.tid));
        if (e.instant) j.set("s", "t"); // thread-scoped instant
        trace_events.push(std::move(j));
    }
    root.set("traceEvents", std::move(trace_events));
    return root;
}

bool write_chrome_json(const std::string& path) {
    std::ofstream out(path, std::ios::trunc);
    if (!out) return false;
    out << to_chrome_json().dump(1) << '\n';
    return static_cast<bool>(out);
}

} // namespace deepstrike::trace
