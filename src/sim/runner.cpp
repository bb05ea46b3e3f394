#include "sim/runner.hpp"

#include <algorithm>
#include <chrono>
#include <deque>
#include <exception>
#include <numeric>
#include <thread>

#include "sim/cosim_lanes.hpp"
#include "sim/experiment.hpp"
#include "util/error.hpp"
#include "util/metrics.hpp"
#include "util/parallel.hpp"
#include "util/rng.hpp"
#include "util/trace.hpp"

namespace deepstrike::sim {

namespace {

double seconds_since(std::chrono::steady_clock::time_point t0) {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
        .count();
}

// Trace-cache accounting. Hit/miss totals are functions of the request
// sequence alone (the cache dedups concurrent first requests under one
// mutex), so these counters are thread-count-independent like the rest.
void count_cache_hit() {
    if (metrics::enabled()) {
        metrics::counter("runner.trace_cache_hits", "lookups",
                         "voltage-trace cache lookups served from cache")
            .add();
    }
}

void count_cache_miss() {
    if (metrics::enabled()) {
        metrics::counter("runner.trace_cache_misses", "lookups",
                         "voltage-trace cache lookups requiring a co-sim")
            .add();
    }
}

void count_point_retry() {
    if (metrics::enabled()) {
        metrics::counter("runner.point_retries", "retries",
                         "sweep points rerun after a failed attempt")
            .add();
    }
}

void count_deadline_skip() {
    if (metrics::enabled()) {
        metrics::counter("runner.points_deadline_skipped", "points",
                         "sweep points skipped because the deadline expired")
            .add();
    }
}

std::uint64_t detector_hash(const attack::DetectorConfig& d) {
    std::uint64_t h = derive_seed(0xDE7EC708ULL, d.trigger_hw, d.hold_samples,
                                  d.auto_rearm ? 1u : 0u, d.rearm_samples);
    for (std::size_t bit : d.zone_bits) h = derive_seed(h, bit);
    return h;
}

std::uint64_t guided_key(const attack::AttackScheme& scheme, std::uint64_t detector) {
    return derive_seed(0x617D3DULL, SweepRunner::scheme_hash(scheme), detector);
}

std::uint64_t blind_key(const BlindRequest& request) {
    return derive_seed(0xB71ADULL, SweepRunner::scheme_hash(request.scheme),
                       request.n_offsets, request.offset_seed);
}

} // namespace

Json RunManifest::to_json() const {
    Json root = Json::object();
    root.set("sweep", sweep);
    root.set("threads", static_cast<std::uint64_t>(threads));
    root.set("points", static_cast<std::uint64_t>(points.size()));
    root.set("total_seconds", total_seconds);
    root.set("trace_cache_hits", static_cast<std::uint64_t>(trace_cache_hits));
    root.set("trace_cache_misses", static_cast<std::uint64_t>(trace_cache_misses));
    if (!metrics_out.empty()) root.set("metrics_out", metrics_out);
    if (!trace_out.empty()) root.set("trace_out", trace_out);
    if (partial) root.set("partial", true);
    if (points_skipped != 0) {
        root.set("points_skipped", static_cast<std::uint64_t>(points_skipped));
    }
    if (points_resumed != 0) {
        root.set("points_resumed", static_cast<std::uint64_t>(points_resumed));
    }
    if (!journal.empty()) root.set("journal", journal);

    Json pts = Json::array();
    for (const SweepPointStats& p : points) {
        Json j = Json::object();
        j.set("label", p.label);
        j.set("seconds", p.seconds);
        j.set("ok", p.ok);
        if (!p.ok && !p.skipped) j.set("error", p.error);
        if (p.retries != 0) j.set("retries", static_cast<std::uint64_t>(p.retries));
        if (p.skipped) j.set("skipped", true);
        pts.push(std::move(j));
    }
    root.set("point_stats", std::move(pts));
    return root;
}

struct SweepRunner::CacheEntry {
    std::mutex mutex;
    std::condition_variable ready_cv;
    // Set when prefetch created this entry and no task has looked it up
    // yet; guarded by cache_mutex_, not this->mutex.
    bool prefetched = false;
    bool ready = false;
    std::exception_ptr error;
    std::shared_ptr<const GuidedTraceBundle> guided;
    std::shared_ptr<const BlindTraceBundle> blind;

    /// Marks the entry ready — failed with `failure` when its fill failed —
    /// and wakes every lookup waiting on it. The filler sets the bundle
    /// first.
    void publish(std::exception_ptr failure = nullptr) {
        {
            std::lock_guard<std::mutex> lock(mutex);
            error = failure;
            ready = true;
        }
        ready_cv.notify_all();
    }

    /// Blocks until the entry is published; rethrows its fill's error.
    void await() {
        std::unique_lock<std::mutex> lock(mutex);
        ready_cv.wait(lock, [&] { return ready; });
        if (error) std::rethrow_exception(error);
    }
};

SweepRunner::SweepRunner(RunnerConfig config) : config_(config) {}

SweepRunner::SweepRunner(const Platform& platform, RunnerConfig config)
    : platform_(&platform), config_(config) {}

std::size_t SweepRunner::threads() const {
    return config_.threads == 0 ? global_thread_count() : config_.threads;
}

std::uint64_t SweepRunner::scheme_hash(const attack::AttackScheme& scheme) {
    return derive_seed(0x5C4E3EULL, scheme.attack_delay_cycles,
                       scheme.strike_cycles, scheme.gap_cycles,
                       scheme.num_strikes);
}

std::size_t SweepRunner::trace_cache_size() const {
    std::lock_guard<std::mutex> lock(cache_mutex_);
    return cache_.size();
}

std::shared_ptr<const GoldenStore> SweepRunner::golden_view(
    const data::Dataset& dataset, std::size_t n_images) {
    expects(platform_ != nullptr,
            "SweepRunner::golden_view: platform-bound runner required");
    return build_golden_store(platform_->engine().network(), dataset, n_images);
}

std::shared_ptr<SweepRunner::CacheEntry> SweepRunner::lookup(std::uint64_t key,
                                                             bool& creator,
                                                             bool prefetch) {
    if (!config_.cache_traces) {
        creator = true;
        cache_misses_.fetch_add(1, std::memory_order_relaxed);
        count_cache_miss();
        return std::make_shared<CacheEntry>();
    }
    std::lock_guard<std::mutex> lock(cache_mutex_);
    auto it = cache_.find(key);
    if (it != cache_.end()) {
        creator = false;
        // Hit/miss totals are a statement about logical work: prefetch
        // lookups count nothing, and the first consumer of a prefetched
        // entry inherits the miss it would have been charged had it filled
        // the entry itself.
        if (!prefetch) {
            if (it->second->prefetched) {
                it->second->prefetched = false;
                cache_misses_.fetch_add(1, std::memory_order_relaxed);
                count_cache_miss();
            } else {
                cache_hits_.fetch_add(1, std::memory_order_relaxed);
                count_cache_hit();
            }
        }
        return it->second;
    }
    creator = true;
    if (!prefetch) {
        cache_misses_.fetch_add(1, std::memory_order_relaxed);
        count_cache_miss();
    }
    auto entry = std::make_shared<CacheEntry>();
    entry->prefetched = prefetch;
    cache_.emplace(key, entry);
    return entry;
}

std::shared_ptr<const GuidedTraceBundle>
SweepRunner::guided_bundle(const attack::DetectorConfig& detector,
                           const attack::AttackScheme& scheme) {
    expects(platform_ != nullptr, "SweepRunner::guided_bundle: platform-bound runner required");
    bool creator = false;
    const std::shared_ptr<CacheEntry> entry =
        lookup(guided_key(scheme, detector_hash(detector)), creator);
    if (creator) fill(detector, {{entry, &scheme}}, {});
    entry->await();
    return entry->guided;
}

std::shared_ptr<const BlindTraceBundle>
SweepRunner::blind_bundle(const attack::AttackScheme& scheme, std::size_t n_offsets,
                          std::uint64_t offset_seed) {
    expects(platform_ != nullptr, "SweepRunner::blind_bundle: platform-bound runner required");
    const BlindRequest request{scheme, n_offsets, offset_seed};
    bool creator = false;
    const std::shared_ptr<CacheEntry> entry = lookup(blind_key(request), creator);
    if (creator) fill({}, {}, {{entry, &request}});
    entry->await();
    return entry->blind;
}

void SweepRunner::prefetch(const attack::DetectorConfig& detector,
                           const std::vector<attack::AttackScheme>& guided,
                           const std::vector<BlindRequest>& blind) {
    if (platform_ == nullptr || !config_.cache_traces) return;
    const std::uint64_t dhash = detector_hash(detector);

    // Claim every distinct request that is not cached yet (a repeated one
    // finds the entry its first occurrence claimed).
    std::vector<GuidedClaim> guided_claims;
    for (const attack::AttackScheme& scheme : guided) {
        bool creator = false;
        std::shared_ptr<CacheEntry> entry =
            lookup(guided_key(scheme, dhash), creator, /*prefetch=*/true);
        if (creator) guided_claims.push_back({std::move(entry), &scheme});
    }
    std::vector<BlindClaim> blind_claims;
    for (const BlindRequest& request : blind) {
        bool creator = false;
        std::shared_ptr<CacheEntry> entry =
            lookup(blind_key(request), creator, /*prefetch=*/true);
        if (creator) blind_claims.push_back({std::move(entry), &request});
    }
    if (guided_claims.empty() && blind_claims.empty()) return;

    trace::Span span("prefetch", "runner");
    fill(detector, guided_claims, blind_claims);
}

void SweepRunner::prefetch_guided(const attack::DetectorConfig& detector,
                                  const std::vector<attack::AttackScheme>& schemes) {
    prefetch(detector, schemes, {});
}

void SweepRunner::fill(const attack::DetectorConfig& detector,
                       const std::vector<GuidedClaim>& guided,
                       const std::vector<BlindClaim>& blind) {
    // Claim c is guided[c] below guided.size() and blind[c - guided.size()]
    // from there on.
    const std::size_t n_guided = guided.size();
    std::vector<std::exception_ptr> errors(n_guided + blind.size());
    std::vector<std::shared_ptr<GuidedTraceBundle>> guided_bundles(n_guided);
    std::vector<std::shared_ptr<BlindTraceBundle>> blind_bundles(blind.size());
    try {
        // One co-sim, and the bundle slots its trace and plan land in.
        struct Lane {
            std::size_t claim;
            StrikeSource* source;
            accel::VoltageTrace* trace;
            accel::OverlayPlan* plan;
            std::size_t strike_cycles; // num_strikes x strike_cycles
        };
        struct Group {
            std::vector<Lane> lanes;
            std::size_t strike_cycles = 0;
        };
        const std::size_t width = cosim_lane_width();
        std::vector<Group> groups;
        const auto pack = [&](const std::vector<Lane>& lanes) {
            for (std::size_t j = 0; j < lanes.size(); ++j) {
                if (j % width == 0) groups.emplace_back();
                groups.back().lanes.push_back(lanes[j]);
                groups.back().strike_cycles += lanes[j].strike_cycles;
            }
        };
        const auto strike_total = [](const attack::AttackScheme& scheme) {
            return scheme.num_strikes * scheme.strike_cycles;
        };

        // Every controller is built before any group runs; deques keep the
        // references the sources hold stable. A controller that cannot be
        // built fails its own entry, and the entry joins no group.
        std::deque<attack::AttackController> guided_controllers;
        std::deque<GuidedSource> guided_sources;
        std::deque<attack::BlindController> blind_controllers;
        std::deque<BlindSource> blind_sources;
        std::vector<Lane> lanes;
        for (std::size_t c = 0; c < n_guided; ++c) {
            const attack::AttackScheme& scheme = *guided[c].scheme;
            try {
                guided_controllers.emplace_back(detector, scheme);
                guided_sources.emplace_back(guided_controllers.back());
                guided_bundles[c] = std::make_shared<GuidedTraceBundle>();
            } catch (...) {
                errors[c] = std::current_exception();
                continue;
            }
            lanes.push_back({c, &guided_sources.back(), &guided_bundles[c]->trace,
                             &guided_bundles[c]->plan, strike_total(scheme)});
        }
        pack(lanes);
        // Each blind bundle's replays fill groups of their own, in
        // descending start cycle (blind_replays); the slots keep offset
        // order.
        for (std::size_t b = 0; b < blind.size(); ++b) {
            const std::size_t c = n_guided + b;
            const BlindRequest& request = *blind[b].request;
            lanes.clear();
            try {
                const std::vector<BlindReplay> replays = blind_replays(
                    *platform_, request.scheme, request.n_offsets, request.offset_seed);
                auto bundle = std::make_shared<BlindTraceBundle>();
                bundle->traces.resize(replays.size());
                bundle->plans.resize(replays.size());
                for (const BlindReplay& replay : replays) {
                    blind_controllers.emplace_back(request.scheme, replay.start_cycle);
                    blind_sources.emplace_back(blind_controllers.back());
                    lanes.push_back({c, &blind_sources.back(), &bundle->traces[replay.offset],
                                     &bundle->plans[replay.offset],
                                     strike_total(request.scheme)});
                }
                blind_bundles[b] = std::move(bundle);
            } catch (...) {
                errors[c] = std::current_exception();
                continue;
            }
            pack(lanes);
        }

        // Heaviest groups first, so no long group starts last; ties keep
        // claim order.
        std::vector<std::size_t> order(groups.size());
        std::iota(order.begin(), order.end(), std::size_t{0});
        std::stable_sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
            return groups[a].strike_cycles > groups[b].strike_cycles;
        });
        std::vector<std::exception_ptr> group_errors(groups.size());
        parallel_for(
            order.size(),
            [&](std::size_t k) {
                const Group& group = groups[order[k]];
                try {
                    std::vector<StrikeSource*> sources;
                    sources.reserve(group.lanes.size());
                    for (const Lane& lane : group.lanes) sources.push_back(lane.source);
                    std::vector<CosimResult> cosims = platform_->simulate_inference_lanes(
                        sources, CosimRecord::Captures);
                    for (std::size_t j = 0; j < cosims.size(); ++j) {
                        *group.lanes[j].trace = std::move(cosims[j].capture_v);
                    }
                    cosims.clear(); // nothing else of a co-sim is cached
                    for (const Lane& lane : group.lanes) {
                        *lane.plan = platform_->engine().plan_overlay(lane.trace);
                    }
                } catch (...) {
                    group_errors[order[k]] = std::current_exception();
                }
            },
            threads());
        // A failed group fails the entries owning a lane in it (a blind
        // bundle fails with any of its groups); the first error in pack
        // order wins.
        for (std::size_t g = 0; g < groups.size(); ++g) {
            if (!group_errors[g]) continue;
            for (const Lane& lane : groups[g].lanes) {
                if (!errors[lane.claim]) errors[lane.claim] = group_errors[g];
            }
        }
    } catch (...) {
        // A failure outside any one entry's lanes fails every entry; each
        // must still be published or its waiters deadlock.
        for (std::exception_ptr& error : errors) {
            if (!error) error = std::current_exception();
        }
    }

    for (std::size_t c = 0; c < n_guided; ++c) {
        CacheEntry& entry = *guided[c].entry;
        if (!errors[c]) entry.guided = std::move(guided_bundles[c]);
        entry.publish(errors[c]);
    }
    for (std::size_t b = 0; b < blind.size(); ++b) {
        CacheEntry& entry = *blind[b].entry;
        if (!errors[n_guided + b]) entry.blind = std::move(blind_bundles[b]);
        entry.publish(errors[n_guided + b]);
    }
}

RunManifest SweepRunner::run(const std::string& sweep_name,
                             std::vector<SweepTask> tasks) {
    trace::Span sweep_span("sweep:" + sweep_name, "runner");
    if (metrics::enabled()) {
        metrics::counter("runner.sweeps", "sweeps", "SweepRunner::run invocations")
            .add();
        metrics::counter("runner.points", "points", "sweep points executed")
            .add(tasks.size());
    }
    RunManifest manifest;
    manifest.sweep = sweep_name;
    manifest.threads = threads();
    manifest.points.resize(tasks.size());

    const std::size_t hits_before = trace_cache_hits();
    const std::size_t misses_before = trace_cache_misses();
    const auto sweep_start = std::chrono::steady_clock::now();

    std::vector<std::exception_ptr> errors(tasks.size());
    ThreadPool::global().for_each(
        tasks.size(),
        [&](std::size_t i) {
            SweepPointStats& stats = manifest.points[i];
            stats.label = tasks[i].label;
            // Deadline: checked once before a point starts. Points already
            // running always finish, so every recorded result is complete.
            if (config_.deadline_seconds > 0.0 &&
                seconds_since(sweep_start) >= config_.deadline_seconds) {
                stats.skipped = true;
                count_deadline_skip();
                return;
            }
            trace::Span point_span("point:" + tasks[i].label, "runner");
            const auto t0 = std::chrono::steady_clock::now();
            std::uint64_t backoff_ms =
                std::min(config_.retry_backoff_ms, config_.max_backoff_ms);
            while (true) {
                try {
                    expects(static_cast<bool>(tasks[i].work),
                            "SweepRunner::run: every task needs a callable");
                    tasks[i].work();
                    stats.ok = true;
                    break;
                } catch (const std::exception& e) {
                    if (stats.retries >= config_.max_point_retries) {
                        errors[i] = std::current_exception();
                        stats.error = e.what();
                        break;
                    }
                } catch (...) {
                    if (stats.retries >= config_.max_point_retries) {
                        errors[i] = std::current_exception();
                        stats.error = "unknown error";
                        break;
                    }
                }
                ++stats.retries;
                count_point_retry();
                if (backoff_ms > 0) {
                    std::this_thread::sleep_for(
                        std::chrono::milliseconds(backoff_ms));
                }
                backoff_ms = std::min(backoff_ms * 2, config_.max_backoff_ms);
            }
            stats.seconds = seconds_since(t0);
        },
        threads());

    manifest.total_seconds = seconds_since(sweep_start);
    manifest.trace_cache_hits = trace_cache_hits() - hits_before;
    manifest.trace_cache_misses = trace_cache_misses() - misses_before;
    for (const SweepPointStats& p : manifest.points) {
        if (p.skipped) ++manifest.points_skipped;
    }
    manifest.partial = manifest.points_skipped != 0;

    // Deterministic error propagation: the lowest-indexed failure wins,
    // regardless of which thread hit it first.
    for (std::size_t i = 0; i < errors.size(); ++i) {
        if (errors[i]) std::rethrow_exception(errors[i]);
    }
    return manifest;
}

std::vector<DspRigResult> run_dsp_characterization_sweep(
    const std::vector<std::size_t>& cells, const DspRigConfig& config,
    std::size_t threads, RunManifest* manifest) {
    SweepRunner runner(RunnerConfig{threads, false});
    std::vector<DspRigResult> results(cells.size());

    std::vector<SweepTask> tasks;
    tasks.reserve(cells.size());
    for (std::size_t i = 0; i < cells.size(); ++i) {
        tasks.push_back({"cells=" + std::to_string(cells[i]), [&, i] {
                             results[i] = run_dsp_characterization(cells[i], config);
                         }});
    }
    RunManifest mf = runner.run("dsp_characterization", std::move(tasks));
    if (manifest != nullptr) *manifest = std::move(mf);
    return results;
}

} // namespace deepstrike::sim
