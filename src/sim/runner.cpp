#include "sim/runner.hpp"

#include <algorithm>
#include <chrono>
#include <deque>
#include <numeric>

#include "sim/experiment.hpp"
#include "util/error.hpp"
#include "util/metrics.hpp"
#include "util/parallel.hpp"
#include "util/trace.hpp"

namespace deepstrike::sim {

namespace {

double seconds_since(std::chrono::steady_clock::time_point t0) {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
        .count();
}

/// The bundle stored for `key`, or null. The caller holds the store's
/// mutex.
template <typename Key, typename Bundle>
std::shared_ptr<const Bundle> find_stored(
    const std::vector<std::pair<Key, std::shared_ptr<const Bundle>>>& store,
    const Key& key) {
    for (const auto& [stored_key, bundle] : store) {
        if (stored_key == key) return bundle;
    }
    return nullptr;
}

/// Appends `value` unless an equal one is already in `values`.
template <typename T>
void push_unique(std::vector<T>& values, const T& value) {
    if (std::find(values.begin(), values.end(), value) == values.end()) {
        values.push_back(value);
    }
}

} // namespace

Json RunManifest::to_json() const {
    Json root = Json::object();
    root.set("sweep", sweep);
    root.set("threads", static_cast<std::uint64_t>(threads));
    root.set("points", static_cast<std::uint64_t>(points.size()));
    root.set("total_seconds", total_seconds);
    if (!metrics_out.empty()) root.set("metrics_out", metrics_out);
    if (!trace_out.empty()) root.set("trace_out", trace_out);
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
        if (!p.ok) j.set("error", p.error);
        pts.push(std::move(j));
    }
    root.set("point_stats", std::move(pts));
    return root;
}

SweepRunner::SweepRunner(RunnerConfig config) : config_(config) {}

SweepRunner::SweepRunner(const Platform& platform, RunnerConfig config)
    : platform_(&platform), config_(config) {}

std::size_t SweepRunner::threads() const {
    return config_.threads == 0 ? global_thread_count() : config_.threads;
}

std::shared_ptr<const GoldenStore> SweepRunner::golden_view(
    const data::Dataset& dataset, std::size_t n_images) {
    expects(platform_ != nullptr,
            "SweepRunner::golden_view: platform-bound runner required");
    return build_golden_store(platform_->engine().network(), dataset, n_images);
}

std::shared_ptr<const GuidedTraceBundle>
SweepRunner::guided_bundle(const attack::DetectorConfig& detector,
                           const attack::AttackScheme& scheme) {
    expects(platform_ != nullptr, "SweepRunner::guided_bundle: platform-bound runner required");
    const GuidedKey key{detector, scheme};
    {
        std::lock_guard<std::mutex> lock(store_mutex_);
        if (auto bundle = find_stored(guided_, key)) return bundle;
    }
    if (const std::exception_ptr error = fill(detector, {scheme}, {}).front()) {
        std::rethrow_exception(error);
    }
    std::lock_guard<std::mutex> lock(store_mutex_);
    return find_stored(guided_, key);
}

std::shared_ptr<const BlindTraceBundle>
SweepRunner::blind_bundle(const attack::AttackScheme& scheme, std::size_t n_offsets,
                          std::uint64_t offset_seed) {
    expects(platform_ != nullptr, "SweepRunner::blind_bundle: platform-bound runner required");
    const BlindRequest request{scheme, n_offsets, offset_seed};
    {
        std::lock_guard<std::mutex> lock(store_mutex_);
        if (auto bundle = find_stored(blind_, request)) return bundle;
    }
    if (const std::exception_ptr error = fill({}, {}, {request}).front()) {
        std::rethrow_exception(error);
    }
    std::lock_guard<std::mutex> lock(store_mutex_);
    return find_stored(blind_, request);
}

void SweepRunner::prefetch(const attack::DetectorConfig& detector,
                           const std::vector<attack::AttackScheme>& guided,
                           const std::vector<BlindRequest>& blind) {
    expects(platform_ != nullptr, "SweepRunner::prefetch: platform-bound runner required");
    // Every distinct request not stored yet, in first-occurrence order.
    std::vector<attack::AttackScheme> guided_todo;
    std::vector<BlindRequest> blind_todo;
    {
        std::lock_guard<std::mutex> lock(store_mutex_);
        for (const attack::AttackScheme& scheme : guided) {
            if (!find_stored(guided_, GuidedKey{detector, scheme})) {
                push_unique(guided_todo, scheme);
            }
        }
        for (const BlindRequest& request : blind) {
            if (!find_stored(blind_, request)) push_unique(blind_todo, request);
        }
    }
    if (guided_todo.empty() && blind_todo.empty()) return;

    trace::Span span("prefetch", "runner");
    fill(detector, guided_todo, blind_todo);
}

void SweepRunner::prefetch_guided(const attack::DetectorConfig& detector,
                                  const std::vector<attack::AttackScheme>& schemes) {
    prefetch(detector, schemes, {});
}

std::vector<std::exception_ptr> SweepRunner::fill(
    const attack::DetectorConfig& detector, const std::vector<attack::AttackScheme>& guided,
    const std::vector<BlindRequest>& blind) {
    // Request r is guided[r] below guided.size() and blind[r - guided.size()]
    // from there on.
    const std::size_t n_guided = guided.size();
    std::vector<std::exception_ptr> errors(n_guided + blind.size());
    std::vector<std::shared_ptr<GuidedTraceBundle>> guided_bundles(n_guided);
    std::vector<std::shared_ptr<BlindTraceBundle>> blind_bundles(blind.size());
    try {
        // One co-sim, and the bundle slots its plan and (with cache_traces)
        // its trace land in.
        const bool keep_traces = config_.cache_traces;
        struct Lane {
            std::size_t request;
            StrikeSource* source;
            accel::VoltageTrace* trace; // null unless keep_traces
            accel::OverlayPlan* plan;
            std::size_t strike_cycles; // num_strikes x strike_cycles
        };
        struct Group {
            std::vector<Lane> lanes;
            std::size_t strike_cycles = 0;
        };
        std::vector<Group> groups;
        const auto pack = [&](const std::vector<Lane>& lanes) {
            for (std::size_t j = 0; j < lanes.size(); ++j) {
                if (j % kCosimLanes == 0) groups.emplace_back();
                groups.back().lanes.push_back(lanes[j]);
                groups.back().strike_cycles += lanes[j].strike_cycles;
            }
        };
        const auto strike_total = [](const attack::AttackScheme& scheme) {
            return scheme.num_strikes * scheme.strike_cycles;
        };

        // Every controller is built before any group runs; deques keep the
        // references the sources hold stable. A controller that cannot be
        // built fails its own request, which joins no group.
        std::deque<attack::AttackController> guided_controllers;
        std::deque<GuidedSource> guided_sources;
        std::deque<attack::BlindController> blind_controllers;
        std::deque<BlindSource> blind_sources;
        std::vector<Lane> lanes;
        for (std::size_t r = 0; r < n_guided; ++r) {
            const attack::AttackScheme& scheme = guided[r];
            try {
                guided_controllers.emplace_back(detector, scheme);
                guided_sources.emplace_back(guided_controllers.back());
                guided_bundles[r] = std::make_shared<GuidedTraceBundle>();
            } catch (...) {
                errors[r] = std::current_exception();
                continue;
            }
            lanes.push_back({r, &guided_sources.back(),
                             keep_traces ? &guided_bundles[r]->trace : nullptr,
                             &guided_bundles[r]->plan, strike_total(scheme)});
        }
        pack(lanes);
        // Each blind bundle's replays fill groups of their own, in
        // descending start cycle (blind_replays); the slots keep offset
        // order.
        for (std::size_t b = 0; b < blind.size(); ++b) {
            const std::size_t r = n_guided + b;
            const BlindRequest& request = blind[b];
            lanes.clear();
            try {
                const std::vector<BlindReplay> replays = blind_replays(
                    *platform_, request.scheme, request.n_offsets, request.offset_seed);
                auto bundle = std::make_shared<BlindTraceBundle>();
                if (keep_traces) bundle->traces.resize(replays.size());
                bundle->plans.resize(replays.size());
                for (const BlindReplay& replay : replays) {
                    blind_controllers.emplace_back(request.scheme, replay.start_cycle);
                    blind_sources.emplace_back(blind_controllers.back());
                    lanes.push_back({r, &blind_sources.back(),
                                     keep_traces ? &bundle->traces[replay.offset] : nullptr,
                                     &bundle->plans[replay.offset],
                                     strike_total(request.scheme)});
                }
                blind_bundles[b] = std::move(bundle);
            } catch (...) {
                errors[r] = std::current_exception();
                continue;
            }
            pack(lanes);
        }

        // Heaviest groups first, so no long group starts last; ties keep
        // request order.
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
                        sources, keep_traces ? CosimRecord::Captures : CosimRecord::Plan);
                    for (std::size_t j = 0; j < cosims.size(); ++j) {
                        const Lane& lane = group.lanes[j];
                        if (keep_traces) {
                            *lane.plan = platform_->engine().plan_overlay(&cosims[j].capture_v);
                            *lane.trace = std::move(cosims[j].capture_v);
                        } else {
                            *lane.plan = std::move(cosims[j].plan);
                        }
                    }
                } catch (...) {
                    group_errors[order[k]] = std::current_exception();
                }
            },
            threads());
        // A failed group fails the requests owning a lane in it (a blind
        // bundle fails with any of its groups); the first error in pack
        // order wins.
        for (std::size_t g = 0; g < groups.size(); ++g) {
            if (!group_errors[g]) continue;
            for (const Lane& lane : groups[g].lanes) {
                if (!errors[lane.request]) errors[lane.request] = group_errors[g];
            }
        }
    } catch (...) {
        // A failure outside any one request's lanes fails every request.
        for (std::exception_ptr& error : errors) {
            if (!error) error = std::current_exception();
        }
    }

    // An equal request stored meanwhile keeps its bundle; the bytes are
    // the same.
    std::lock_guard<std::mutex> lock(store_mutex_);
    for (std::size_t r = 0; r < n_guided; ++r) {
        GuidedKey key{detector, guided[r]};
        if (errors[r] || find_stored(guided_, key)) continue;
        guided_.emplace_back(std::move(key), std::move(guided_bundles[r]));
    }
    for (std::size_t b = 0; b < blind.size(); ++b) {
        if (errors[n_guided + b] || find_stored(blind_, blind[b])) continue;
        blind_.emplace_back(blind[b], std::move(blind_bundles[b]));
    }
    return errors;
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

    const auto sweep_start = std::chrono::steady_clock::now();

    std::vector<std::exception_ptr> errors(tasks.size());
    ThreadPool::global().for_each(
        tasks.size(),
        [&](std::size_t i) {
            SweepPointStats& stats = manifest.points[i];
            stats.label = tasks[i].label;
            trace::Span point_span("point:" + tasks[i].label, "runner");
            const auto t0 = std::chrono::steady_clock::now();
            try {
                expects(static_cast<bool>(tasks[i].work),
                        "SweepRunner::run: every task needs a callable");
                tasks[i].work();
                stats.ok = true;
            } catch (const std::exception& e) {
                errors[i] = std::current_exception();
                stats.error = e.what();
            } catch (...) {
                errors[i] = std::current_exception();
                stats.error = "unknown error";
            }
            stats.seconds = seconds_since(t0);
        },
        threads());

    manifest.total_seconds = seconds_since(sweep_start);

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
    SweepRunner runner(RunnerConfig{threads});
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
