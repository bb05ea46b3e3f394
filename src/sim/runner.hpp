// Parallel sweep-execution core.
//
// Every headline experiment (Fig. 5b accuracy-vs-strikes, Fig. 6b fault
// rates, the ablations) is a sweep of independent (configuration x
// evaluation) points. SweepRunner is the one place that executes such
// sweeps: it schedules labelled point tasks over the persistent
// util::ThreadPool, times each point, and emits a structured JSON run
// manifest (threads, per-point wall-clock, trace-cache statistics).
//
// Determinism contract: the runner only controls *where/when* a point
// runs, never its inputs. Point tasks derive their RNG streams from
// logical coordinates via util::derive_seed and write results into
// caller-owned slots indexed by point, so a sweep's outputs are
// bit-identical at any thread count.
//
// The runner also owns the co-simulated voltage-trace cache. The
// structural property documented in sim/platform.hpp — the accelerator's
// power draw is data-independent, so ONE electrical trace per attack
// configuration serves every image — makes the trace the natural unit of
// reuse across points; traces are cached keyed by a hash of the attack
// scheme (plus detector configuration / blind-replay parameters), with
// concurrent requests for the same key deduplicated so each trace is
// co-simulated exactly once.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "attack/detector.hpp"
#include "attack/signal_ram.hpp"
#include "sim/experiment.hpp"
#include "sim/platform.hpp"
#include "util/json.hpp"

namespace deepstrike::sim {

struct RunnerConfig {
    /// Worker width for sweep execution; 0 = the global thread knob
    /// (set_global_thread_count / --threads).
    std::size_t threads = 0;
    /// Disable to co-simulate every trace request from scratch.
    bool cache_traces = true;
    /// Rerun a failed point up to this many extra times before recording
    /// the failure. Retries use capped exponential backoff; a point that
    /// still fails after the last attempt is reported exactly as before
    /// (lowest-indexed failure rethrown deterministically).
    std::size_t max_point_retries = 0;
    /// First-retry backoff; doubles per attempt, capped at max_backoff_ms.
    std::uint64_t retry_backoff_ms = 100;
    std::uint64_t max_backoff_ms = 2000;
    /// Wall-clock budget for one run() in seconds; 0 = unlimited. Once
    /// exceeded, points that have not started yet are skipped (running
    /// points finish) and the manifest is marked partial.
    double deadline_seconds = 0.0;
};

/// One independent unit of sweep work. `work` writes its result into
/// caller-owned storage at the point's own index.
struct SweepTask {
    std::string label;
    std::function<void()> work;
};

struct SweepPointStats {
    std::string label;
    double seconds = 0.0;
    bool ok = false;
    std::string error;         // populated when !ok
    std::size_t retries = 0;   // extra attempts consumed by this point
    bool skipped = false;      // never started (deadline exhausted)
};

/// Structured record of one sweep execution (written next to, never into,
/// result reports — reports must stay byte-identical across thread counts).
struct RunManifest {
    std::string sweep;
    std::size_t threads = 0;
    double total_seconds = 0.0;
    std::size_t trace_cache_hits = 0;
    std::size_t trace_cache_misses = 0;
    std::vector<SweepPointStats> points;

    /// Observability sink paths active during the run (`--metrics-out` /
    /// `--trace-out`). Recorded here — in the manifest, with the other
    /// timing-adjacent run facts — and omitted from to_json() when empty,
    /// so manifests from sink-free runs are byte-unchanged.
    std::string metrics_out;
    std::string trace_out;

    /// Resilience facts. All default-valued fields are omitted from
    /// to_json(), so manifests from plain complete runs are unchanged.
    bool partial = false;              // a deadline skipped ≥1 point
    std::size_t points_skipped = 0;    // never started (deadline)
    std::size_t points_resumed = 0;    // restored from a journal, not run
    std::string journal;               // checkpoint journal path, if any

    Json to_json() const;
};

/// A cached co-simulated trace together with its precomputed fault-overlay
/// plan (AccelEngine::plan_overlay): the complete per-attack-configuration
/// precomputation, shared across every image of a campaign point.
struct GuidedTraceBundle {
    accel::VoltageTrace trace;
    accel::OverlayPlan plan;
};

/// Blind-baseline equivalent; `plans` is indexed like `traces`.
struct BlindTraceBundle {
    std::vector<accel::VoltageTrace> traces;
    std::vector<accel::OverlayPlan> plans;
};

/// One blind-baseline bundle request: blind_bundle's arguments.
struct BlindRequest {
    attack::AttackScheme scheme;
    std::size_t n_offsets = 0;
    std::uint64_t offset_seed = 0;
};

class SweepRunner {
public:
    /// Platform-free runner (e.g. the DSP characterization rig).
    explicit SweepRunner(RunnerConfig config = {});

    /// Platform-bound runner with the voltage-trace cache enabled.
    explicit SweepRunner(const Platform& platform, RunnerConfig config = {});

    /// Resolved worker width for this runner.
    std::size_t threads() const;

    /// Executes the tasks over the pool, returning the manifest. Results
    /// land wherever the tasks wrote them (indexed caller storage). The
    /// lowest-indexed point failure is rethrown after every point ran.
    RunManifest run(const std::string& sweep_name, std::vector<SweepTask> tasks);

    /// Guided-attack trace + overlay plan for the scheme, co-simulated and
    /// planned once per distinct (detector config, scheme) and shared
    /// thereafter. Thread-safe; concurrent first requests for one key
    /// block on a single fill. A miss runs the runner's one fill with this
    /// one claim, as a one-lane group. Rethrows the error of this entry's
    /// fill only: a scheme that cannot load fails its own trace.
    std::shared_ptr<const GuidedTraceBundle>
    guided_bundle(const attack::DetectorConfig& detector,
                  const attack::AttackScheme& scheme);

    /// Warm-up of the trace cache: claims every guided scheme and blind
    /// request not cached yet and fills them all in one batch. The batch
    /// packs the claims into lane groups of cosim_lane_width()
    /// (sim/cosim_lanes.hpp) and runs the groups in one parallel_for over
    /// threads() workers, heaviest first, so the per-point tasks of the
    /// following run() hit the cache. Bundles are byte-identical to
    /// one-at-a-time misses. A failure fails only the entries that own a
    /// lane in the failed group; prefetch does not throw for it, and each
    /// consumer rethrows its own entry's error. Prefetch lookups count no
    /// hit and no miss: the first consumer of a prefetched entry inherits
    /// the miss. A no-op when the cache is off or the runner is
    /// platform-free. Call from the coordinating thread, not from inside
    /// sweep tasks.
    void prefetch(const attack::DetectorConfig& detector,
                  const std::vector<attack::AttackScheme>& guided,
                  const std::vector<BlindRequest>& blind);

    /// prefetch() of guided schemes alone.
    void prefetch_guided(const attack::DetectorConfig& detector,
                         const std::vector<attack::AttackScheme>& schemes);

    /// Blind-baseline trace set + plans, cached per (scheme, n_offsets,
    /// seed); traces[i] is offset i's trace (sim::blind_replays). A miss
    /// runs the one fill with this one claim: its replays fill lane groups
    /// of their own, in descending start cycle, and the groups run in
    /// parallel over threads(). Rethrows the error of this entry's fill.
    std::shared_ptr<const BlindTraceBundle>
    blind_bundle(const attack::AttackScheme& scheme, std::size_t n_offsets,
                 std::uint64_t offset_seed);

    std::size_t trace_cache_hits() const { return cache_hits_.load(); }
    std::size_t trace_cache_misses() const { return cache_misses_.load(); }
    std::size_t trace_cache_size() const;

    /// Golden store covering the first `n_images` of `dataset` for this
    /// runner's platform network (build_golden_store; each call builds).
    /// Requires a platform-bound runner.
    std::shared_ptr<const GoldenStore> golden_view(const data::Dataset& dataset,
                                                   std::size_t n_images);

    /// 64-bit structural hash of a scheme (the cache-key ingredient).
    static std::uint64_t scheme_hash(const attack::AttackScheme& scheme);

private:
    struct CacheEntry;
    /// A guided entry this caller created and must fill.
    struct GuidedClaim {
        std::shared_ptr<CacheEntry> entry;
        const attack::AttackScheme* scheme;
    };
    /// A blind entry this caller created and must fill.
    struct BlindClaim {
        std::shared_ptr<CacheEntry> entry;
        const BlindRequest* request;
    };

    /// The entry for `key`; `creator` is set when the caller created it and
    /// must fill it (always, in a private entry, when the cache is off).
    /// `prefetch` lookups claim entries without touching the hit/miss
    /// counters; the first non-prefetch lookup of a prefetched entry is
    /// charged the miss instead, keeping per-run accounting identical
    /// whether a trace was prefetched or filled on first request.
    std::shared_ptr<CacheEntry> lookup(std::uint64_t key, bool& creator,
                                       bool prefetch = false);

    /// The one trace fill. Builds every lane's controller, packs the lanes
    /// into groups of cosim_lane_width() — guided claims in claim order,
    /// each blind claim's replays in groups of their own — and runs all
    /// groups in one parallel_for over threads(), in descending total
    /// strike cycles. Each group is a capture-only co-sim
    /// (CosimRecord::Captures: a guided lane draws TDC samples until its
    /// detector fires, a blind lane none), and its task keeps only its
    /// lanes' capture voltages and overlay plans. Every claim is published after the
    /// batch: a lane whose controller cannot be built fails its own entry
    /// and joins no group, and a group that throws fails only the entries
    /// owning a lane in it. Never throws.
    void fill(const attack::DetectorConfig& detector,
              const std::vector<GuidedClaim>& guided,
              const std::vector<BlindClaim>& blind);

    const Platform* platform_ = nullptr;
    RunnerConfig config_;

    mutable std::mutex cache_mutex_;
    std::unordered_map<std::uint64_t, std::shared_ptr<CacheEntry>> cache_;
    std::atomic<std::size_t> cache_hits_{0};
    std::atomic<std::size_t> cache_misses_{0};
};

/// Fig. 6(b)-style characterization sweep: each striker cell count is one
/// independent point over the pool. Results are indexed like `cells`;
/// every point derives its randomness from the rig config alone, so the
/// curve is bit-identical at any thread count.
std::vector<DspRigResult> run_dsp_characterization_sweep(
    const std::vector<std::size_t>& cells, const DspRigConfig& config = {},
    std::size_t threads = 0, RunManifest* manifest = nullptr);

} // namespace deepstrike::sim
