// Parallel sweep-execution core.
//
// Every headline experiment (Fig. 5b accuracy-vs-strikes, Fig. 6b fault
// rates, the ablations) is a sweep of independent (configuration x
// evaluation) points. SweepRunner is the one place that executes such
// sweeps: it schedules labelled point tasks over the persistent
// util::ThreadPool, times each point, and emits a structured JSON run
// manifest (threads, per-point wall-clock).
//
// Determinism contract: the runner only controls *where/when* a point
// runs, never its inputs. Point tasks derive their RNG streams from
// logical coordinates via util::derive_seed and write results into
// caller-owned slots indexed by point, so a sweep's outputs are
// bit-identical at any thread count.
//
// The runner also co-simulates the voltage traces a sweep's points
// evaluate against. The structural property documented in
// sim/platform.hpp — the accelerator's power draw is data-independent, so
// ONE electrical trace per attack configuration serves every image — makes
// the trace the unit of work: the runner fills each point's trace once,
// together with its overlay plan, and keeps the bundle it filled so the
// point's task reads it back. Its fill is the only one for stored traces,
// guided or blind: it packs co-sims into lane groups of kCosimLanes, one
// Platform::simulate_inference_lanes call per group.
#pragma once

#include <cstdint>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
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
    /// Ignored: the runner always keeps the bundles it filled. The field
    /// stays only because bench/e2e/ds_e2e.cpp spells
    /// RunnerConfig{threads, true}.
    bool cache_traces = true;
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
    std::string error; // populated when !ok
};

/// Structured record of one sweep execution (written next to, never into,
/// result reports — reports must stay byte-identical across thread counts).
struct RunManifest {
    std::string sweep;
    std::size_t threads = 0;
    double total_seconds = 0.0;
    std::vector<SweepPointStats> points;

    /// Observability sink paths active during the run (`--metrics-out` /
    /// `--trace-out`). Recorded here — in the manifest, with the other
    /// timing-adjacent run facts — and omitted from to_json() when empty,
    /// so manifests from sink-free runs are byte-unchanged.
    std::string metrics_out;
    std::string trace_out;

    /// Resume facts, omitted from to_json() when default-valued.
    std::size_t points_resumed = 0;    // restored from a journal, not run
    std::string journal;               // checkpoint journal path, if any

    Json to_json() const;
};

/// A co-simulated trace together with its precomputed fault-overlay
/// plan (AccelEngine::plan_overlay): the complete per-attack-configuration
/// precomputation, shared across every image of a campaign point.
/// Evaluation reads only the plan. The trace field is kept only for
/// bench/e2e/ds_e2e.cpp, whose overlay-planning row re-plans it.
struct GuidedTraceBundle {
    accel::VoltageTrace trace;
    accel::OverlayPlan plan;
};

/// Blind-baseline equivalent; `plans` is indexed like `traces`, which,
/// like GuidedTraceBundle::trace, only bench/e2e/ds_e2e.cpp reads.
struct BlindTraceBundle {
    std::vector<accel::VoltageTrace> traces;
    std::vector<accel::OverlayPlan> plans;
};

/// One blind-baseline bundle request: blind_bundle's arguments.
struct BlindRequest {
    attack::AttackScheme scheme;
    std::size_t n_offsets = 0;
    std::uint64_t offset_seed = 0;

    bool operator==(const BlindRequest&) const = default;
};

class SweepRunner {
public:
    /// Platform-free runner (e.g. the DSP characterization rig).
    explicit SweepRunner(RunnerConfig config = {});

    /// Platform-bound runner, which also fills voltage-trace bundles.
    explicit SweepRunner(const Platform& platform, RunnerConfig config = {});

    /// Resolved worker width for this runner.
    std::size_t threads() const;

    /// Executes the tasks over the pool, returning the manifest. Results
    /// land wherever the tasks wrote them (indexed caller storage). The
    /// lowest-indexed point failure is rethrown after every point ran.
    RunManifest run(const std::string& sweep_name, std::vector<SweepTask> tasks);

    /// Guided-attack trace + overlay plan for the scheme under the
    /// detector: the bundle this runner stored for an equal (detector,
    /// scheme), or else a fill of this one request, as a one-lane group,
    /// which is stored. Thread-safe. A failed fill throws this request's
    /// own error and stores nothing: a scheme that cannot load fails its
    /// own trace. Two concurrent first requests may both fill; the first
    /// stored bundle wins (their bytes are equal).
    std::shared_ptr<const GuidedTraceBundle>
    guided_bundle(const attack::DetectorConfig& detector,
                  const attack::AttackScheme& scheme);

    /// Blind-baseline trace set + plans, stored per equal BlindRequest;
    /// traces[i] is offset i's trace (sim::blind_replays). A request not
    /// stored yet is filled alone: its replays fill lane groups of their
    /// own, in descending start cycle, and the groups run in parallel over
    /// threads(). Failures and concurrent requests as for guided_bundle.
    std::shared_ptr<const BlindTraceBundle>
    blind_bundle(const attack::AttackScheme& scheme, std::size_t n_offsets,
                 std::uint64_t offset_seed);

    /// Fills every guided scheme and blind request not stored yet in one
    /// batch and stores each bundle that filled; a request repeated in one
    /// call is filled once. The batch packs the lanes into groups of
    /// kCosimLanes (sim/platform.hpp) and runs the groups in one
    /// parallel_for over threads() workers, heaviest first, so the point
    /// tasks of the following run() find their bundles stored. Bundles
    /// are byte-identical to one-request fills. A failure fails only the
    /// requests owning a lane in the failed group; prefetch does not throw
    /// for it, stores nothing for them, and their consumers refill and
    /// throw their own errors. Call from the coordinating thread, not from
    /// inside sweep tasks.
    void prefetch(const attack::DetectorConfig& detector,
                  const std::vector<attack::AttackScheme>& guided,
                  const std::vector<BlindRequest>& blind);

    /// prefetch() of guided schemes alone.
    void prefetch_guided(const attack::DetectorConfig& detector,
                         const std::vector<attack::AttackScheme>& schemes);

    /// Golden store covering the first `n_images` of `dataset` for this
    /// runner's platform network (build_golden_store; each call builds).
    /// Requires a platform-bound runner.
    std::shared_ptr<const GoldenStore> golden_view(const data::Dataset& dataset,
                                                   std::size_t n_images);

private:
    using GuidedKey = std::pair<attack::DetectorConfig, attack::AttackScheme>;
    template <typename Key, typename Bundle>
    using Store = std::vector<std::pair<Key, std::shared_ptr<const Bundle>>>;

    /// The one trace fill. Builds every lane's controller, packs the lanes
    /// into groups of kCosimLanes — guided requests in order, each blind
    /// request's replays in groups of their own — and runs all groups in
    /// one parallel_for over threads(), in descending total strike cycles,
    /// one simulate_inference_lanes call per group. Each group is a
    /// capture-only co-sim (CosimRecord::Captures: a guided lane draws TDC
    /// samples until its detector fires, a blind lane none), and its task
    /// keeps only its lanes' capture voltages and overlay plans. A lane
    /// whose controller cannot be built fails its own request and joins no
    /// group, and a group that throws fails only the requests owning a
    /// lane in it. After the batch, every bundle that filled is stored
    /// unless an equal request was stored meanwhile. Returns each
    /// request's error (null when it filled), guided requests first, then
    /// blind. Never throws.
    std::vector<std::exception_ptr> fill(const attack::DetectorConfig& detector,
                                         const std::vector<attack::AttackScheme>& guided,
                                         const std::vector<BlindRequest>& blind);

    const Platform* platform_ = nullptr;
    RunnerConfig config_;

    /// Every bundle this runner filled, found by comparing requests by
    /// value; guarded by store_mutex_.
    std::mutex store_mutex_;
    Store<GuidedKey, GuidedTraceBundle> guided_;
    Store<BlindRequest, BlindTraceBundle> blind_;
};

/// Fig. 6(b)-style characterization sweep: each striker cell count is one
/// independent point over the pool. Results are indexed like `cells`;
/// every point derives its randomness from the rig config alone, so the
/// curve is bit-identical at any thread count.
std::vector<DspRigResult> run_dsp_characterization_sweep(
    const std::vector<std::size_t>& cells, const DspRigConfig& config = {},
    std::size_t threads = 0, RunManifest* manifest = nullptr);

} // namespace deepstrike::sim
