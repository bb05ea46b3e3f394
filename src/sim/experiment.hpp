// Experiment-level helpers shared by benches, examples and integration
// tests: profiling runs, guided attack traces, the blind baseline's replay
// order, accuracy evaluation, and the DSP characterization rig of Fig. 6.
//
// An attack's electrical trace enters evaluation only through its overlay
// plan (AccelEngine::plan_overlay): a caller co-simulates a trace, plans
// it once, and evaluate_accuracy scores any number of images on the plan.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "attack/profiler.hpp"
#include "data/synth_mnist.hpp"
#include "sim/golden_cache.hpp"
#include "sim/platform.hpp"

namespace deepstrike::sim {

// ------------------------------------------------------------- profiling

struct ProfilingRun {
    CosimResult cosim;
    attack::Profile profile;
    /// TDC sample index at which the start detector fired (the timebase
    /// for attack_delay in planned schemes).
    std::size_t trigger_sample = 0;
    bool detector_fired = false;
};

/// Simulates one un-attacked inference while the detector watches, then
/// segments the captured readout trace.
ProfilingRun run_profiling(const Platform& platform,
                           const attack::DetectorConfig& detector_config = {},
                           const attack::ProfilerConfig& profiler_config = {});

// -------------------------------------------------------------- campaign

/// Electrical trace for a guided attack with the given scheme.
accel::VoltageTrace guided_attack_trace(const Platform& platform,
                                        const attack::DetectorConfig& detector_config,
                                        const attack::AttackScheme& scheme);

/// One replay of the blind baseline: offset `offset` of its bundle, starting
/// at fabric cycle `start_cycle`.
struct BlindReplay {
    std::size_t offset = 0;
    std::size_t start_cycle = 0;
};

/// The blind baseline's replays in co-sim lane order. Offset i starts at
/// the i-th of `n_offsets` uniform draws (seeded by `offset_seed`) over the
/// cycles where the replay fits. The replays are ordered by descending
/// start cycle, ties by offset index: lanes of one scheme share the golden
/// run until they start and settle into one common state after their
/// replays, so neighbouring lanes sit at their PDN fixed points together
/// and whole 4-lane slots skip (sim/cosim_lanes.cpp). Each trace depends
/// on its own offset alone. SweepRunner::blind_bundle co-simulates the
/// replays in this order and keeps each offset's trace and overlay plan.
std::vector<BlindReplay> blind_replays(const Platform& platform,
                                       const attack::AttackScheme& scheme,
                                       std::size_t n_offsets, std::uint64_t offset_seed);

struct AccuracyResult {
    double accuracy = 0.0;
    std::size_t images = 0;
    accel::FaultCounts faults; // summed over all evaluated images
};

/// Evaluates test accuracy of the accelerator on the first `n_images` of
/// the dataset. Image i runs on plans[i % plans.size()], the overlay plan
/// of its attack trace; no plans is the clean run. Fault randomness is
/// seeded per image from `fault_seed`. `throttle`, when given, is a
/// per-cycle throttle mask (defense::run_monitor) that suppresses DSP
/// fault evaluation in throttled cycles on every plan.
/// Every evaluation reads a golden store (sim/golden_cache.hpp): `golden`
/// passes one that callers scoring many plans on one image set build
/// once; when it is null, one is built here for the evaluated images.
/// Results are byte-identical either way. A passed store must cover all
/// evaluated images (ContractError otherwise).
AccuracyResult evaluate_accuracy(const Platform& platform, const data::Dataset& dataset,
                                 std::size_t n_images,
                                 std::span<const accel::OverlayPlan> plans,
                                 std::uint64_t fault_seed,
                                 const std::vector<bool>* throttle = nullptr,
                                 const GoldenStore* golden = nullptr);

// --------------------------------------------- repeated inferences

/// One entry per inference of a back-to-back run.
struct RepeatedInferenceStats {
    bool detector_fired = false;
    std::size_t trigger_sample = 0; // within this inference's trace
    std::size_t strike_cycles = 0;
    accel::VoltageTrace capture_v;  // this inference's capture trace
};

/// Simulates `n_inferences` victim inferences back to back with the given
/// on-chip controller. Between inferences the controller re-arms (detector
/// reset + signal RAM rewind), so the same scheme strikes every inference.
/// Requires a detector configured to the controller.
std::vector<RepeatedInferenceStats> simulate_repeated_inferences(
    const Platform& platform, attack::AttackController& controller,
    std::size_t n_inferences);

// --------------------------------------------- DSP characterization rig

/// Fig. 6a setup: DSP slices configured as (A+D)*B, fed random inputs,
/// with the power striker fired for one cycle as each op launches; the
/// result is fetched five cycles later and classified against the
/// expected and previous-expected values — the paper's observational
/// methodology.
struct DspRigConfig {
    pdn::PdnParams pdn = pdn::PdnParams::pynq_z1();
    accel::DspTimingParams dsp_timing{};
    striker::StrikerParams striker_base{}; // n_cells overridden per run
    std::size_t n_dsp_slices = 16;
    std::size_t trials = 10000;
    std::size_t ticks_per_cycle = 10;
    std::size_t strike_cycles = 1;
    double idle_current_a = 0.050; // test harness logic
    std::uint64_t seed = 606;
};

struct DspRigResult {
    std::size_t n_striker_cells = 0;
    double duplication_rate = 0.0;
    double random_rate = 0.0;
    double min_voltage = 0.0; // deepest droop seen in the strike window

    double total_rate() const { return duplication_rate + random_rate; }
};

DspRigResult run_dsp_characterization(std::size_t n_striker_cells,
                                      const DspRigConfig& config = {});

} // namespace deepstrike::sim
