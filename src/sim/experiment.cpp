#include "sim/experiment.hpp"

#include <algorithm>
#include <array>
#include <span>

#include "util/error.hpp"
#include "util/metrics.hpp"
#include "util/parallel.hpp"
#include "util/rng.hpp"
#include "util/trace.hpp"

namespace deepstrike::sim {

namespace {

/// No-strike source that also feeds a detector (profiling observer).
class ObservingSource final : public StrikeSource {
public:
    explicit ObservingSource(attack::DnnStartDetector& detector) : detector_(detector) {}
    bool strike_bit(std::size_t) override { return false; }
    void on_tdc_sample(const tdc::TdcSample& sample) override {
        detector_.on_sample(sample);
    }

private:
    attack::DnnStartDetector& detector_;
};

} // namespace

ProfilingRun run_profiling(const Platform& platform,
                           const attack::DetectorConfig& detector_config,
                           const attack::ProfilerConfig& profiler_config) {
    trace::Span span("profiling", "experiment");
    ProfilingRun run;
    attack::DnnStartDetector detector(detector_config);
    ObservingSource source(detector);
    run.cosim = platform.simulate_inference(source);
    run.detector_fired = detector.triggered();
    run.trigger_sample = detector.trigger_sample();
    run.profile = attack::profile_trace(run.cosim.tdc_readouts, profiler_config);
    return run;
}

accel::VoltageTrace guided_attack_trace(const Platform& platform,
                                        const attack::DetectorConfig& detector_config,
                                        const attack::AttackScheme& scheme) {
    attack::AttackController controller(detector_config, scheme);
    GuidedSource source(controller);
    return platform.simulate_inference(source, CosimRecord::Captures).capture_v;
}

std::vector<BlindReplay> blind_replays(const Platform& platform,
                                       const attack::AttackScheme& scheme,
                                       std::size_t n_offsets, std::uint64_t offset_seed) {
    expects(n_offsets > 0, "blind_replays: at least one offset");
    const std::size_t total_cycles = platform.engine().schedule().total_cycles;
    // The blind attacker knows nothing about layer boundaries; it starts
    // its replay anywhere in the execution window such that the replay
    // fits (the paper: "fault injections happen randomly along with the
    // model execution").
    const std::size_t replay_len = scheme.total_cycles();
    const std::size_t max_start =
        replay_len < total_cycles ? total_cycles - replay_len : 0;

    // Every start is drawn up front in offset order; only the co-sim order
    // below depends on the draws.
    Rng rng(offset_seed);
    std::vector<BlindReplay> replays(n_offsets);
    for (std::size_t i = 0; i < n_offsets; ++i) {
        replays[i].offset = i;
        replays[i].start_cycle = static_cast<std::size_t>(
            rng.uniform_int(0, static_cast<std::int64_t>(max_start)));
    }
    std::stable_sort(replays.begin(), replays.end(),
                     [](const BlindReplay& a, const BlindReplay& b) {
                         return a.start_cycle > b.start_cycle;
                     });
    return replays;
}

/// The one parallel evaluation loop. Image i uses plan i % plans.size()
/// (none when empty = clean), a per-image RNG derived from the image index
/// alone, and its entry of the golden store — the caller's, or one built
/// here when the caller passes none — through the elision tiers of
/// sim/golden_cache.hpp:
///   tier 0 (fault-free short-circuit): a plan with no unsafe window
///     cannot fault, so the result is the cached golden label with zero
///     faults and no inference at all;
///   tiers 1 and 2 (golden-elided inference): AccelEngine::run_block
///     skips the still-golden prefix of safe layers and applies windowed
///     layers' fault events to the cached golden accumulators.
/// A throttle mask suppresses fault evaluation inside windows but never
/// adds windows, so the tiers stay valid under it: a throttled op draws no
/// RNG, exactly as in a whole-segment per-op walk.
/// The images of one plan (t, t + n, t + 2n, ...) run in blocks of up to
/// accel::kWalkLanes, one pool task per block, whose fault streams the
/// engine draws in lock-step. No tier or block size changes what an
/// image's stream draws (it is only drawn inside unsafe windows), so
/// results are byte-identical at any thread count.
AccuracyResult evaluate_accuracy(const Platform& platform, const data::Dataset& dataset,
                                 std::size_t n_images,
                                 std::span<const accel::OverlayPlan> plans,
                                 std::uint64_t fault_seed,
                                 const std::vector<bool>* throttle,
                                 const GoldenStore* golden) {
    expects(dataset.size() > 0, "evaluate_accuracy: non-empty dataset");
    n_images = std::min(n_images, dataset.size());
    expects(n_images > 0, "evaluate_accuracy: at least one image");
    expects(golden == nullptr || golden->size() >= n_images,
            "evaluate_accuracy: the golden store must cover every evaluated image");
    trace::Span span("evaluate", "experiment");
    std::shared_ptr<const GoldenStore> built;
    if (golden == nullptr) {
        built = build_golden_store(platform.engine().network(), dataset, n_images);
        golden = built.get();
    }
    if (metrics::enabled()) {
        metrics::counter("eval.images", "images",
                         "images classified during accuracy evaluation")
            .add(n_images);
    }

    // The short-circuit decision depends on the plan alone; take it once
    // per plan, not once per image. Every other plan's images run in
    // blocks: block b of plan t holds its images first = t + b * lanes * n
    // onward, every n-th one.
    const std::size_t n_plans = plans.size();
    const std::size_t lanes = accel::kWalkLanes;
    struct Block {
        std::size_t plan = 0;
        std::size_t first = 0;
        std::size_t count = 0;
    };
    std::vector<Block> blocks;
    std::vector<std::uint8_t> shortcircuit(n_images, 1);
    for (std::size_t t = 0; t < std::min(n_plans, n_images); ++t) {
        if (!plans[t].any_unsafe()) continue;
        const std::size_t images = (n_images - t + n_plans - 1) / n_plans;
        for (std::size_t b = 0; b * lanes < images; ++b) {
            blocks.push_back(
                {t, t + b * lanes * n_plans, std::min(lanes, images - b * lanes)});
        }
        for (std::size_t i = t; i < n_images; i += n_plans) shortcircuit[i] = 0;
    }

    AccuracyResult result;
    result.images = n_images;
    // Blocks are independent (the engine is immutable and each image's
    // RNG is its own), so evaluate them across threads and reduce. Seeds
    // derive from the image index alone — results are bit-identical at
    // any thread count. Each task writes only its own images' slots.
    std::vector<std::uint8_t> correct(n_images, 0);
    std::vector<std::size_t> prefix_skipped(n_images, 0);
    std::vector<accel::FaultCounts> faults(n_images);
    for (std::size_t i = 0; i < n_images; ++i) {
        if (shortcircuit[i] != 0) {
            correct[i] = golden->entries[i].predicted == dataset.labels[i] ? 1 : 0;
        }
    }
    parallel_for(blocks.size(), [&](std::size_t b) {
        const Block& block = blocks[b];
        std::array<accel::GoldenPass, accel::kWalkLanes> passes;
        std::array<Rng, accel::kWalkLanes> rngs;
        for (std::size_t j = 0; j < block.count; ++j) {
            const std::size_t i = block.first + j * n_plans;
            const GoldenEntry& entry = golden->entries[i];
            passes[j] = {&entry.qimage, &entry.activations, &entry.accumulators};
            rngs[j] = Rng(derive_seed(fault_seed, i));
        }
        const std::vector<accel::RunResult> runs = platform.engine().run_block(
            {passes.data(), block.count}, {rngs.data(), block.count}, plans[block.plan],
            throttle);
        for (std::size_t j = 0; j < block.count; ++j) {
            const std::size_t i = block.first + j * n_plans;
            faults[i] = runs[j].faults_total;
            correct[i] = runs[j].predicted == dataset.labels[i] ? 1 : 0;
            prefix_skipped[i] = runs[j].golden_layers_reused;
        }
    });
    std::size_t n_correct = 0;
    std::uint64_t n_shortcircuit = 0;
    std::uint64_t n_prefix = 0;
    for (std::size_t i = 0; i < n_images; ++i) {
        n_correct += correct[i];
        n_shortcircuit += shortcircuit[i];
        n_prefix += prefix_skipped[i];
        result.faults += faults[i];
    }
    result.accuracy = static_cast<double>(n_correct) / static_cast<double>(n_images);
    if (metrics::enabled()) {
        metrics::counter("eval.golden_cache.shortcircuits", "images",
                         "images answered by the golden label without inference")
            .add(n_shortcircuit);
        metrics::counter("eval.prefix_layers_skipped", "layers",
                         "still-golden layers elided during inference")
            .add(n_prefix);
    }
    return result;
}

std::vector<RepeatedInferenceStats> simulate_repeated_inferences(
    const Platform& platform, attack::AttackController& controller,
    std::size_t n_inferences) {
    expects(n_inferences > 0, "simulate_repeated_inferences: at least one inference");

    std::vector<RepeatedInferenceStats> stats;
    stats.reserve(n_inferences);
    for (std::size_t i = 0; i < n_inferences; ++i) {
        controller.rearm();
        GuidedSource source(controller);
        CosimResult cosim = platform.simulate_inference(source, CosimRecord::Captures);

        RepeatedInferenceStats entry;
        entry.detector_fired = controller.triggered();
        entry.trigger_sample = controller.trigger_sample();
        entry.strike_cycles = cosim.strike_cycles;
        entry.capture_v = std::move(cosim.capture_v);
        stats.push_back(std::move(entry));
    }
    return stats;
}

DspRigResult run_dsp_characterization(std::size_t n_striker_cells,
                                      const DspRigConfig& config) {
    expects(n_striker_cells > 0, "run_dsp_characterization: at least one cell");
    expects(config.trials > 0, "run_dsp_characterization: at least one trial");

    DspRigResult result;
    result.n_striker_cells = n_striker_cells;

    pdn::DelayModel delay{};
    striker::StrikerParams sp = config.striker_base;
    sp.n_cells = n_striker_cells;
    striker::StrikerBank bank(sp, delay);

    // The electrical transient is identical for every trial (same idle
    // state, same strike length), so compute the strike-window voltage
    // once. The DSP result is fetched after result_fetch_latency cycles;
    // the critical captures happen during the strike cycle and the ringing
    // cycle after it.
    pdn::PdnModel pdn_model(config.pdn);
    pdn_model.reset(config.idle_current_a);
    double v = pdn_model.voltage();
    double min_v = v;
    // The DSP op is enabled together with the striker; its two DDR capture
    // edges land mid-cycle and at cycle end, each seeing the instantaneous
    // droop at that point of the pulse.
    std::array<double, 2> capture{v, v};
    const std::size_t window_cycles = config.strike_cycles + 1;
    for (std::size_t cycle = 0; cycle < window_cycles; ++cycle) {
        const bool strike = cycle < config.strike_cycles;
        for (std::size_t tick = 0; tick < config.ticks_per_cycle; ++tick) {
            const double i = config.idle_current_a + bank.current_a(v, strike);
            v = pdn_model.step(i);
            min_v = std::min(min_v, v);
            if (cycle == 0 && tick == config.ticks_per_cycle / 2 - 1) capture[0] = v;
            if (cycle == 0 && tick == config.ticks_per_cycle - 1) capture[1] = v;
        }
    }
    result.min_voltage = min_v;

    // Build the DSP bank (fixed process variation per rig seed).
    Rng variation_rng(config.seed);
    std::vector<accel::DspSlice> slices;
    slices.reserve(config.n_dsp_slices);
    for (std::size_t i = 0; i < config.n_dsp_slices; ++i) {
        slices.emplace_back(static_cast<std::uint32_t>(i), config.dsp_timing,
                            variation_rng);
    }

    // Observational classification, as in the paper: compare the fetched
    // result against the expected value and the previous input's expected
    // value.
    Rng data_rng(config.seed ^ 0xDA7A);
    Rng fault_rng(config.seed ^ 0xFA17);
    std::vector<fx::Acc> prev_expected(config.n_dsp_slices, 0);

    std::size_t dup = 0;
    std::size_t rnd = 0;
    for (std::size_t t = 0; t < config.trials; ++t) {
        const std::size_t s = t % config.n_dsp_slices;
        const auto a = fx::Q3_4::from_raw(
            static_cast<std::int16_t>(data_rng.uniform_int(-128, 127)));
        const auto d = fx::Q3_4::from_raw(
            static_cast<std::int16_t>(data_rng.uniform_int(-128, 127)));
        const auto b = fx::Q3_4::from_raw(
            static_cast<std::int16_t>(data_rng.uniform_int(-128, 127)));
        const fx::Acc expected = accel::DspSlice::compute(a, d, b);

        fx::Acc observed = expected;
        switch (slices[s].evaluate(capture[t % 2], delay, fault_rng)) {
            case accel::FaultKind::None:
                break;
            case accel::FaultKind::Duplication:
                observed = prev_expected[s];
                break;
            case accel::FaultKind::Random:
                observed = accel::DspSlice::random_fault_value(fault_rng);
                break;
        }

        if (observed != expected) {
            if (observed == prev_expected[s]) ++dup;
            else ++rnd;
        }
        prev_expected[s] = expected;
    }

    result.duplication_rate = static_cast<double>(dup) / static_cast<double>(config.trials);
    result.random_rate = static_cast<double>(rnd) / static_cast<double>(config.trials);
    return result;
}

} // namespace deepstrike::sim
