#include <gtest/gtest.h>

#include <algorithm>

#include "sim/experiment.hpp"
#include "sim/platform.hpp"
#include "sim/runner.hpp"
#include "test_helpers.hpp"
#include "util/error.hpp"

namespace deepstrike::sim {
namespace {

using deepstrike::testing::random_qnetwork;
using deepstrike::testing::run_engine;

Platform make_platform(std::uint64_t weight_seed = 1) {
    return Platform(PlatformConfig{}, random_qnetwork(weight_seed));
}

TEST(Platform, ConfigConsistencyEnforced) {
    PlatformConfig cfg;
    cfg.pdn.dt_s = 2e-9; // does not match 10 ticks per 10 ns cycle
    EXPECT_THROW(Platform(cfg, random_qnetwork(1)), ContractError);

    cfg = PlatformConfig{};
    cfg.tdc_sample_ticks = {2, 12}; // beyond ticks_per_cycle
    EXPECT_THROW(Platform(cfg, random_qnetwork(1)), ContractError);
}

TEST(Platform, CosimTraceDimensions) {
    Platform platform = make_platform();
    NoAttackSource source;
    const CosimResult r = platform.simulate_inference(source);
    const std::size_t cycles = platform.engine().schedule().total_cycles;
    EXPECT_EQ(r.capture_v.size(), cycles * 2);
    EXPECT_EQ(r.tdc_readouts.size(), cycles * 2);
    EXPECT_EQ(r.strike_cycles, 0u);
}

TEST(Platform, CosimDeterministic) {
    Platform platform = make_platform();
    NoAttackSource s1;
    NoAttackSource s2;
    const CosimResult a = platform.simulate_inference(s1);
    const CosimResult b = platform.simulate_inference(s2);
    EXPECT_EQ(a.tdc_readouts, b.tdc_readouts);
    EXPECT_EQ(a.capture_v, b.capture_v);
}

TEST(Platform, VoltageStaysBelowNominalAndAboveFloor) {
    Platform platform = make_platform();
    NoAttackSource source;
    const CosimResult r = platform.simulate_inference(source);
    for (double v : r.capture_v) {
        EXPECT_LT(v, platform.config().pdn.vdd);
        EXPECT_GT(v, 0.9);
    }
}

TEST(Platform, ConvSegmentsDroopDeeperThanStalls) {
    Platform platform = make_platform();
    NoAttackSource source;
    const CosimResult r = platform.simulate_inference(source);
    const auto& sched = platform.engine().schedule();
    const auto& conv2 = sched.segment_for("CONV2");

    // The lowest capture voltage over fabric cycles [first, last): two
    // capture samples per cycle.
    const auto lowest_capture = [&](std::size_t first, std::size_t last) {
        return *std::min_element(r.capture_v.begin() + static_cast<std::ptrdiff_t>(2 * first),
                                 r.capture_v.begin() + static_cast<std::ptrdiff_t>(2 * last));
    };
    const double conv_min = lowest_capture(conv2.start_cycle, conv2.end_cycle());
    const double stall_min = lowest_capture(5, sched.segments[0].end_cycle());
    EXPECT_LT(conv_min, stall_min - 0.005);
}

TEST(Platform, CleanCosimTraceCausesNoFaults) {
    Platform platform = make_platform();
    NoAttackSource source;
    const CosimResult r = platform.simulate_inference(source);
    Rng rng(1);
    const accel::RunResult run = run_engine(
        platform.engine(), deepstrike::testing::random_qimage(3), &r.capture_v, rng);
    EXPECT_EQ(run.faults_total.total(), 0u);
}

TEST(Profiling, DetectorFiresNearConv1Start) {
    Platform platform = make_platform();
    const ProfilingRun run = run_profiling(platform);
    EXPECT_TRUE(run.detector_fired);

    const auto& conv1 = platform.engine().schedule().segment_for("CONV1");
    const std::size_t conv1_start_sample = conv1.start_cycle * 2;
    EXPECT_GE(run.trigger_sample, conv1_start_sample);
    // Fires within the activity ramp (a few hundred samples).
    EXPECT_LE(run.trigger_sample, conv1_start_sample + 400);
}

TEST(Profiling, FindsAllFiveLayers) {
    Platform platform = make_platform();
    const ProfilingRun run = run_profiling(platform);
    ASSERT_EQ(run.profile.segments.size(), 5u);
    EXPECT_EQ(run.profile.segments[0].guess, attack::LayerClass::Convolution);
    EXPECT_EQ(run.profile.segments[1].guess, attack::LayerClass::Pooling);
    EXPECT_EQ(run.profile.segments[2].guess, attack::LayerClass::Convolution);
    EXPECT_EQ(run.profile.segments[3].guess, attack::LayerClass::FullyConnected);
    // Segment boundaries track the schedule (in TDC samples = 2/cycle).
    const auto& sched = platform.engine().schedule();
    EXPECT_NEAR(
        static_cast<double>(run.profile.segments[2].start_sample),
        static_cast<double>(sched.segment_for("CONV2").start_cycle * 2),
        300.0);
}

TEST(GuidedAttack, StrikesLandInsideTargetSegment) {
    Platform platform = make_platform();
    const ProfilingRun prof = run_profiling(platform);
    ASSERT_GE(prof.profile.segments.size(), 3u);

    const auto& target = prof.profile.segments[2]; // conv2
    const attack::AttackScheme scheme = attack::plan_attack(
        target, prof.trigger_sample, platform.config().samples_per_cycle(), 200);
    const accel::VoltageTrace trace =
        guided_attack_trace(platform, attack::DetectorConfig{}, scheme);

    // Strike dips below the conv-safe voltage only within (or just after)
    // the conv2 segment.
    const auto& sched = platform.engine().schedule();
    const auto& conv2 = sched.segment_for("CONV2");
    const double safe = platform.engine().conv_safe_voltage();
    std::size_t dips_inside = 0;
    std::size_t dips_outside = 0;
    for (std::size_t i = 0; i < trace.size(); ++i) {
        if (trace[i] >= safe) continue;
        const std::size_t cycle = i / 2;
        if (cycle >= conv2.start_cycle && cycle < conv2.end_cycle() + 64) ++dips_inside;
        else ++dips_outside;
    }
    EXPECT_GT(dips_inside, 100u);
    EXPECT_EQ(dips_outside, 0u);
}

TEST(BlindAttack, TracesDiffer) {
    Platform platform = make_platform();
    attack::AttackScheme scheme;
    scheme.num_strikes = 100;
    scheme.gap_cycles = 10;
    const std::vector<accel::VoltageTrace> traces =
        SweepRunner(platform, RunnerConfig{0, true}).blind_bundle(scheme, 3, 7)->traces;
    ASSERT_EQ(traces.size(), 3u);
    EXPECT_NE(traces[0], traces[1]);
    EXPECT_NE(traces[1], traces[2]);
}

TEST(EvaluateAccuracy, CleanMatchesGoldenPredictions) {
    Platform platform = make_platform();
    auto ds = data::make_datasets(5, 1, 30);
    const AccuracyResult clean = evaluate_accuracy(platform, ds.test, 30, {}, 1);
    EXPECT_EQ(clean.images, 30u);
    EXPECT_EQ(clean.faults.total(), 0u);

    const quant::QNetwork& golden = platform.engine().network();
    std::size_t golden_correct = 0;
    for (std::size_t i = 0; i < 30; ++i) {
        if (golden.predict(ds.test.images[i]) == ds.test.labels[i]) ++golden_correct;
    }
    EXPECT_DOUBLE_EQ(clean.accuracy, golden_correct / 30.0);
}

TEST(DspRig, FaultRateMonotoneInCells) {
    DspRigConfig cfg;
    cfg.trials = 1500;
    double prev = -1.0;
    for (std::size_t cells : {4000UL, 10000UL, 16000UL, 22000UL}) {
        const DspRigResult r = run_dsp_characterization(cells, cfg);
        EXPECT_GE(r.total_rate(), prev - 0.02) << cells;
        prev = r.total_rate();
    }
    EXPECT_GT(prev, 0.5);
}

TEST(DspRig, NearZeroAtFewCellsNearFullAt24k) {
    DspRigConfig cfg;
    cfg.trials = 1500;
    EXPECT_LT(run_dsp_characterization(2000, cfg).total_rate(), 0.02);
    EXPECT_GT(run_dsp_characterization(24000, cfg).total_rate(), 0.95);
}

TEST(DspRig, DuplicationPeaksMidRange) {
    DspRigConfig cfg;
    cfg.trials = 3000;
    const double dup_low = run_dsp_characterization(8000, cfg).duplication_rate;
    const double dup_mid = run_dsp_characterization(15000, cfg).duplication_rate;
    const double dup_high = run_dsp_characterization(24000, cfg).duplication_rate;
    EXPECT_GT(dup_mid, dup_low);
    EXPECT_GT(dup_mid, dup_high);
}

TEST(DspRig, DeeperDroopWithMoreCells) {
    DspRigConfig cfg;
    cfg.trials = 10;
    const double v8 = run_dsp_characterization(8000, cfg).min_voltage;
    const double v24 = run_dsp_characterization(24000, cfg).min_voltage;
    EXPECT_LT(v24, v8);
}

TEST(DspRig, Validation) {
    DspRigConfig cfg;
    EXPECT_THROW(run_dsp_characterization(0, cfg), ContractError);
    cfg.trials = 0;
    EXPECT_THROW(run_dsp_characterization(100, cfg), ContractError);
}

TEST(RepeatedInferences, DetectorRearmsAndStrikesEveryRun) {
    Platform platform(PlatformConfig{}, deepstrike::testing::random_qnetwork(71));

    attack::DetectorConfig dcfg;
    attack::AttackScheme scheme;
    scheme.attack_delay_cycles = 100;
    scheme.num_strikes = 50;
    scheme.gap_cycles = 4;
    attack::AttackController controller(dcfg, scheme);

    const auto stats = simulate_repeated_inferences(platform, controller, 3);
    ASSERT_EQ(stats.size(), 3u);
    for (const auto& s : stats) {
        EXPECT_TRUE(s.detector_fired);
        EXPECT_EQ(s.strike_cycles, 50u);
        EXPECT_EQ(s.capture_v.size(),
                  platform.engine().schedule().total_cycles * 2);
    }
    // Deterministic platform: every inference triggers at the same sample.
    EXPECT_EQ(stats[0].trigger_sample, stats[1].trigger_sample);
    EXPECT_EQ(stats[1].trigger_sample, stats[2].trigger_sample);
}

// The capture-only callers stop drawing TDC samples once their sources
// stop listening; what they return must equal a Sensor-mode co-sim of the
// same sources, which draws every sample.
TEST(CaptureOnlyCallers, EqualTheirSensorModeCosims) {
    Platform platform(PlatformConfig{}, deepstrike::testing::random_qnetwork(73));
    attack::AttackScheme scheme;
    scheme.attack_delay_cycles = 300;
    scheme.strike_cycles = 3;
    scheme.num_strikes = 120;
    scheme.gap_cycles = 7;

    for (const bool auto_rearm : {false, true}) {
        attack::DetectorConfig detector;
        detector.auto_rearm = auto_rearm;
        detector.rearm_samples = 32;
        attack::AttackController guided(detector, scheme);
        GuidedSource guided_source(guided);
        const CosimResult guided_ref =
            platform.simulate_inference(guided_source, CosimRecord::Sensor);
        ASSERT_TRUE(guided.triggered() || auto_rearm);
        EXPECT_GT(guided_ref.strike_cycles, 0u);
        EXPECT_EQ(guided_attack_trace(platform, detector, scheme), guided_ref.capture_v)
            << "auto_rearm " << auto_rearm;

        // Each inference re-arms the controller; the capture-only runs
        // must also report the same trigger sample.
        attack::AttackController repeated(detector, scheme);
        const std::vector<RepeatedInferenceStats> stats =
            simulate_repeated_inferences(platform, repeated, 2);
        attack::AttackController manual(detector, scheme);
        for (const RepeatedInferenceStats& entry : stats) {
            manual.rearm();
            GuidedSource source(manual);
            const CosimResult ref = platform.simulate_inference(source, CosimRecord::Sensor);
            EXPECT_EQ(entry.detector_fired, manual.triggered());
            EXPECT_EQ(entry.trigger_sample, manual.trigger_sample());
            EXPECT_EQ(entry.strike_cycles, ref.strike_cycles);
            EXPECT_EQ(entry.capture_v, ref.capture_v);
        }
    }

    const std::vector<accel::VoltageTrace> blind =
        SweepRunner(platform, RunnerConfig{0, true}).blind_bundle(scheme, 5, 9)->traces;
    ASSERT_EQ(blind.size(), 5u);
    for (const BlindReplay& replay : blind_replays(platform, scheme, 5, 9)) {
        attack::BlindController controller(scheme, replay.start_cycle);
        BlindSource source(controller);
        EXPECT_EQ(blind[replay.offset],
                  platform.simulate_inference(source, CosimRecord::Sensor).capture_v)
            << "offset " << replay.offset;
    }
}

TEST(RepeatedInferences, Validation) {
    Platform platform(PlatformConfig{}, deepstrike::testing::random_qnetwork(72));
    attack::AttackController controller(attack::DetectorConfig{},
                                        attack::AttackScheme{});
    EXPECT_THROW(simulate_repeated_inferences(platform, controller, 0), ContractError);
}

} // namespace
} // namespace deepstrike::sim
