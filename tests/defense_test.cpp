#include <gtest/gtest.h>

#include "defense/monitor.hpp"
#include "sim/experiment.hpp"
#include "test_helpers.hpp"
#include "util/error.hpp"

namespace deepstrike::defense {
namespace {

/// Readout trace: `n` samples at `level` with spikes of `depth` at the
/// given positions.
std::vector<std::uint8_t> trace_with_glitches(std::size_t n, std::uint8_t level,
                                              std::uint8_t depth,
                                              const std::vector<std::size_t>& at) {
    std::vector<std::uint8_t> t(n, level);
    for (std::size_t i : at) t[i] = static_cast<std::uint8_t>(level - depth);
    return t;
}

TEST(GlitchMonitor, CalibratesThenDetects) {
    MonitorConfig cfg;
    cfg.calibration_samples = 100;
    GlitchMonitor monitor(cfg);

    for (int i = 0; i < 100; ++i) EXPECT_FALSE(monitor.on_sample(89));
    EXPECT_TRUE(monitor.calibrated());
    EXPECT_NEAR(monitor.baseline(), 89.0, 1e-9);

    EXPECT_FALSE(monitor.on_sample(85)); // layer-level dip: no alarm
    EXPECT_TRUE(monitor.on_sample(79));  // glitch-level dip: alarm
    EXPECT_EQ(monitor.alarm_count(), 1u);
    EXPECT_EQ(monitor.first_alarm_sample(), 101u);
}

TEST(GlitchMonitor, NoAlarmDuringCalibration) {
    MonitorConfig cfg;
    cfg.calibration_samples = 50;
    GlitchMonitor monitor(cfg);
    for (int i = 0; i < 50; ++i) EXPECT_FALSE(monitor.on_sample(40)); // junk
    EXPECT_TRUE(monitor.calibrated());
}

TEST(GlitchMonitor, ResetClearsState) {
    MonitorConfig cfg;
    cfg.calibration_samples = 10;
    GlitchMonitor monitor(cfg);
    for (int i = 0; i < 10; ++i) monitor.on_sample(89);
    monitor.on_sample(70);
    EXPECT_EQ(monitor.alarm_count(), 1u);
    monitor.reset();
    EXPECT_FALSE(monitor.calibrated());
    EXPECT_EQ(monitor.alarm_count(), 0u);
}

TEST(GlitchMonitor, ConfigValidation) {
    MonitorConfig cfg;
    cfg.calibration_samples = 0;
    EXPECT_THROW(GlitchMonitor{cfg}, ContractError);
    cfg = MonitorConfig{};
    cfg.alarm_depth_stages = 0.0;
    EXPECT_THROW(GlitchMonitor{cfg}, ContractError);
}

TEST(RunMonitor, ThrottleMaskCoversHoldoff) {
    MonitorConfig cfg;
    cfg.calibration_samples = 100;
    cfg.response_latency_cycles = 2;
    cfg.holdoff_cycles = 50;

    const auto readouts = trace_with_glitches(2000, 89, 10, {1000});
    const DefenseOutcome out = run_monitor(readouts, 1000, cfg);
    EXPECT_EQ(out.alarms, 1u);

    const std::size_t alarm_cycle = 1000 / 2;
    EXPECT_FALSE(out.throttle[alarm_cycle + 1]);
    EXPECT_TRUE(out.throttle[alarm_cycle + 2]);
    EXPECT_TRUE(out.throttle[alarm_cycle + 51]);
    EXPECT_FALSE(out.throttle[alarm_cycle + 52]);
    EXPECT_NEAR(out.throttled_fraction, 50.0 / 1000.0, 1e-9);
    EXPECT_NEAR(out.slowdown(), 1.05, 1e-9);
}

TEST(RunMonitor, QuietTraceNoThrottle) {
    const auto readouts = trace_with_glitches(4000, 89, 0, {});
    const DefenseOutcome out = run_monitor(readouts, 2000, {});
    EXPECT_EQ(out.alarms, 0u);
    EXPECT_DOUBLE_EQ(out.throttled_fraction, 0.0);
}

TEST(RunMonitor, RepeatedGlitchesExtendThrottle) {
    MonitorConfig cfg;
    cfg.calibration_samples = 100;
    cfg.holdoff_cycles = 30;
    std::vector<std::size_t> spikes;
    for (std::size_t s = 1000; s < 1400; s += 40) spikes.push_back(s);
    const auto readouts = trace_with_glitches(3000, 89, 12, spikes);
    const DefenseOutcome out = run_monitor(readouts, 1500, cfg);
    EXPECT_EQ(out.alarms, spikes.size());
    // Continuous coverage between consecutive alarms (20-cycle spacing
    // < 30-cycle holdoff).
    for (std::size_t c = 1000 / 2 + 2; c < 1400 / 2; ++c) {
        EXPECT_TRUE(out.throttle[c]) << c;
    }
}

// ---- end-to-end: monitor defends the platform ---------------------------

TEST(Defense, NoFalseAlarmsOnCleanInference) {
    sim::Platform platform(sim::PlatformConfig{},
                           deepstrike::testing::random_qnetwork(31));
    sim::NoAttackSource source;
    const sim::CosimResult cosim = platform.simulate_inference(source);
    const DefenseOutcome out =
        run_monitor(cosim.tdc_readouts, platform.engine().schedule().total_cycles);
    EXPECT_EQ(out.alarms, 0u);
}

TEST(Defense, DetectsGuidedAttackAndRestoresCorrectness) {
    sim::Platform platform(sim::PlatformConfig{},
                           deepstrike::testing::random_qnetwork(32));
    const sim::ProfilingRun prof = sim::run_profiling(platform);
    ASSERT_GE(prof.profile.segments.size(), 3u);

    const attack::AttackScheme scheme = attack::plan_attack(
        prof.profile.segments[2], prof.trigger_sample, 2.0, 600);

    // Re-simulate the attack, capturing both the victim's voltage and the
    // defender's readouts (same physical line).
    attack::AttackController controller(attack::DetectorConfig{}, scheme);
    sim::GuidedSource source(controller);
    const sim::CosimResult cosim = platform.simulate_inference(source);

    const DefenseOutcome out =
        run_monitor(cosim.tdc_readouts, platform.engine().schedule().total_cycles);
    EXPECT_GT(out.alarms, 0u);
    EXPECT_GT(out.throttled_fraction, 0.0);

    // Faults with and without the throttle mask.
    auto ds = data::make_datasets(3, 1, 20);
    const accel::OverlayPlan plan = platform.engine().plan_overlay(&cosim.capture_v);
    const sim::AccuracyResult undefended =
        sim::evaluate_accuracy(platform, ds.test, 20, {&plan, 1}, 9);
    const sim::AccuracyResult defended =
        sim::evaluate_accuracy(platform, ds.test, 20, {&plan, 1}, 9, &out.throttle);

    EXPECT_GT(undefended.faults.total(), 0u);
    EXPECT_LT(defended.faults.total(), undefended.faults.total() / 5);
    EXPECT_GE(defended.accuracy, undefended.accuracy);
}

TEST(Defense, FirstStrikeSlipsThroughResponseLatency) {
    // The throttle cannot be retroactive: the strike that raises the first
    // alarm may itself fault. Verify the mask starts after the alarm.
    MonitorConfig cfg;
    cfg.calibration_samples = 100;
    cfg.response_latency_cycles = 2;
    const auto readouts = trace_with_glitches(1000, 89, 10, {600});
    const DefenseOutcome out = run_monitor(readouts, 500, cfg);
    ASSERT_EQ(out.alarms, 1u);
    EXPECT_FALSE(out.throttle[600 / 2]); // the alarming cycle itself
}

} // namespace
} // namespace deepstrike::defense
