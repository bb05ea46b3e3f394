// Extension: TDC-based glitch monitor as a countermeasure.
//
// The defender reuses the attack's own sensing primitive: a delay sensor
// watching for voltage excursions deeper than the victim's worst-case
// activity signature. On alarm, the accelerator's DSP clock throttles to
// single data rate for a hold-off window, doubling the timing slack. This
// bench measures detection, accuracy recovery and the throughput cost
// across attack intensities — quantifying one defense the paper's threat
// model leaves open.
#include <cstdio>

#include "bench_common.hpp"
#include "defense/monitor.hpp"

using namespace deepstrike;

int main() {
    bench::banner("Extension: glitch monitor + clock-throttle mitigation");
    bench::TrainedPlatform tp = bench::trained_platform();

    const std::size_t kEvalImages = 200;
    const sim::AccuracyResult clean =
        sim::evaluate_accuracy(tp.platform, tp.test_set, kEvalImages, {}, 4);
    std::printf("untampered accuracy: %.4f\n\n", clean.accuracy);

    const sim::ProfilingRun prof = sim::run_profiling(tp.platform);
    if (prof.profile.segments.size() < 3) {
        std::printf("profiling failed\n");
        return 1;
    }
    const attack::ProfiledSegment conv2 = prof.profile.segments[2];

    // Sanity: no false alarms on the clean trace.
    const defense::DefenseOutcome clean_def = defense::run_monitor(
        prof.cosim.tdc_readouts, tp.platform.engine().schedule().total_cycles);
    std::printf("false alarms on clean inference: %zu\n\n", clean_def.alarms);

    // TMR comparison platform: same board, same weights, voting DSPs.
    sim::PlatformConfig tmr_cfg;
    tmr_cfg.accel.tmr_protection = true;
    sim::Platform tmr_platform(tmr_cfg, tp.qnet);

    CsvWriter csv = bench::open_csv("ext_defense_monitor.csv");
    csv.row("strikes", "acc_undefended", "acc_throttle", "acc_tmr", "alarms",
            "detect_latency_cycles", "throttled_fraction", "slowdown");

    std::printf("%8s %12s %12s %10s %8s %14s %12s %10s\n", "strikes", "undefended",
                "throttle", "tmr(3x)", "alarms", "latency(cyc)", "throttled",
                "slowdown");

    for (std::size_t strikes : {250UL, 500UL, 1000UL, 2000UL, 4500UL}) {
        const attack::AttackScheme scheme = attack::plan_attack(
            conv2, prof.trigger_sample, tp.platform.config().samples_per_cycle(),
            strikes);

        // One co-sim serves both sides: the attack's voltage trace and the
        // defender's readouts come from the same shared PDN.
        attack::AttackController controller(attack::DetectorConfig{}, scheme);
        sim::GuidedSource source(controller);
        const sim::CosimResult cosim = tp.platform.simulate_inference(source);

        const defense::DefenseOutcome def = defense::run_monitor(
            cosim.tdc_readouts, tp.platform.engine().schedule().total_cycles);

        const accel::OverlayPlan plan = tp.platform.engine().plan_overlay(&cosim.capture_v);
        const accel::OverlayPlan tmr_plan =
            tmr_platform.engine().plan_overlay(&cosim.capture_v);
        const sim::AccuracyResult undefended = sim::evaluate_accuracy(
            tp.platform, tp.test_set, kEvalImages, {&plan, 1}, 4);
        const sim::AccuracyResult defended = sim::evaluate_accuracy(
            tp.platform, tp.test_set, kEvalImages, {&plan, 1}, 4, &def.throttle);
        const sim::AccuracyResult tmr_def = sim::evaluate_accuracy(
            tmr_platform, tp.test_set, kEvalImages, {&tmr_plan, 1}, 4);

        const double latency =
            def.alarms > 0
                ? static_cast<double>(def.first_alarm_sample) / 2.0 -
                      static_cast<double>(
                          tp.platform.engine().schedule().segment_for("CONV2").start_cycle)
                : -1.0;

        std::printf("%8zu %12.4f %12.4f %10.4f %8zu %14.1f %11.1f%% %9.2fx\n", strikes,
                    undefended.accuracy, defended.accuracy, tmr_def.accuracy,
                    def.alarms, latency, 100.0 * def.throttled_fraction,
                    def.slowdown());
        csv.row(strikes, undefended.accuracy, defended.accuracy, tmr_def.accuracy,
                def.alarms, latency, def.throttled_fraction, def.slowdown());
    }

    std::printf("\nreading: the monitor detects every attack configuration within a\n"
                "few cycles of the first strike, and the throttle restores accuracy\n"
                "to the clean baseline at a bounded throughput cost. The residual\n"
                "exposure is the response latency: the first strike of a campaign\n"
                "can still fault before the alarm lands. TMR (3x DSP cost) helps at\n"
                "moderate intensity but cannot vote away deep glitches where every\n"
                "replica faults.\n");
    return 0;
}
