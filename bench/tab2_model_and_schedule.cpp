// Victim headline numbers (Sec. IV): trained/quantized model accuracy and
// the per-layer execution schedule whose shape drives the attack
// (FC1 longest; CONV2 larger and longer than CONV1).
#include <cstdio>

#include "bench_common.hpp"
#include "quant/qnetwork.hpp"

using namespace deepstrike;

int main() {
    bench::banner("Table: victim model accuracy and accelerator schedule (Sec. IV)");
    bench::TrainedPlatform tp = bench::trained_platform();

    // Accuracies: float reference, bit-exact quantized reference, and the
    // cycle-level accelerator (fault-free).
    const double qacc = tp.qnet.evaluate_accuracy(tp.test_set);
    const sim::AccuracyResult accel_clean =
        sim::evaluate_accuracy(tp.platform, tp.test_set, tp.test_set.size(), {}, 1);

    CsvWriter csv = bench::open_csv("tab2_model_and_schedule.csv");
    csv.row("metric", "value");
    csv.row("float_test_accuracy", tp.trained.test_accuracy);
    csv.row("quantized_test_accuracy", qacc);
    csv.row("accelerator_clean_accuracy", accel_clean.accuracy);

    std::printf("model: LeNet-5, 8-bit fixed point (3 integer bits), tanh activations\n");
    std::printf("  float test accuracy            : %.4f\n", tp.trained.test_accuracy);
    std::printf("  quantized (Q3.4) test accuracy : %.4f   (paper: 96.17%% on FPGA)\n",
                qacc);
    std::printf("  accelerator clean accuracy     : %.4f\n", accel_clean.accuracy);

    // Schedule table.
    const auto& sched = tp.platform.engine().schedule();
    const double f = tp.platform.config().accel.fabric_clock_hz;
    std::printf("\n%-8s %12s %12s %14s %10s\n", "segment", "cycles", "time_us", "ops",
                "ops/cycle");
    csv.row("segment", "cycles", "time_us", "ops", "ops_per_cycle");
    for (const auto& seg : sched.segments) {
        if (seg.kind == accel::SegmentKind::Stall) continue;
        std::printf("%-8s %12zu %12.2f %14zu %10zu\n", seg.label.c_str(),
                    seg.cycles, 1e6 * static_cast<double>(seg.cycles) / f, seg.total_ops,
                    seg.ops_per_cycle);
        csv.row(seg.label, seg.cycles,
                1e6 * static_cast<double>(seg.cycles) / f, seg.total_ops,
                seg.ops_per_cycle);
    }
    std::printf("total inference: %zu cycles = %.2f us at %.0f MHz fabric clock\n",
                sched.total_cycles, 1e6 * static_cast<double>(sched.total_cycles) / f,
                f / 1e6);

    const std::size_t conv1 = sched.segment_for("CONV1").cycles;
    const std::size_t conv2 = sched.segment_for("CONV2").cycles;
    const std::size_t fc1 = sched.segment_for("FC1").cycles;
    std::printf("\npaper-shape checks:\n");
    bench::ShapeChecks checks;
    checks.check("accelerator bit-exact with golden ", accel_clean.accuracy == qacc);
    checks.check("FC1 takes the longest to execute  ", fc1 > conv2 && fc1 > conv1);
    checks.check("CONV2 larger & longer than CONV1  ", conv2 > conv1);
    checks.check("quantized accuracy in the 96%-band", qacc > 0.93 && qacc < 1.0,
                 "(%.2f%%)", 100.0 * qacc);

    // DSP timing summary: why DSP layers are the vulnerable ones.
    const auto& eng = tp.platform.engine();
    std::printf("\nDSP datapath timing (DDR, 200 MHz):\n");
    std::printf("  conv path sign-off fraction %.2f -> faults below %.4f V\n",
                tp.platform.config().accel.dsp_timing.nominal_path_fraction,
                eng.conv_safe_voltage());
    std::printf("  FC path sign-off fraction   %.2f -> faults below %.4f V\n",
                tp.platform.config().accel.fc_timing.nominal_path_fraction,
                eng.fc_safe_voltage());
    return checks.exit_code();
}
