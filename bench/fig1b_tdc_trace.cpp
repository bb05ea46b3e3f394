// Fig. 1(b): voltage fluctuation of three DNN layer executions collected
// by the TDC-based delay sensor.
//
// The paper's preliminary study runs a max-pooling layer, a 3x3
// convolution and a 1x1 convolution back to back and plots the TDC
// readout: stalls sit at the calibrated ~90-ones level, layer executions
// dip below it, and convolution fluctuation is much larger than pooling.
// We rebuild that exact microbench electrically: a three-segment activity
// schedule driving the shared PDN, sampled by the paper-configured TDC
// (F_dr = 200 MHz, L_LUT = 4, L_CARRY = 128, theta calibrated to ~90).
#include <algorithm>
#include <cstdio>
#include <vector>

#include "bench_common.hpp"
#include "pdn/delay.hpp"
#include "pdn/pdn.hpp"
#include "tdc/tdc.hpp"
#include "util/stats.hpp"

using namespace deepstrike;

namespace {

struct Phase {
    const char* name;
    std::size_t cycles;
    double current_a; // victim activity current during the phase
};

} // namespace

int main() {
    bench::banner("Fig. 1(b) - TDC readout trace across three DNN layers");

    const accel::AccelConfig acfg = accel::AccelConfig::pynq_z1();
    const double idle = acfg.i_platform_idle_a + acfg.i_accel_static_a;
    const double conv_full =
        idle + acfg.i_mac_unit_a * static_cast<double>(acfg.macs_per_cycle_conv());
    const double pool_cur =
        idle + acfg.i_pool_unit_a * static_cast<double>(acfg.pool_ops_per_cycle);

    // maxpool, conv 3x3, conv 1x1 (smaller MAC count -> ~60% array power).
    const std::vector<Phase> phases = {
        {"stall", 800, idle},
        {"maxpool", 3000, pool_cur},
        {"stall", 800, idle},
        {"conv3x3", 4000, conv_full},
        {"stall", 800, idle},
        {"conv1x1", 2500, idle + (conv_full - idle) * 0.6},
        {"stall", 800, idle},
    };

    const pdn::DelayModel delay{};
    const tdc::TdcConfig tcfg = tdc::TdcConfig::paper_config();
    const tdc::TdcSensor sensor(tcfg, delay);
    pdn::PdnModel pdn_model(pdn::PdnParams::pynq_z1());
    pdn_model.reset(idle);
    Rng tdc_rng(99);

    std::printf("TDC config: F_dr=%.0f MHz, L_LUT=%zu, L_CARRY=%zu, theta=%.2f ns, "
                "calibrated to %zu ones at nominal\n",
                tcfg.f_dr_hz / 1e6, tcfg.l_lut, tcfg.l_carry, sensor.theta_s() * 1e9,
                tcfg.target_ones);

    CsvWriter csv = bench::open_csv("fig1b_tdc_trace.csv");
    csv.row("sample", "phase", "readout", "voltage");

    struct PhaseStats {
        const char* name;
        RunningStats readout;
    };
    std::vector<PhaseStats> stats;

    const std::size_t ramp = acfg.activity_ramp_cycles;
    double v = pdn_model.voltage();
    std::size_t sample_idx = 0;
    for (const Phase& phase : phases) {
        stats.push_back({phase.name, {}});
        for (std::size_t c = 0; c < phase.cycles; ++c) {
            // Pipeline fill/drain ramp as in the accelerator schedule.
            double i = phase.current_a;
            if (phase.current_a > idle) {
                double scale = 1.0;
                if (c < ramp) scale = static_cast<double>(c + 1) / ramp;
                if (phase.cycles - c < ramp) {
                    scale = std::min(scale, static_cast<double>(phase.cycles - c) / ramp);
                }
                i = idle + (phase.current_a - idle) * scale;
            }
            for (std::size_t tick = 0; tick < 10; ++tick) {
                v = pdn_model.step(i);
                if (tick == 2 || tick == 7) {
                    const tdc::TdcSample s = sensor.sample(v, tdc_rng);
                    stats.back().readout.add(s.readout);
                    // Keep the CSV manageable: record every 8th sample.
                    if (sample_idx % 8 == 0) {
                        csv.row(sample_idx, phase.name, static_cast<int>(s.readout), v);
                    }
                    ++sample_idx;
                }
            }
        }
    }

    std::printf("\n%-10s %10s %10s %10s %10s\n", "phase", "samples", "mean", "min",
                "stddev");
    double stall_mean = 0.0;
    for (const auto& ps : stats) {
        if (std::string(ps.name) == "stall") stall_mean = ps.readout.mean();
    }
    RunningStats conv_dip;
    RunningStats pool_dip;
    for (const auto& ps : stats) {
        std::printf("%-10s %10zu %10.2f %10.0f %10.2f\n", ps.name, ps.readout.count(),
                    ps.readout.mean(), ps.readout.min(), ps.readout.stddev());
        if (std::string(ps.name).find("conv") == 0) conv_dip.add(stall_mean - ps.readout.mean());
        if (std::string(ps.name) == "maxpool") pool_dip.add(stall_mean - ps.readout.mean());
    }

    std::printf("\npaper-shape checks:\n");
    std::printf("  stall readout ~ calibration point : %.1f (target %zu)\n", stall_mean,
                tdc::TdcConfig::paper_config().target_ones);
    std::printf("  conv dip below stall              : %.2f stages\n", conv_dip.mean());
    std::printf("  maxpool dip below stall           : %.2f stages\n", pool_dip.mean());
    bench::ShapeChecks checks;
    checks.check("conv fluctuation >> pooling      ",
                 conv_dip.mean() > 2.0 * pool_dip.mean(), "(%.2f vs %.2f)",
                 conv_dip.mean(), pool_dip.mean());
    return checks.exit_code();
}
