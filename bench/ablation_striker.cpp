// Ablation: latch-based striker cell (paper Fig. 2) vs. the classic
// ring-oscillator power waster of prior work [6][26].
//
// Two claims to quantify (Sec. III-C): the latch scheme (a) draws more
// dynamic power per occupied LUT (two oscillating loops per LUT6_2) and
// (b) passes DRC, while the RO is rejected. We also report the PDN droop
// each scheme achieves per 1000 LUTs — the actual attack currency.
#include <cstdio>

#include "bench_common.hpp"
#include "fabric/drc.hpp"
#include "pdn/pdn.hpp"
#include "striker/striker.hpp"

using namespace deepstrike;

namespace {

double droop_for_current(double i_pulse) {
    // 10 ns pulse from idle, as one strike cycle.
    const auto trace =
        pdn::simulate_current_step(pdn::PdnParams::pynq_z1(), 0.05, i_pulse, 20, 10, 50);
    return 1.0 - pdn::trace_min(trace);
}

} // namespace

int main() {
    bench::banner("Ablation: latch-based striker vs. ring oscillator");

    const pdn::DelayModel delay{};

    const double latch_w_per_lut = striker::striker_power_per_lut_w({}, delay);
    const double ro_w_per_lut = striker::ro_power_per_lut_w({}, delay);

    CsvWriter csv = bench::open_csv("ablation_striker.csv");
    csv.row("scheme", "power_per_lut_uW", "droop_per_1000_luts_mV", "drc");

    std::printf("%-22s %18s %24s %8s\n", "scheme", "power/LUT (uW)",
                "droop per 1000 LUTs (mV)", "DRC");

    bool drc_pass_of[2] = {false, false}; // [0] latch, [1] ring oscillator
    for (int scheme = 0; scheme < 2; ++scheme) {
        const bool latch = scheme == 0;
        const char* name = latch ? "LUT6_2 + 2x LDCE" : "ring oscillator";
        const double w_per_lut = latch ? latch_w_per_lut : ro_w_per_lut;

        double i_1000;
        if (latch) {
            striker::StrikerParams p;
            p.n_cells = 1000;
            i_1000 = striker::StrikerBank(p, delay).current_a(1.0, true);
        } else {
            striker::RoParams p;
            p.n_cells = 1000;
            i_1000 = striker::RoBank(p, delay).current_a(1.0, true);
        }
        const double droop_mv = 1000.0 * droop_for_current(i_1000);

        const fabric::Netlist nl = latch ? striker::build_striker_netlist(64)
                                         : striker::build_ro_netlist(64);
        const bool drc_pass =
            fabric::run_drc(nl).count(fabric::DrcRule::CombinationalLoop) == 0;
        drc_pass_of[scheme] = drc_pass;

        std::printf("%-22s %18.2f %24.2f %8s\n", name, 1e6 * w_per_lut, droop_mv,
                    drc_pass ? "PASS" : "FAIL");
        csv.row(name, 1e6 * w_per_lut, droop_mv, drc_pass ? "pass" : "fail");
    }

    std::printf("\npaper-claim checks:\n");
    bench::ShapeChecks checks;
    checks.check("latch scheme higher power per LUT", latch_w_per_lut > ro_w_per_lut,
                 "(%.2fx)", latch_w_per_lut / ro_w_per_lut);
    checks.check("only the latch scheme passes DRC ", drc_pass_of[0] && !drc_pass_of[1],
                 "(see table)");
    std::printf("  -> same attack strength with fewer LUTs, and deployable on\n"
                "     DRC-screened clouds where ROs are banned\n");
    return checks.exit_code();
}
