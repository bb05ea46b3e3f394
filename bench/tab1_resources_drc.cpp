// Resource utilization and DRC screening of the attacker circuits
// (Sec. III-C and Sec. IV headline numbers).
//
// Reproduces: the power striker consumes 15.03% of the PYNQ-Z1's logic
// slices; the latch-based striker passes design rule checking while a
// ring-oscillator bank of the same size is rejected; the TDC sensor is an
// ordinary feed-forward design.
#include <cstdio>

#include "accel/netlist_builder.hpp"
#include "bench_common.hpp"
#include "fabric/drc.hpp"
#include "fabric/resources.hpp"
#include "striker/striker.hpp"
#include "tdc/netlist_builder.hpp"
#include "test_free_random_weights.hpp"

using namespace deepstrike;

namespace {

void report(const fabric::Netlist& nl, const fabric::DeviceModel& dev, CsvWriter& csv) {
    const fabric::Utilization util = fabric::utilization(nl, dev);
    const fabric::DrcReport drc = fabric::run_drc(nl);
    const std::size_t loops = drc.count(fabric::DrcRule::CombinationalLoop);

    std::printf("%-24s %8zu %8zu %8zu %8zu %9.2f%% %s\n", nl.name().c_str(),
                util.used.luts, util.used.ffs, util.used.dsps, util.used.brams,
                util.slice_pct(), loops == 0 ? "PASS" : "FAIL (comb. loops)");
    csv.row(nl.name(), util.used.luts, util.used.ffs, util.used.dsps, util.used.brams,
            util.slice_pct(), loops == 0 ? "pass" : "fail");
}

} // namespace

int main() {
    bench::banner("Table: attacker resource utilization & DRC (Sec. III-C / IV)");

    const fabric::DeviceModel dev = fabric::DeviceModel::pynq_z1();
    std::printf("device: %s (%zu LUT, %zu slices, %zu DSP, %zu BRAM36)\n\n",
                dev.name.c_str(), dev.luts, dev.slices, dev.dsps, dev.bram36);

    CsvWriter csv = bench::open_csv("tab1_resources_drc.csv");
    csv.row("design", "luts", "ffs", "dsps", "brams", "slice_pct", "drc");

    std::printf("%-24s %8s %8s %8s %8s %10s %s\n", "design", "LUT", "FF", "DSP", "BRAM",
                "slices", "DRC");

    const fabric::Netlist tdc_nl = tdc::build_tdc_netlist(tdc::TdcConfig::paper_config());
    report(tdc_nl, dev, csv);

    const fabric::Netlist striker_nl = striker::build_striker_netlist(8000);
    report(striker_nl, dev, csv);

    const fabric::Netlist striker24_nl = striker::build_striker_netlist(24000);
    report(striker24_nl, dev, csv);

    const fabric::Netlist ro_nl = striker::build_ro_netlist(8000);
    report(ro_nl, dev, csv);

    // The victim accelerator (LeNet-5 geometry; weight values irrelevant).
    const fabric::Netlist victim_nl = accel::build_accelerator_netlist(
        bench::lenet_geometry_network(), accel::AccelConfig::pynq_z1());
    report(victim_nl, dev, csv);

    // Composed attacker bitstream, as the hypervisor would screen it.
    fabric::Netlist attacker("attacker_combined");
    attacker.merge(tdc_nl, "tdc_");
    attacker.merge(striker_nl, "striker_");
    report(attacker, dev, csv);

    // The full multi-tenant bitstream: victim + attacker on one device.
    fabric::Netlist system("unified_bitstream");
    system.merge(victim_nl, "victim_");
    system.merge(tdc_nl, "atk_tdc_");
    system.merge(striker_nl, "atk_striker_");
    report(system, dev, csv);

    const fabric::Utilization striker_util = fabric::utilization(striker_nl, dev);
    std::printf("\npaper-number checks:\n");
    std::printf("  power striker slice share (paper: 15.03%%) : %.2f%%\n",
                striker_util.slice_pct());
    bench::ShapeChecks checks;
    checks.check("latch-based striker passes DRC           ",
                 fabric::run_drc(striker_nl).count(fabric::DrcRule::CombinationalLoop) == 0);
    checks.check("ring-oscillator bank rejected by DRC     ",
                 fabric::run_drc(ro_nl).count(fabric::DrcRule::CombinationalLoop) > 0);
    checks.check("victim + attacker fit one XC7Z020        ",
                 fabric::utilization(system, dev).fits());
    return checks.exit_code();
}
