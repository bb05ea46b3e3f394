// Fig. 6(b): duplication and random fault rates of double-data-rate DSP
// slices vs. the number of power striker cells.
//
// Rig per Sec. IV-A / Fig. 6(a): DSP slices configured as (A+D)*B are fed
// 10,000 random inputs; the striker fires for one clock cycle as each op
// launches; results are fetched five cycles later and classified
// observationally (match = correct, equals previous input's result =
// duplication fault, anything else = random fault).
#include <cstdio>
#include <vector>

#include "bench_common.hpp"
#include "sim/runner.hpp"

using namespace deepstrike;

int main() {
    bench::banner("Fig. 6(b) - DSP fault rates vs. number of power striker cells");

    sim::DspRigConfig cfg;
    cfg.trials = 10000; // as in the paper

    std::printf("rig: %zu trials per point, %zu DSP slices, (A+D)*B configuration, "
                "1-cycle strike, result fetched after %zu cycles\n",
                cfg.trials, cfg.n_dsp_slices, std::size_t{5});

    CsvWriter csv = bench::open_csv("fig6b_dsp_fault_rates.csv");
    csv.row("striker_cells", "duplication_rate", "random_rate", "total_rate",
            "min_voltage");

    std::printf("\n%12s %12s %12s %12s %12s\n", "cells", "dup_rate", "random_rate",
                "total_rate", "min_voltage");

    std::vector<std::size_t> cell_grid;
    for (std::size_t cells = 2000; cells <= 24000; cells += 2000) {
        cell_grid.push_back(cells);
    }
    sim::RunManifest manifest;
    const std::vector<sim::DspRigResult> sweep =
        sim::run_dsp_characterization_sweep(cell_grid, cfg, 0, &manifest);

    double total_at_24k = 0.0;
    double total_at_4k = 0.0;
    double dup_peak = 0.0;
    bool dup_peak_interior = false;
    double prev_total = 0.0;
    bool monotone = true;

    for (std::size_t i = 0; i < cell_grid.size(); ++i) {
        const std::size_t cells = cell_grid[i];
        const sim::DspRigResult& r = sweep[i];
        std::printf("%12zu %12.4f %12.4f %12.4f %12.4f\n", cells, r.duplication_rate,
                    r.random_rate, r.total_rate(), r.min_voltage);
        csv.row(cells, r.duplication_rate, r.random_rate, r.total_rate(), r.min_voltage);

        if (cells == 24000) total_at_24k = r.total_rate();
        if (cells == 4000) total_at_4k = r.total_rate();
        if (r.duplication_rate > dup_peak) {
            dup_peak = r.duplication_rate;
            dup_peak_interior = cells > 4000 && cells < 22000;
        }
        if (r.total_rate() + 0.02 < prev_total) monotone = false;
        prev_total = r.total_rate();
    }

    std::printf("\nsweep: %zu points in %.2fs on %zu threads\n",
                manifest.points.size(), manifest.total_seconds, manifest.threads);

    std::printf("\npaper-shape checks:\n");
    bench::ShapeChecks checks;
    checks.check("total fault rate ~100% at 24,000 cells", total_at_24k > 0.95,
                 "(%.1f%%)", 100.0 * total_at_24k);
    checks.check("near zero at low cell counts          ", total_at_4k < 0.05,
                 "(%.1f%% at 4,000)", 100.0 * total_at_4k);
    checks.check("total rate monotone in cells          ", monotone);
    checks.check("duplication peaks mid-range, random takes over at high intensity",
                 dup_peak_interior);
    std::printf("  -> attacker controls fault intensity by choosing the cell count\n");
    return checks.exit_code();
}
