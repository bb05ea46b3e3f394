#include "pdn/grid.hpp"

#include <algorithm>
#include <vector>

#include "util/error.hpp"

namespace deepstrike::pdn {

GridPdnModel::GridPdnModel(const GridPdnParams& params) : params_(params) {
    expects(params.regions >= 1, "GridPdnModel: at least one region");
    expects(params.r_vertical_ohm > 0 && params.r_lateral_ohm > 0,
            "GridPdnModel: positive grid resistances");
    expects(params.c_region_f > 0, "GridPdnModel: positive region capacitance");
    expects(params.substeps >= 1, "GridPdnModel: at least one substep");
    // Validate the package-level parameters through the single-node model.
    PdnModel probe(params.package);
    (void)probe;
    // Sub-stepped explicit integration must resolve the fastest grid pole:
    // tau_min ~ c_region / (1/r_vertical + 2/r_lateral).
    const double g_max = 1.0 / params.r_vertical_ohm + 2.0 / params.r_lateral_ohm;
    const double tau_min = params.c_region_f / g_max;
    expects(params.package.dt_s / static_cast<double>(params.substeps) < tau_min,
            "GridPdnModel: increase substeps to resolve the on-die grid pole");
    reset(0.0);
}

void GridPdnModel::reset(double i_idle_per_region_a) {
    const PdnParams& p = params_.package;
    const double i_total = i_idle_per_region_a * static_cast<double>(params_.regions);
    i_l_ = i_total;
    v_pkg_ = p.vdd - p.r_ohm * i_total;
    // Uniform load -> no lateral current; each region sits below the
    // package node by its own vertical IR drop.
    v_.assign(params_.regions, v_pkg_ - params_.r_vertical_ohm * i_idle_per_region_a);
}

void GridPdnModel::step(const std::vector<double>& loads) {
    expects(loads.size() == params_.regions, "GridPdnModel: one load per region");
    const PdnParams& p = params_.package;
    const double dt = p.dt_s / static_cast<double>(params_.substeps);
    const std::size_t regions = params_.regions;

    std::vector<double> v_next(regions);
    for (std::size_t sub = 0; sub < params_.substeps; ++sub) {
        // Regulator current into the package node (semi-implicit in v_pkg).
        i_l_ += dt * (p.vdd - v_pkg_ - p.r_ohm * i_l_) / p.l_henry;

        // Vertical currents package -> regions.
        double i_into_die = 0.0;
        for (std::size_t r = 0; r < regions; ++r) {
            i_into_die += (v_pkg_ - v_[r]) / params_.r_vertical_ohm;
        }

        // Package node (bulk decap).
        v_pkg_ += dt * (i_l_ - i_into_die) / p.c_farad;
        v_pkg_ = std::clamp(v_pkg_, 0.0, p.vdd * 1.25);

        // Region nodes (local decap + lateral grid).
        for (std::size_t r = 0; r < regions; ++r) {
            const double i_vert = (v_pkg_ - v_[r]) / params_.r_vertical_ohm;
            double lateral = 0.0;
            if (r > 0) lateral += (v_[r - 1] - v_[r]) / params_.r_lateral_ohm;
            if (r + 1 < regions) {
                lateral += (v_[r + 1] - v_[r]) / params_.r_lateral_ohm;
            }
            v_next[r] = v_[r] + dt * (i_vert + lateral - loads[r]) / params_.c_region_f;
            v_next[r] = std::clamp(v_next[r], 0.0, p.vdd * 1.25);
        }
        std::swap(v_, v_next);
    }
}

double GridPdnModel::voltage(std::size_t region) const {
    expects(region < v_.size(), "GridPdnModel: region in range");
    return v_[region];
}

std::vector<double> simulate_regional_droop(const GridPdnParams& params,
                                            double i_idle_per_region,
                                            std::size_t aggressor, double i_pulse,
                                            std::size_t pre_steps,
                                            std::size_t pulse_steps,
                                            std::size_t post_steps) {
    expects(aggressor < params.regions, "simulate_regional_droop: aggressor in range");

    GridPdnModel model(params);
    model.reset(i_idle_per_region);
    std::vector<double> min_v(params.regions, params.package.vdd);
    std::vector<double> loads(params.regions, i_idle_per_region);

    auto run = [&](std::size_t steps, bool pulsing) {
        loads[aggressor] = i_idle_per_region + (pulsing ? i_pulse : 0.0);
        for (std::size_t s = 0; s < steps; ++s) {
            model.step(loads);
            for (std::size_t r = 0; r < params.regions; ++r) {
                min_v[r] = std::min(min_v[r], model.voltage(r));
            }
        }
    };
    run(pre_steps, false);
    run(pulse_steps, true);
    run(post_steps, false);
    return min_v;
}

} // namespace deepstrike::pdn
