#include "striker/striker.hpp"

#include <string>

#include "util/error.hpp"

namespace deepstrike::striker {

using fabric::CellKind;
using fabric::NetId;
using fabric::Netlist;

StrikerBank::StrikerBank(const StrikerParams& params, const pdn::DelayModel& delay)
    : params_(params), delay_(delay) {
    expects(params.n_cells > 0, "StrikerBank: at least one cell");
    expects(params.tau_lut_s > 0 && params.tau_latch_s > 0, "StrikerBank: positive delays");
    expects(params.c_eff_f > 0, "StrikerBank: positive C_eff");
}

double StrikerBank::toggle_freq_hz(double v) const {
    const double loop_delay =
        (params_.tau_lut_s + params_.tau_latch_s) * delay_.factor(v);
    return 1.0 / (2.0 * loop_delay);
}

double StrikerBank::current_a(double v) const { return current_a(v, enabled_); }

double StrikerBank::current_a(double v, bool active) const {
    if (!active) return 0.0;
    const double f = toggle_freq_hz(v);
    const double per_loop = params_.c_eff_f * v * f;
    return per_loop * static_cast<double>(params_.loops_per_cell) *
           static_cast<double>(params_.n_cells);
}

double StrikerBank::thermal_power_w(double v) const {
    return current_a(v, /*active=*/true) * v * params_.thermal_power_factor;
}

Netlist build_striker_netlist(std::size_t n_cells) {
    expects(n_cells > 0, "build_striker_netlist: at least one cell");
    Netlist nl("power_striker");

    const NetId start = nl.add_net("start");
    nl.add_cell(CellKind::InPort, "start_pin", {}, {start});

    for (std::size_t i = 0; i < n_cells; ++i) {
        const std::string idx = std::to_string(i);
        // Loop nets: LUT outputs O6/O5, latch outputs Q6/Q5.
        const NetId o6 = nl.add_net("cell" + idx + "_o6");
        const NetId o5 = nl.add_net("cell" + idx + "_o5");
        const NetId q6 = nl.add_net("cell" + idx + "_q6");
        const NetId q5 = nl.add_net("cell" + idx + "_q5");

        // LUT6_2 as two parallel inverters of the latch outputs; the Start
        // net is the shared gate input (inverters emit 0 when disabled).
        nl.add_cell(CellKind::Lut6_2, "cell" + idx + "_lut", {q6, q5, start}, {o6, o5});
        // LDCE latches close the loops (gate tied to Start).
        nl.add_cell(CellKind::Ldce, "cell" + idx + "_ldce6", {o6, start}, {q6});
        nl.add_cell(CellKind::Ldce, "cell" + idx + "_ldce5", {o5, start}, {q5});
    }
    return nl;
}

RoBank::RoBank(const RoParams& params, const pdn::DelayModel& delay)
    : params_(params), delay_(delay) {
    expects(params.n_cells > 0, "RoBank: at least one cell");
}

double RoBank::toggle_freq_hz(double v) const {
    // Single-inverter ring: the loop is one LUT delay; toggle period is two
    // traversals.
    return 1.0 / (2.0 * params_.tau_lut_s * delay_.factor(v));
}

double RoBank::current_a(double v, bool active) const {
    if (!active) return 0.0;
    return params_.c_eff_f * v * toggle_freq_hz(v) * static_cast<double>(params_.n_cells);
}

Netlist build_ro_netlist(std::size_t n_cells) {
    expects(n_cells > 0, "build_ro_netlist: at least one cell");
    Netlist nl("ring_oscillator_bank");

    const NetId enable = nl.add_net("enable");
    nl.add_cell(CellKind::InPort, "enable_pin", {}, {enable});

    for (std::size_t i = 0; i < n_cells; ++i) {
        const std::string idx = std::to_string(i);
        const NetId loop = nl.add_net("ro" + idx + "_loop");
        // LUT configured as NAND(enable, loop): output feeds back directly —
        // a purely combinational self-loop.
        nl.add_cell(CellKind::Lut6, "ro" + idx + "_lut", {enable, loop}, {loop});
    }
    return nl;
}

double striker_power_per_lut_w(const StrikerParams& params, const pdn::DelayModel& delay) {
    StrikerBank bank(params, delay);
    const double v = delay.vdd;
    const double total_power = bank.current_a(v, /*active=*/true) * v;
    // LUT cost: one LUT6_2 per cell (latches occupy FF sites, not LUTs).
    return total_power / static_cast<double>(params.n_cells);
}

double ro_power_per_lut_w(const RoParams& params, const pdn::DelayModel& delay) {
    RoBank bank(params, delay);
    const double v = delay.vdd;
    const double total_power = bank.current_a(v, /*active=*/true) * v;
    return total_power / static_cast<double>(params.n_cells);
}

} // namespace deepstrike::striker
