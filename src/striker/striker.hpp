// Power striker (paper Sec. III-C, Fig. 2).
//
// The malicious power-wasting circuit: one LUT6_2 configured as two
// parallel inverters whose outputs O6/O5 each close a loop through an LDCE
// transparent latch. When Start=1 the latches are transparent and both
// loops self-oscillate; because the loop contains a latch, design rule
// checking does not classify it as a combinational loop (unlike a classic
// ring oscillator), so the design passes hypervisor screening.
//
// Electrical model: each loop toggles with period 2*(tau_lut + tau_latch)
// scaled by the voltage-delay factor; dynamic current is C_eff * V * f per
// loop. The self-slowing feedback (droop -> slower oscillation -> less
// current) is captured because current() takes the instantaneous voltage.
#pragma once

#include <cstddef>

#include "fabric/netlist.hpp"
#include "pdn/delay.hpp"

namespace deepstrike::striker {

struct StrikerParams {
    std::size_t n_cells = 8000;   // one LUT6_2 + 2 LDCE per cell
    double tau_lut_s = 250e-12;   // LUT propagation delay (nominal)
    double tau_latch_s = 150e-12; // latch D->Q transparent delay (nominal)
    double c_eff_f = 11e-15;      // effective switched capacitance per loop
    std::size_t loops_per_cell = 2; // O6 and O5 loops
    /// Thermal dissipation per unit of droop-effective dynamic power.
    /// c_eff_f captures only the localized switched capacitance that
    /// drives the PDN droop; total heat additionally includes routing
    /// capacitance, crowbar (short-circuit) current and glitch power —
    /// several times larger for a free-running oscillator.
    double thermal_power_factor = 8.0;

    /// Cell count used in the paper's end-to-end attack: 15.03% of the
    /// PYNQ-Z1's 13,300 slices = ~2,000 slices = ~8,000 LUTs.
    static StrikerParams end_to_end() { return StrikerParams{}; }

    /// Maximum count used in the DSP characterization sweep (Fig. 6b).
    static StrikerParams characterization_max() {
        StrikerParams p;
        p.n_cells = 24000;
        return p;
    }
};

/// A bank of identical striker cells gated by one Start signal.
class StrikerBank {
public:
    StrikerBank(const StrikerParams& params, const pdn::DelayModel& delay);

    void set_enabled(bool enabled) { enabled_ = enabled; }
    bool enabled() const { return enabled_; }

    std::size_t n_cells() const { return params_.n_cells; }
    const StrikerParams& params() const { return params_; }

    /// Per-loop oscillation frequency at die voltage `v`.
    double toggle_freq_hz(double v) const;

    /// Instantaneous current draw (A) at die voltage `v`; zero when
    /// disabled.
    double current_a(double v) const;

    /// Current with an explicit enable (used by schedule replay without
    /// mutating state). The co-sim calls it once per striking lane and
    /// tick; the delay-model pow() inside dominates its cost.
    double current_a(double v, bool active) const;

    /// Total heat dissipated when active (W) — see thermal_power_factor.
    double thermal_power_w(double v) const;

private:
    StrikerParams params_;
    pdn::DelayModel delay_;
    bool enabled_ = false;
};

/// Builds the structural netlist of `n_cells` striker cells + the Start
/// distribution. Passes DRC (the loops run through LDCE latches).
fabric::Netlist build_striker_netlist(std::size_t n_cells);

// ---- Ring-oscillator baseline (prior work [6][26]) ----------------------
//
// A classic LUT-inverter ring: fails DRC (combinational self-loop) and is
// banned on security-conscious clouds. Kept as the ablation baseline for
// power-per-LUT comparisons.

struct RoParams {
    std::size_t n_cells = 8000;
    double tau_lut_s = 250e-12;
    double c_eff_f = 11e-15;
};

class RoBank {
public:
    RoBank(const RoParams& params, const pdn::DelayModel& delay);

    double toggle_freq_hz(double v) const;
    double current_a(double v, bool active) const;
    std::size_t n_cells() const { return params_.n_cells; }

private:
    RoParams params_;
    pdn::DelayModel delay_;
};

/// Ring-oscillator netlist: one LUT1 inverter feeding itself. Fails DRC.
fabric::Netlist build_ro_netlist(std::size_t n_cells);

/// Attack efficiency metric used by the ablation bench: dynamic power per
/// occupied LUT at nominal voltage (W/LUT), for either circuit scheme.
double striker_power_per_lut_w(const StrikerParams& params, const pdn::DelayModel& delay);
double ro_power_per_lut_w(const RoParams& params, const pdn::DelayModel& delay);

} // namespace deepstrike::striker
