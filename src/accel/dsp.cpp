#include "accel/dsp.hpp"

#include <algorithm>

#include "util/error.hpp"

namespace deepstrike::accel {

const char* fault_kind_name(FaultKind kind) {
    switch (kind) {
        case FaultKind::None: return "none";
        case FaultKind::Duplication: return "duplication";
        case FaultKind::Random: return "random";
    }
    return "?";
}

DspSlice::DspSlice(std::uint32_t id, const DspTimingParams& params, Rng& construction_rng)
    : id_(id), params_(params) {
    expects(params.clock_period_s > 0, "DspSlice: positive clock period");
    expects(params.nominal_path_fraction > 0 && params.nominal_path_fraction < 1,
            "DspSlice: path fraction in (0,1)");
    // evaluate_with_factor's jitter bounds rely on a non-negative sigma.
    expects(params.op_jitter_sigma >= 0, "DspSlice: non-negative op jitter sigma");
    // Process variation is fixed for the lifetime of the physical slice;
    // clamp to +-3 sigma so a pathological draw cannot create a slice that
    // violates timing at nominal voltage.
    const double var = std::clamp(construction_rng.normal(0.0, params.variation_sigma),
                                  -3.0 * params.variation_sigma,
                                  3.0 * params.variation_sigma);
    path_delay_s_ = params.clock_period_s * params.nominal_path_fraction * (1.0 + var);
}

double DspSlice::safe_voltage(const pdn::DelayModel& delay) const {
    // Worst case: 4-sigma fast jitter. Any voltage above this cannot
    // produce d > T even at +4 sigma.
    const double worst_delay = path_delay_s_ * (1.0 + 4.0 * params_.op_jitter_sigma);
    const double factor_needed = params_.clock_period_s / worst_delay;
    if (factor_needed <= 1.0) return delay.vdd; // already faulting at nominal
    return delay.voltage_for_factor(factor_needed);
}

fx::Acc DspSlice::random_fault_value(Rng& rng) {
    // The product register holds raw Q-products: |p| <= 128*256 for the
    // pre-adder configuration. Mid-rail capture yields uniformly garbage
    // bits across that range.
    return rng.uniform_int(-(128 * 256), 128 * 256 - 1);
}

} // namespace deepstrike::accel
