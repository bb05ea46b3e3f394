#include "accel/dsp.hpp"

#include <algorithm>
#include <cmath>

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

JitterBrackets make_jitter_brackets() {
    // The computed values at a bucket's two ends, each pushed outward by
    // 1e-12 relative and 1e-9 absolute.
    const auto widen = [](double a, double b) {
        const double lo = std::min(a, b);
        const double hi = std::max(a, b);
        return JitterBrackets::Range{lo - std::abs(lo) * 1e-12 - 1e-9,
                                     hi + std::abs(hi) * 1e-12 + 1e-9};
    };
    // The same expressions as Rng::normal().
    const auto magnitude = [](double u1) { return std::sqrt(-2.0 * std::log(u1)); };
    JitterBrackets brackets;
    constexpr double mag_n = JitterBrackets::kMagBuckets;
    for (std::size_t i = 0; i < JitterBrackets::kMagBuckets; ++i) {
        const double u_lo = i == 0 ? 0x1.0p-53 : static_cast<double>(i) / mag_n;
        brackets.mag[i] =
            widen(magnitude(u_lo), magnitude(static_cast<double>(i + 1) / mag_n));
    }
    constexpr double angle_n = JitterBrackets::kAngleBuckets;
    for (std::size_t j = 0; j < JitterBrackets::kAngleBuckets; ++j) {
        const double a0 = 2.0 * M_PI * (static_cast<double>(j) / angle_n);
        const double a1 = 2.0 * M_PI * (static_cast<double>(j + 1) / angle_n);
        brackets.trig[j][0] = widen(std::cos(a0), std::cos(a1));
        brackets.trig[j][1] = widen(std::sin(a0), std::sin(a1));
    }
    return brackets;
}

DspSlice::DspSlice(std::uint32_t id, const DspTimingParams& params, Rng& construction_rng)
    : id_(id), params_(params) {
    expects(params.clock_period_s > 0, "DspSlice: positive clock period");
    expects(params.nominal_path_fraction > 0 && params.nominal_path_fraction < 1,
            "DspSlice: path fraction in (0,1)");
    // fault_kind's jitter bracket relies on a non-negative sigma
    // and duplication band.
    expects(params.op_jitter_sigma >= 0, "DspSlice: non-negative op jitter sigma");
    expects(params.duplication_band >= 0, "DspSlice: non-negative duplication band");
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
