#include "sim/platform.hpp"

#include <algorithm>
#include <cmath>
#include <functional>

#include "util/error.hpp"

namespace deepstrike::sim {

Platform::Platform(const PlatformConfig& config, quant::QNetwork network)
    : config_(config),
      delay_{},
      sensor_(config.tdc, delay_),
      striker_(config.striker, delay_),
      engine_(std::move(network), config.accel, config.variation_seed) {
    // Consistency: the master tick must match the PDN step and divide the
    // fabric cycle as configured.
    const double fabric_period = 1.0 / config.accel.fabric_clock_hz;
    const double expected_dt = fabric_period / static_cast<double>(config.ticks_per_cycle);
    expects(std::abs(config.pdn.dt_s - expected_dt) < 1e-15,
            "Platform: pdn.dt_s must equal fabric period / ticks_per_cycle");
    // The action table below matches each tick list in one ascending pass,
    // so a list that is not strictly ascending inside the cycle would lose
    // its late events.
    const auto ascending_in_cycle = [&](const std::array<std::size_t, 2>& ticks) {
        return std::adjacent_find(ticks.begin(), ticks.end(), std::greater_equal<>()) ==
                   ticks.end() &&
               ticks.back() < config.ticks_per_cycle;
    };
    expects(ascending_in_cycle(config.tdc_sample_ticks),
            "Platform: TDC sample ticks strictly ascending within cycle");
    expects(ascending_in_cycle(config.dsp_capture_ticks),
            "Platform: DSP capture ticks strictly ascending within cycle");
    activity_ = accel::activity_current_trace(engine_.schedule(), config.accel);

    // Replay the sequential tick matching of the event lists once, into a
    // per-tick action table the hot loop can index directly.
    tick_actions_.assign(config.ticks_per_cycle, TickAction{});
    std::size_t sample_idx = 0;
    std::size_t capture_idx = 0;
    for (std::size_t tick = 0; tick < config.ticks_per_cycle; ++tick) {
        if (sample_idx < config.tdc_sample_ticks.size() &&
            tick == config.tdc_sample_ticks[sample_idx]) {
            tick_actions_[tick].tdc_slot = static_cast<std::int8_t>(sample_idx);
            ++sample_idx;
        }
        if (capture_idx < config.dsp_capture_ticks.size() &&
            tick == config.dsp_capture_ticks[capture_idx]) {
            tick_actions_[tick].capture_slot = static_cast<std::int8_t>(capture_idx);
            ++capture_idx;
        }
    }
}

double Platform::idle_current_a() const {
    return config_.accel.i_platform_idle_a + config_.accel.i_accel_static_a;
}

CosimResult Platform::simulate_inference(StrikeSource& source,
                                         CosimRecord record) const {
    StrikeSource* const lane = &source;
    return std::move(simulate_inference_lanes({&lane, 1}, record).front());
}

} // namespace deepstrike::sim
