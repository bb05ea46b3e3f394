#include "sim/platform.hpp"

#include <algorithm>

#include "util/error.hpp"
#include "util/metrics.hpp"
#include "util/trace.hpp"

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
    for (std::size_t t : config.tdc_sample_ticks) {
        expects(t < config.ticks_per_cycle, "Platform: TDC sample tick within cycle");
    }
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
                                         bool record_tick_voltage) const {
    trace::Span span("cosim.inference", "cosim");
    const std::size_t total_cycles = engine_.schedule().total_cycles;
    const std::size_t tpc = config_.ticks_per_cycle;

    pdn::PdnModel pdn_model(config_.pdn);
    pdn_model.reset(idle_current_a());
    Rng tdc_rng(config_.tdc_noise_seed);

    CosimResult result;
    result.strike_bits = BitVec(total_cycles);
    result.capture_v.assign(total_cycles * config_.dsp_capture_ticks.size(),
                            config_.pdn.vdd);
    result.min_v_per_cycle.assign(total_cycles, config_.pdn.vdd);
    result.tdc_readouts.reserve(total_cycles * config_.tdc_sample_ticks.size());
    if (record_tick_voltage) result.tick_voltage.reserve(total_cycles * tpc);

    double v = pdn_model.voltage();
    const std::size_t n_caps = config_.dsp_capture_ticks.size();
    const TickAction* actions = tick_actions_.data();
    tdc::TdcSample scratch;        // reused across all samples (no per-sample alloc)
    tdc::TdcSampler sampler(sensor_); // skips the delay pow() on repeated voltages
    for (std::size_t cycle = 0; cycle < total_cycles; ++cycle) {
        const bool strike = source.strike_bit(cycle);
        if (strike) {
            ++result.strike_cycles;
            result.strike_bits.set(cycle, true);
        }

        const double i_victim = config_.accel.i_platform_idle_a + activity_[cycle];
        double min_v = v;
        double* cap_out = result.capture_v.data() + cycle * n_caps;
        for (std::size_t tick = 0; tick < tpc; ++tick) {
            // An idle striker draws exactly 0 A, so the call is hoisted out
            // of the (overwhelmingly common) non-strike cycles.
            const double i_total =
                strike ? i_victim + striker_.current_a(v, true) : i_victim;
            v = pdn_model.step(i_total);
            min_v = std::min(min_v, v);
            if (record_tick_voltage) result.tick_voltage.push_back(v);

            const TickAction act = actions[tick];
            if (act.tdc_slot >= 0) {
                sampler.sample_into(v, tdc_rng, scratch);
                result.tdc_readouts.push_back(scratch.readout);
                source.on_tdc_sample(scratch);
            }
            if (act.capture_slot >= 0) {
                cap_out[act.capture_slot] = v;
            }
        }
        result.min_v_per_cycle[cycle] = min_v;
    }

    // The tick loop above keeps its accounting in plain PdnModel/TdcSampler
    // member counters; flush them to the registry once per co-simulation so
    // the hot path never touches thread-shard lookup (docs/observability.md).
    if (metrics::enabled()) {
        metrics::counter("cosim.inferences", "inferences",
                         "co-simulated victim inferences")
            .add();
        metrics::counter("cosim.cycles", "cycles",
                         "co-simulated fabric cycles")
            .add(total_cycles);
        metrics::counter("pdn.steps", "ticks", "PdnModel::step calls")
            .add(pdn_model.steps());
        metrics::counter("pdn.steps_skipped", "ticks",
                         "steps resolved by the floating-point fixed-point skip")
            .add(pdn_model.steps_skipped());
        metrics::counter("tdc.samples", "samples", "TDC sensor draws")
            .add(sampler.samples());
        metrics::counter("tdc.memo_hits", "samples",
                         "TDC draws replaying the memoized expected-stage count")
            .add(sampler.memo_hits());
        metrics::counter("striker.active_cycles", "cycles",
                         "fabric cycles with the power striker firing")
            .add(result.strike_cycles);
        metrics::histogram("striker.strike_cycles_per_inference", "cycles",
                           "striker active cycles per co-simulated inference")
            .observe(result.strike_cycles);
    }
    return result;
}

accel::RunResult Platform::infer(const QTensor& image, const accel::VoltageTrace* voltage,
                                 Rng& fault_rng, const std::vector<bool>* throttle,
                                 const accel::OverlayPlan* plan) const {
    return engine_.run(image, voltage, fault_rng, throttle, plan);
}

accel::RunResult Platform::infer_elided(
    const QTensor& image, const std::vector<QTensor>& golden_layers,
    const std::vector<std::vector<fx::Acc>>& golden_accs,
    const accel::VoltageTrace* voltage, Rng& fault_rng,
    const accel::OverlayPlan& plan, const std::vector<bool>* throttle) const {
    return engine_.run_elided(image, golden_layers, golden_accs, voltage, fault_rng,
                              plan, throttle);
}

} // namespace deepstrike::sim
