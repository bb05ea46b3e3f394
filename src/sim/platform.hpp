// Cloud-FPGA platform co-simulator.
//
// Binds the substrates into one clocked system, mirroring Fig. 1(a)/Fig. 4
// of the paper: the victim accelerator and the attacker's TDC sensor +
// power striker share a single PDN. The master simulation tick equals the
// PDN integration step (1 ns); a fabric cycle is 10 ticks (100 MHz); the
// TDC samples twice per fabric cycle (200 MHz).
//
// A key structural property this module exploits: the accelerator's power
// draw is data-independent (fixed schedule), the TDC observes only
// voltage, and faults do not feed back into power. Hence one co-simulated
// voltage trace per *attack configuration* serves every image in a test
// sweep; only the functional fault overlay is per-image. The platform owns
// that electrical side: one tick loop, simulate_inference_lanes
// (sim/cosim_lanes.cpp), co-simulates one lane group of 1 to kCosimLanes
// strike sources per call. Faulted inference on a trace is
// engine().run_block, which sim::evaluate_accuracy drives from a golden
// store (sim/golden_cache.hpp).
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "accel/engine.hpp"
#include "attack/controller.hpp"
#include "pdn/pdn.hpp"
#include "striker/striker.hpp"
#include "tdc/tdc.hpp"

namespace deepstrike::sim {

/// Supplies the striker Start bit each fabric cycle; optionally observes
/// TDC samples (the guided controller does, the blind one does not).
class StrikeSource {
public:
    virtual ~StrikeSource() = default;
    /// Called once at the start of each fabric cycle.
    virtual bool strike_bit(std::size_t cycle) = 0;
    /// Called for every TDC sample drawn for this source's lane.
    virtual void on_tdc_sample(const tdc::TdcSample& sample) { (void)sample; }
    /// Whether a later TDC sample can still change a strike bit. Contract:
    /// once a source returns false, it never reads a later sample, so its
    /// strike bits no longer depend on the sensor. A CosimRecord::Captures
    /// or CosimRecord::Plan co-sim then stops drawing samples for its lane.
    virtual bool listens() const { return true; }
};

/// No attack: baseline / profiling runs.
class NoAttackSource final : public StrikeSource {
public:
    bool strike_bit(std::size_t) override { return false; }
    bool listens() const override { return false; }
};

/// TDC-guided attack through the on-chip AttackController.
class GuidedSource final : public StrikeSource {
public:
    explicit GuidedSource(attack::AttackController& controller)
        : controller_(controller) {}
    bool strike_bit(std::size_t) override { return controller_.strike_bit(); }
    void on_tdc_sample(const tdc::TdcSample& sample) override {
        controller_.on_tdc_sample(sample);
    }
    bool listens() const override { return controller_.listens(); }

private:
    attack::AttackController& controller_;
};

/// Blind attack baseline (random start, no side channel).
class BlindSource final : public StrikeSource {
public:
    explicit BlindSource(attack::BlindController& controller)
        : controller_(controller) {}
    bool strike_bit(std::size_t cycle) override { return controller_.strike_bit(cycle); }
    bool listens() const override { return false; }

private:
    attack::BlindController& controller_;
};

struct PlatformConfig {
    pdn::PdnParams pdn = pdn::PdnParams::pynq_z1();
    tdc::TdcConfig tdc = tdc::TdcConfig::paper_config();
    striker::StrikerParams striker = striker::StrikerParams::end_to_end();
    accel::AccelConfig accel = accel::AccelConfig::pynq_z1();

    std::size_t ticks_per_cycle = 10;          // 100 MHz fabric at 1 ns ticks
    std::array<std::size_t, 2> tdc_sample_ticks{2, 7}; // 200 MHz sampling
    /// Ticks (within a fabric cycle) at which the two DDR DSP capture
    /// edges land; each in-flight op is evaluated at the voltage of its
    /// own capture instant, so ops launched early in a strike cycle see a
    /// shallower droop than ops captured at the pulse bottom.
    std::array<std::size_t, 2> dsp_capture_ticks{4, 9};
    std::uint64_t variation_seed = 2021;       // per-board DSP variation
    std::uint64_t tdc_noise_seed = 99;         // TDC jitter stream

    double samples_per_cycle() const {
        return static_cast<double>(tdc_sample_ticks.size());
    }
};

/// Most lanes one co-sim call steps in lockstep: two 4-lane AVX2 slots.
/// Callers with more co-sims split them into groups of at most this many
/// (SweepRunner's trace fill does).
inline constexpr std::size_t kCosimLanes = 8;

/// What a co-sim records. Every mode fills strike_cycles and strike_bits,
/// identically, and the capture voltages the modes see are identical too:
/// capture voltages follow from PDN state alone, and a source's strike
/// bits depend on TDC samples only while it listens().
enum class CosimRecord {
    /// The overlay plan of each lane's capture voltages and the strike
    /// schedule; no capture trace is allocated. Each lane feeds its own
    /// accel::OverlayPlanner at the end of every fabric cycle, and draws
    /// TDC samples as in Captures. For callers that evaluate the attack
    /// and keep nothing else (the trace fills, the optimizer's bits
    /// attack).
    Plan,
    /// Capture voltages and the strike schedule only. A lane draws TDC
    /// samples only while its source listens, and no lane records
    /// readouts. For callers that keep the whole capture trace.
    Captures,
    /// Captures plus tdc_readouts. Every lane draws every TDC sample
    /// (profiling, the monitor, waveform export).
    Sensor,
};

struct CosimResult {
    /// Die voltage at each DSP capture edge: two samples per fabric cycle
    /// (index = cycle * 2 + ddr_half). This is the trace the fault model
    /// consumes. Empty in a Plan co-sim.
    accel::VoltageTrace capture_v;
    /// The overlay plan of capture_v (Plan only; empty otherwise): equal,
    /// windows and delay factors bit for bit, to
    /// engine().plan_overlay(&capture_v) of a Captures co-sim of the same
    /// source, and counted as one plan.
    accel::OverlayPlan plan;
    /// All TDC readouts in sampling order (2 per fabric cycle; Sensor
    /// only).
    std::vector<std::uint8_t> tdc_readouts;
    /// Number of fabric cycles with the striker active.
    std::size_t strike_cycles = 0;
    /// Striker Start bit per fabric cycle (for waveform export / analysis).
    BitVec strike_bits;
};

class Platform {
public:
    /// Generic victim: any quantized network.
    Platform(const PlatformConfig& config, quant::QNetwork network);

    const PlatformConfig& config() const { return config_; }
    const accel::AccelEngine& engine() const { return engine_; }
    const tdc::TdcSensor& sensor() const { return sensor_; }
    const striker::StrikerBank& striker_bank() const { return striker_; }

    /// Co-simulates the electrical side of one inference with the given
    /// strike source: a one-lane simulate_inference_lanes group.
    /// Deterministic in (config seeds, source behaviour).
    CosimResult simulate_inference(StrikeSource& source,
                                   CosimRecord record = CosimRecord::Sensor) const;

    /// The tick loop: co-simulates one inference per source, 1 to
    /// kCosimLanes non-null sources stepped in lockstep as one SIMD lane
    /// group (ContractError otherwise). result[i] depends on sources[i]
    /// alone: it is byte-identical at every group size, lane position and
    /// SIMD twin. Defined in sim/cosim_lanes.cpp.
    std::vector<CosimResult> simulate_inference_lanes(
        std::span<StrikeSource* const> sources,
        CosimRecord record = CosimRecord::Sensor) const;

    /// Idle current (platform + accelerator static) used for PDN settling.
    double idle_current_a() const;

private:
    /// What happens at one tick offset within a fabric cycle; precomputed
    /// at construction so the tick loop replays a flat table instead of
    /// re-matching the configured tick lists every tick.
    struct TickAction {
        std::int8_t tdc_slot = -1;     // index into tdc_sample_ticks, -1 = none
        std::int8_t capture_slot = -1; // index into dsp_capture_ticks, -1 = none
    };

    PlatformConfig config_;
    pdn::DelayModel delay_;
    tdc::TdcSensor sensor_;
    striker::StrikerBank striker_;
    accel::AccelEngine engine_;
    std::vector<double> activity_;         // per-cycle accelerator current
    std::vector<TickAction> tick_actions_; // per-tick event schedule
};

} // namespace deepstrike::sim
