// Defensive counterpart of the attack: an on-chip glitch monitor.
//
// The same TDC sensing that powers DeepStrike works for the defender
// (cf. Zick et al. [15] and the bitstream-checking line of work [23][26]):
// the victim instantiates its own delay sensor and watches for voltage
// excursions *deeper* than anything its own workload produces. Layer
// activity droops the supply by a few stages; a striker pulse droops it by
// ~10. On an alarm the accelerator throttles its DSP clock to single data
// rate for a hold-off window — doubling the timing slack, which makes the
// attack's glitches harmless at the cost of temporary throughput.
//
// This module provides the detection FSM and the translation from alarms
// to a per-cycle throttle mask consumed by accel::AccelEngine::run_block().
#pragma once

#include <cstdint>
#include <vector>

namespace deepstrike::defense {

struct MonitorConfig {
    /// Samples used to learn the idle baseline at power-on (the victim
    /// boots before any inference runs, so the line is quiet).
    std::size_t calibration_samples = 512;

    /// Alarm when a readout falls more than this many stages below the
    /// learned baseline. Must exceed the victim's own worst-case activity
    /// droop (~4 stages for the conv array) but sit below glitch depth
    /// (~8-12 stages for attack-scale strikes).
    double alarm_depth_stages = 6.5;

    /// Fabric cycles from the alarming sample to the throttle taking
    /// effect (alarm latching + clock-mux switch).
    std::size_t response_latency_cycles = 2;

    /// Cycles the throttle stays engaged after the last alarm.
    std::size_t holdoff_cycles = 256;

    /// TDC samples per fabric cycle (matches the platform's sampling).
    std::size_t samples_per_cycle = 2;
};

/// Streaming glitch detector. Feed every TDC readout in order.
class GlitchMonitor {
public:
    explicit GlitchMonitor(const MonitorConfig& config);

    /// Processes one readout; returns true when this sample raises an
    /// alarm (calibration samples never alarm).
    bool on_sample(std::uint8_t readout);

    bool calibrated() const { return samples_seen_ >= config_.calibration_samples; }
    double baseline() const { return baseline_; }
    std::size_t alarm_count() const { return alarm_count_; }
    std::size_t samples_seen() const { return samples_seen_; }
    /// Sample index of the first alarm (valid when alarm_count() > 0).
    std::size_t first_alarm_sample() const { return first_alarm_sample_; }

    void reset();

    const MonitorConfig& config() const { return config_; }

private:
    MonitorConfig config_;
    double baseline_ = 0.0;
    double calibration_sum_ = 0.0;
    std::size_t samples_seen_ = 0;
    std::size_t alarm_count_ = 0;
    std::size_t first_alarm_sample_ = 0;
};

struct DefenseOutcome {
    std::size_t alarms = 0;
    std::size_t first_alarm_sample = 0;   // valid when alarms > 0
    std::vector<bool> throttle;           // per fabric cycle
    double throttled_fraction = 0.0;      // of the run's cycles

    /// Effective slowdown of the inference: throttled cycles run the DSP
    /// datapath at half rate.
    double slowdown() const { return 1.0 + throttled_fraction; }
};

/// Offline convenience: runs the monitor over a captured readout trace and
/// builds the per-cycle throttle mask for `total_cycles` fabric cycles.
DefenseOutcome run_monitor(const std::vector<std::uint8_t>& readouts,
                           std::size_t total_cycles, const MonitorConfig& config = {});

} // namespace deepstrike::defense
