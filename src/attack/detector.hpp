// DNN start detector (paper Sec. III-D-1, Fig. 3).
//
// Raw TDC readouts wiggle even when the victim is idle; triggering the
// attack on them directly would misfire. The detector "purifies" the
// signal: the 128-bit TDC output is partitioned into five zones, one bit
// is tapped from each zone, and a small FSM watches the Hamming weight of
// those five bits. At idle (~90 leading ones) four taps read 1; when a
// layer starts executing, the droop pulls the thermometer boundary below
// the fourth tap and the weight drops to 3 — the paper's "start point".
// Requiring the condition to hold for several consecutive samples filters
// the noise-induced single-sample dips.
#pragma once

#include <array>
#include <cstdint>

#include "tdc/tdc.hpp"

namespace deepstrike::attack {

struct DetectorConfig {
    /// Tap positions within the TDC carry chain, one per zone. Defaults are
    /// centered in five 26-bit zones of a 128-bit chain, with the fourth
    /// tap placed just below the calibrated idle boundary (~90) so it is
    /// the sensitive one.
    std::array<std::size_t, 5> zone_bits{12, 38, 64, 87, 114};

    /// Trigger when the tap Hamming weight is <= this...
    std::uint8_t trigger_hw = 3;
    /// ...for this many consecutive TDC samples.
    std::size_t hold_samples = 6;

    /// When true, the detector re-arms itself after the line returns to
    /// idle (weight above trigger_hw) for rearm_samples; used by the
    /// multi-tenant / repeated-inference scenarios.
    bool auto_rearm = false;
    std::size_t rearm_samples = 64;

    bool operator==(const DetectorConfig&) const = default;
};

class DnnStartDetector {
public:
    explicit DnnStartDetector(const DetectorConfig& config);

    /// Feeds one TDC sample. Returns true exactly once per trigger event
    /// (on the sample that completes the hold window).
    bool on_sample(const tdc::TdcSample& sample);

    /// Hamming weight of the zone taps for an arbitrary sample (also used
    /// by the Fig. 3 bench to plot the detector input).
    std::uint8_t tap_hamming_weight(const tdc::TdcSample& sample) const;

    bool triggered() const { return triggered_; }
    std::size_t samples_seen() const { return samples_seen_; }
    /// Sample index at which the last trigger fired (valid when triggered).
    std::size_t trigger_sample() const { return trigger_sample_; }

    void reset();

    const DetectorConfig& config() const { return config_; }

private:
    DetectorConfig config_;
    std::size_t below_count_ = 0;
    std::size_t idle_count_ = 0;
    bool triggered_ = false;
    std::size_t samples_seen_ = 0;
    std::size_t trigger_sample_ = 0;
};

} // namespace deepstrike::attack
