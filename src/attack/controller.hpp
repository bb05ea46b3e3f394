// Attack controller: detector + signal RAM integration (paper Fig. 4).
//
// Runtime flow (one inference):
//   1. armed, waiting — TDC samples stream into the DNN start detector
//   2. detector fires -> signal RAM replay starts on the next fabric cycle
//   3. each fabric cycle consumes one RAM bit; bit==1 drives the power
//      striker Start for that cycle
//   4. RAM exhausted -> attack done (controller can be re-armed)
#pragma once

#include <cstdint>
#include <optional>

#include "attack/detector.hpp"
#include "attack/signal_ram.hpp"

namespace deepstrike::attack {

class AttackController {
public:
    AttackController(const DetectorConfig& detector_config, const AttackScheme& scheme);
    AttackController(const DetectorConfig& detector_config, const BitVec& scheme_bits);

    /// Feeds a TDC sample (called at the TDC sampling rate).
    void on_tdc_sample(const tdc::TdcSample& sample);

    /// Called once per fabric cycle; returns the striker Start bit.
    bool strike_bit();

    bool triggered() const { return detector_.triggered(); }
    /// Whether a later TDC sample can still change strike_bit(): until the
    /// detector fires, or always for an auto-rearming detector. Once
    /// false, it stays false until rearm().
    bool listens() const { return !triggered() || detector_.config().auto_rearm; }
    bool done() const { return ram_.exhausted(); }
    std::size_t trigger_sample() const { return detector_.trigger_sample(); }

    /// Rearms detector and RAM for the next inference.
    void rearm();

    DnnStartDetector& detector() { return detector_; }
    const SignalRam& signal_ram() const { return ram_; }

private:
    DnnStartDetector detector_;
    SignalRam ram_;
};

/// Baseline from the paper's Fig. 5b: "non-TDC guiding attacks ... fault
/// injections happen randomly along with the model execution". The replay
/// starts at a fixed cycle offset chosen blindly (no side channel).
class BlindController {
public:
    BlindController(const AttackScheme& scheme, std::size_t start_cycle);

    /// Called once per fabric cycle (absolute cycle index).
    bool strike_bit(std::size_t cycle);

    std::size_t start_cycle() const { return start_cycle_; }

private:
    SignalRam ram_;
    std::size_t start_cycle_;
    bool started_ = false;
};

} // namespace deepstrike::attack
