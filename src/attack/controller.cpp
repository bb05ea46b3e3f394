#include "attack/controller.hpp"

namespace deepstrike::attack {

AttackController::AttackController(const DetectorConfig& detector_config,
                                   const AttackScheme& scheme)
    : detector_(detector_config) {
    ram_.load(scheme);
}

AttackController::AttackController(const DetectorConfig& detector_config,
                                   const BitVec& scheme_bits)
    : detector_(detector_config) {
    ram_.load(scheme_bits);
}

void AttackController::on_tdc_sample(const tdc::TdcSample& sample) {
    if (detector_.on_sample(sample)) {
        ram_.start();
    }
}

bool AttackController::strike_bit() {
    if (!ram_.running()) return false;
    return ram_.next_cycle_bit();
}

void AttackController::rearm() {
    detector_.reset();
    ram_.reset();
}

BlindController::BlindController(const AttackScheme& scheme, std::size_t start_cycle)
    : start_cycle_(start_cycle) {
    ram_.load(scheme);
}

bool BlindController::strike_bit(std::size_t cycle) {
    if (!started_) {
        if (cycle < start_cycle_) return false;
        ram_.start();
        started_ = true;
    }
    return ram_.next_cycle_bit();
}

} // namespace deepstrike::attack
