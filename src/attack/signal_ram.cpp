#include "attack/signal_ram.hpp"

#include "util/error.hpp"

namespace deepstrike::attack {

std::size_t AttackScheme::total_cycles() const {
    if (num_strikes == 0) return attack_delay_cycles;
    // Checked: a scheme read from a file can name runs whose length wraps.
    std::size_t strikes = 0;
    std::size_t gaps = 0;
    std::size_t total = 0;
    if (__builtin_mul_overflow(num_strikes, strike_cycles, &strikes) ||
        __builtin_mul_overflow(num_strikes - 1, gap_cycles, &gaps) ||
        __builtin_add_overflow(attack_delay_cycles, strikes, &total) ||
        __builtin_add_overflow(total, gaps, &total)) {
        throw ConfigError("attack scheme length overflows size_t");
    }
    return total;
}

BitVec AttackScheme::to_bits() const {
    BitVec bits(total_cycles());
    std::size_t pos = attack_delay_cycles;
    for (std::size_t s = 0; s < num_strikes; ++s) {
        for (std::size_t i = 0; i < strike_cycles; ++i) bits.set(pos++, true);
        if (s + 1 < num_strikes) pos += gap_cycles;
    }
    return bits;
}

AttackScheme AttackScheme::from_bits(const BitVec& bits) {
    AttackScheme scheme;
    scheme.attack_delay_cycles = bits.find_first_one();
    scheme.strike_cycles = 0;
    scheme.gap_cycles = 0;
    scheme.num_strikes = 0;
    if (scheme.attack_delay_cycles >= bits.size()) {
        scheme.attack_delay_cycles = bits.size();
        scheme.strike_cycles = 1;
        return scheme;
    }

    // Walk runs after the delay.
    std::size_t i = scheme.attack_delay_cycles;
    bool first_strike = true;
    bool first_gap = true;
    while (i < bits.size()) {
        if (bits.get(i)) {
            std::size_t run = 0;
            while (i < bits.size() && bits.get(i)) {
                ++run;
                ++i;
            }
            if (first_strike) {
                scheme.strike_cycles = run;
                first_strike = false;
            }
            ++scheme.num_strikes;
        } else {
            std::size_t run = 0;
            while (i < bits.size() && !bits.get(i)) {
                ++run;
                ++i;
            }
            // Trailing zeros are not a gap.
            if (i < bits.size() && first_gap) {
                scheme.gap_cycles = run;
                first_gap = false;
            }
        }
    }
    if (scheme.strike_cycles == 0) scheme.strike_cycles = 1;
    return scheme;
}

SignalRam::SignalRam(std::size_t capacity_bits) : capacity_bits_(capacity_bits) {
    expects(capacity_bits > 0, "SignalRam: positive capacity");
}

void SignalRam::require_fits(std::size_t bits) const {
    if (bits > capacity_bits_) {
        throw ConfigError("attack scheme exceeds signal RAM capacity");
    }
}

void SignalRam::load(const BitVec& bits) {
    require_fits(bits.size());
    bits_ = bits;
    reset();
}

void SignalRam::load(const AttackScheme& scheme) {
    // Checked before compiling: the bit vector of an oversized scheme
    // could be gigabytes.
    require_fits(scheme.total_cycles());
    bits_ = scheme.to_bits();
    reset();
}

void SignalRam::start() {
    cursor_ = 0;
    running_ = true;
}

bool SignalRam::next_cycle_bit() {
    if (!running_ || cursor_ >= bits_.size()) return false;
    return bits_.get(cursor_++);
}

void SignalRam::reset() {
    cursor_ = 0;
    running_ = false;
}

} // namespace deepstrike::attack
