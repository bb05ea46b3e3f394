// Signal RAM (paper Sec. III-D-2).
//
// The attack scheme is stored in on-chip BRAM as a bit vector read out at
// f_sRAM (one bit per fabric clock cycle): "1" enables the power striker
// for that cycle, "0" keeps it off. attack delay = a run of leading 0s,
// attack period = a run of 1s, number of attacks = how many 1-runs.
// Storing the plan in RAM is what makes the attack runtime-reconfigurable:
// the host can upload a new scheme file between inferences and retarget a
// different layer without touching the bitstream.
#pragma once

#include <cstddef>

#include "util/bitvec.hpp"

namespace deepstrike::attack {

/// Structured description of an attacking scheme; compiles to the bit
/// vector stored in the signal RAM.
struct AttackScheme {
    std::size_t attack_delay_cycles = 0; // leading zeros before strike 1
    std::size_t strike_cycles = 1;       // length of each 1-run (attack period)
    std::size_t gap_cycles = 0;          // zeros between consecutive strikes
    std::size_t num_strikes = 0;

    /// Total bits the compiled vector occupies. Throws ConfigError when
    /// that length overflows size_t.
    std::size_t total_cycles() const;

    /// Compiles to the signal RAM contents.
    BitVec to_bits() const;

    /// Parses RAM contents back into runs. Zero-length or all-zero vectors
    /// yield num_strikes == 0. Irregular run patterns (unequal strike or
    /// gap lengths) are normalized to the first observed lengths; the bit
    /// count of 1-runs is preserved in num_strikes.
    static AttackScheme from_bits(const BitVec& bits);

    bool operator==(const AttackScheme&) const = default;
};

/// Behavioral BRAM replaying the scheme one bit per fabric cycle.
class SignalRam {
public:
    /// Capacity in bits. One BRAM36 holds 36Kb; the LeNet-5 execution is
    /// ~43k fabric cycles, so the default provisions two cascaded BRAM36s
    /// (out of the XC7Z020's 140) to cover a scheme spanning the whole run.
    explicit SignalRam(std::size_t capacity_bits = 2 * 36 * 1024);

    /// Loads RAM contents; throws ConfigError when the scheme exceeds
    /// capacity (for an AttackScheme, before compiling its bits).
    void load(const BitVec& bits);
    void load(const AttackScheme& scheme);

    /// Starts replay at bit 0 (called by the controller on trigger).
    void start();

    /// Reads the next bit; past the end returns false forever.
    bool next_cycle_bit();

    bool running() const { return running_ && cursor_ < bits_.size(); }
    bool exhausted() const { return running_ && cursor_ >= bits_.size(); }
    std::size_t cursor() const { return cursor_; }
    std::size_t capacity_bits() const { return capacity_bits_; }
    const BitVec& contents() const { return bits_; }

    void reset();

private:
    void require_fits(std::size_t bits) const;

    std::size_t capacity_bits_;
    BitVec bits_;
    std::size_t cursor_ = 0;
    bool running_ = false;
};

} // namespace deepstrike::attack
