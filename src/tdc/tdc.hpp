// TDC-based delay sensor (paper Sec. III-B, Fig. 1a).
//
// Hardware structure being modeled:
//   - clock management tile emits two same-frequency clocks with phase
//     offset theta: one launches a rising edge into DL_LUT (a chain of
//     L_LUT look-up tables), whose output enters DL_CARRY (a carry chain
//     of L_CARRY MUXCY stages); the other samples the carry-chain taps
//     into L_CARRY registers.
//   - the sampled vector is a thermometer code: stages the edge reached
//     before the sampling instant read 1, the rest read 0.
//   - an encoder compresses the 128-bit vector to an 8-bit count of ones.
//
// Because every stage's propagation delay scales with the die voltage
// (pdn::DelayModel), the count of ones is a live voltage probe: droop =>
// slower stages => fewer ones. Calibration picks theta so the nominal
// readout sits at a chosen operating point (~90 ones, per the paper).
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <span>
#include <vector>

#include "pdn/delay.hpp"
#include "util/bitvec.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace deepstrike::tdc {

struct TdcConfig {
    double f_dr_hz = 200e6;       // driving/sampling clock frequency
    std::size_t l_lut = 4;        // delay-line length (LUT elements)
    std::size_t l_carry = 128;    // carry-chain length (output width)
    double tau_lut_s = 250e-12;   // nominal per-LUT delay
    double tau_carry_s = 17e-12;  // nominal per-carry-stage delay
    std::size_t target_ones = 90; // calibration point at nominal voltage
    double noise_sigma_stages = 0.5; // sampling jitter + metastability, in stages
    double bubble_probability = 0.06; // chance of a metastable bubble pair

    /// The exact configuration used in the paper's preliminary study.
    static TdcConfig paper_config() { return TdcConfig{}; }
};

/// One captured sample.
struct TdcSample {
    BitVec raw;            // L_CARRY-bit thermometer code (with bubbles)
    std::uint8_t readout;  // encoder output: number of ones
};

/// Thermometer-code encoder: 128-bit vector -> 8-bit ones count.
/// Inline: runs once per TDC sample, twice per co-simulated fabric cycle.
inline std::uint8_t encode_ones_count(const BitVec& raw) {
    expects(raw.size() <= 255, "encode_ones_count: readout must fit 8 bits");
    return static_cast<std::uint8_t>(raw.popcount());
}

class TdcSensor {
public:
    /// Calibrates theta against `delay` so that the readout at nominal
    /// voltage equals target_ones. Throws ConfigError when the requested
    /// operating point cannot fit inside one clock period.
    TdcSensor(const TdcConfig& config, const pdn::DelayModel& delay);

    /// Samples the sensor at die voltage `v`; rng supplies jitter/bubbles.
    TdcSample sample(double v, Rng& rng) const;

    /// Same draw, writing into a caller-owned sample (storage reused across
    /// calls). The co-simulator samples the TDC twice per fabric cycle, so
    /// this is the platform's hottest allocation site when naive.
    void sample_into(double v, Rng& rng, TdcSample& out) const;

    /// Second half of sample_into: adds sampling noise to the deterministic
    /// expected stage count and materializes the thermometer code + readout.
    /// Split out so callers that see the same voltage repeatedly (the PDN
    /// settles to an exact floating-point fixed point between strikes) can
    /// reuse the expected_stages() result — see TdcLaneSampler.
    void emit_from_stages(double stages, Rng& rng, TdcSample& out) const {
        const double noisy = stages + rng.normal(0.0, config_.noise_sigma_stages);
        // clamp(lround(noisy), 0, L_CARRY) without the libm round call:
        // adding 0.5 is exact below the 2^7 binade (the sum lands on the
        // argument's grid), and the only tie-rounded sums land at or above
        // L_CARRY where the clamp absorbs the difference, so truncating
        // noisy + 0.5 with a zero floor is value-identical on this domain.
        const double shifted = noisy + 0.5;
        const auto clamped = shifted <= 0.0
            ? std::ptrdiff_t{0}
            : std::min<std::ptrdiff_t>(static_cast<std::ptrdiff_t>(shifted),
                                       static_cast<std::ptrdiff_t>(config_.l_carry));

        out.raw.assign_prefix(config_.l_carry, static_cast<std::size_t>(clamped));

        // Metastability bubbles: with small probability, one stage just below
        // the boundary reads 0 and the one just above reads 1. The encoder
        // counts ones, so a *pair* leaves the readout unchanged — matching real
        // TDCs where bubbles mostly cancel in the population count.
        if (clamped >= 2 && static_cast<std::size_t>(clamped) + 1 < config_.l_carry &&
            rng.bernoulli(config_.bubble_probability)) {
            out.raw.set(static_cast<std::size_t>(clamped - 2), false);
            out.raw.set(static_cast<std::size_t>(clamped + 1), true);
        }

        // The population count is now arithmetic (prefix length, +-0 for a
        // bubble pair), but keep the real encoder on the raw vector — detector
        // taps read `raw`, and the encoder is part of what is being modeled.
        out.readout = encode_ones_count(out.raw);
    }

    /// Noise-free expected readout at voltage `v` (real-valued stages);
    /// exposed for calibration tests and the profiler's inverse mapping.
    double expected_stages(double v) const;

    /// Inverse of expected_stages (voltage that yields a given readout).
    /// Used by the attack host to convert readouts back to millivolts.
    double voltage_for_readout(double readout) const;

    double theta_s() const { return theta_s_; }
    const TdcConfig& config() const { return config_; }

private:
    TdcConfig config_;
    pdn::DelayModel delay_;
    double theta_s_ = 0.0;
};

/// The co-sim's sampling front-end (sim/cosim_lanes.cpp): a per-lane memo
/// of expected_stages() plus cross-lane stream deduplication, both
/// byte-identical to calling TdcSensor::sample_into per lane.
///
/// Memo: between strikes the RLC supply settles to a floating-point fixed
/// point, so most consecutive samples of a lane repeat its previous
/// voltage bits verbatim and skip the delay-model pow(); a hit replays the
/// identical stage count.
///
/// Dedup: every lane of a co-sim group runs the same sensor from the same
/// noise seed (PlatformConfig::tdc_noise_seed), and lanes only diverge
/// once their strike schedules perturb the shared supply. While a lane's
/// voltage bits AND its full Rng stream state (util::stream_equal — the
/// Box–Muller cache included) match the anchor's (the first lane a call
/// lists), its draw is the same pure function of the same inputs, so the
/// sampler emits once and copies the thermometer-code words, the readout,
/// the advanced Rng and the stage memo into the matching lanes —
/// byte-identical by construction, and the reason a lane group beats W
/// one-lane groups on the TDC-dominated idle stretches.
///
/// Accounting counts the draws actually taken, lane by lane: a call lists
/// only the lanes that draw (a capture-only co-sim drops a lane once its
/// strike source stops listening), and memo accounting counts each listed
/// lane's own memo predicate whether or not its draw was deduplicated. So
/// tdc.samples and tdc.memo_hits do not depend on how co-sims were
/// grouped. One instance per lane group; not thread-safe.
class TdcLaneSampler {
public:
    TdcLaneSampler(const TdcSensor& sensor, std::size_t lanes)
        : sensor_(&sensor),
          last_v_(lanes, 0.0),
          last_stages_(lanes, 0.0),
          valid_(lanes, 0) {}

    /// Samples each listed lane l at voltage v[l] with its own stream
    /// rng[l] into out[l]; `lanes` holds distinct lane indices. Per lane
    /// byte-identical (outputs and post-draw rng state) to
    /// TdcSensor::sample_into(v[l], rng[l], out[l]), whichever other lanes
    /// are listed.
    void sample_lanes(const double* v, Rng* rng, TdcSample* out,
                      std::span<const std::size_t> lanes) {
        if (lanes.empty()) return;
        samples_ += lanes.size();
        // The anchor always draws for real; snapshot its pre-draw stream
        // so later lanes can be tested against it.
        const std::size_t a = lanes[0];
        const double va = v[a];
        const Rng pre = rng[a];
        emit_lane(a, va, rng[a], out[a]);
        for (const std::size_t l : lanes.subspan(1)) {
            // Memo accounting uses the lane's own memo predicate whether
            // or not the draw below is deduplicated.
            const bool memo_hit = valid_[l] != 0 && v[l] == last_v_[l];
            if (memo_hit) ++memo_hits_;
            if (v[l] == va && stream_equal(rng[l], pre)) {
                ++dedup_hits_;
                out[l].raw = out[a].raw; // word copy, no realloc after warmup
                out[l].readout = out[a].readout;
                rng[l] = rng[a]; // the anchor's post-draw stream state
                // expected_stages(v[l]) == the anchor's memo (same voltage bits).
                last_v_[l] = v[l];
                last_stages_[l] = last_stages_[a];
                valid_[l] = 1;
            } else if (memo_hit) {
                sensor_->emit_from_stages(last_stages_[l], rng[l], out[l]);
            } else {
                last_v_[l] = v[l];
                last_stages_[l] = sensor_->expected_stages(v[l]);
                valid_[l] = 1;
                sensor_->emit_from_stages(last_stages_[l], rng[l], out[l]);
            }
        }
    }

    /// Accounting totals across all lanes, flushed once per lane group by
    /// the co-sim (tdc.samples / tdc.memo_hits in docs/observability.md).
    std::uint64_t samples() const { return samples_; }
    std::uint64_t memo_hits() const { return memo_hits_; }
    /// Draws served by copying the anchor's emission (perf telemetry only).
    std::uint64_t dedup_hits() const { return dedup_hits_; }

private:
    void emit_lane(std::size_t l, double v, Rng& rng, TdcSample& out) {
        if (valid_[l] == 0 || v != last_v_[l]) {
            last_v_[l] = v;
            last_stages_[l] = sensor_->expected_stages(v);
            valid_[l] = 1;
        } else {
            ++memo_hits_;
        }
        sensor_->emit_from_stages(last_stages_[l], rng, out);
    }

    const TdcSensor* sensor_;
    std::vector<double> last_v_;
    std::vector<double> last_stages_;
    std::vector<std::uint8_t> valid_;
    std::uint64_t samples_ = 0;
    std::uint64_t memo_hits_ = 0;
    std::uint64_t dedup_hits_ = 0;
};

} // namespace deepstrike::tdc
