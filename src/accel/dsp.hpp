// DSP48 slice timing/fault model (paper Sec. IV-A, Fig. 6).
//
// The victim accelerator maps its multiply-accumulate work onto DSP48
// slices configured as (A + D) * B (pre-adder mode — the convolution
// configuration; FC layers are the k=1 special case, footnote 1). To hit
// performance targets, designers clock the DSPs at double data rate
// relative to the fabric, leaving only a few percent of timing slack —
// which is exactly why DSP-based layers are the most fault-sensitive
// (Sec. IV discussion).
//
// Fault mechanics under a voltage glitch:
//   path delay d_i * factor(V) vs. the DSP clock period T:
//     <= T                : correct capture
//     in (T, (1+dup)*T]   : the output register re-captures the previous
//                           result — a DUPLICATION fault ("the DSP output
//                           is the correct result of the previous input")
//     >  (1+dup)*T        : mid-transition capture — RANDOM fault
//   d_i carries per-slice process variation (fixed at construction) and
//   per-operation jitter (local IR drop, crosstalk), which together turn
//   the hard threshold into the smooth S-curves of Fig. 6b.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>

#include "fx/fixed.hpp"
#include "pdn/delay.hpp"
#include "util/rng.hpp"

namespace deepstrike::accel {

enum class FaultKind : std::uint8_t { None = 0, Duplication, Random };

const char* fault_kind_name(FaultKind kind);

/// Bounds on the two factors of a Box–Muller deviate mag * c over buckets
/// of the pair's uniforms, built once from libm (make_jitter_brackets):
/// `mag[i]` holds sqrt(-2 log u1) for u1 in [i, i + 1) / kMagBuckets
/// (from 2^-53, the least nonzero uniform, in bucket 0), and
/// `trig[j][0]` / `trig[j][1]` hold cos / sin(2 pi u2) for u2 in
/// [j, j + 1) / kAngleBuckets. No angle bucket straddles a quadrant edge,
/// so cos and sin are monotone in each and their end values bound them.
/// Each range is widened by 1e-12 relative and 1e-9 absolute, which
/// dwarfs libm's sub-ulp errors and the rounding of 2 pi u2. 48 KB.
struct JitterBrackets {
    static constexpr std::size_t kMagBuckets = 1024;
    static constexpr std::size_t kAngleBuckets = 1024;

    struct Range {
        double lo = 0.0;
        double hi = 0.0;
    };
    std::array<Range, kMagBuckets> mag{};
    std::array<std::array<Range, 2>, kAngleBuckets> trig{};
};

JitterBrackets make_jitter_brackets();

/// The process-wide brackets, built on first use.
inline const JitterBrackets& jitter_brackets() {
    static const JitterBrackets brackets = make_jitter_brackets();
    return brackets;
}

/// bracket_fault_kind's answer: whether bounds alone settle the op, and
/// then its outcome (`kind` means nothing when `settled` is false).
struct BracketedFault {
    bool settled = false;
    FaultKind kind = FaultKind::None;
};

/// Bounds [lo, hi] on a Box–Muller deviate z whose magnitude lies in
/// [m.lo, m.hi] and whose cosine or sine lies in [c.lo, c.hi] (table
/// entries of jitter_brackets): z lies in [min(m.lo * c.lo, m.hi * c.lo),
/// max(m.hi * c.hi, m.lo * c.hi)]. mag >= 0 puts the extremes of mag * c
/// at these corners, and a rounded product keeps the order of the exact
/// ones. bracket_fault_kind decides from them, and the engine's lane walk
/// stores both deviates' bounds when it draws a pair.
inline JitterBrackets::Range jitter_bounds(const JitterBrackets::Range& m,
                                           const JitterBrackets::Range& c) {
    const double lo_a = m.lo * c.lo;
    const double lo_b = m.hi * c.lo;
    const double hi_a = m.hi * c.hi;
    const double hi_b = m.lo * c.hi;
    return {lo_a < lo_b ? lo_a : lo_b, hi_a > hi_b ? hi_a : hi_b};
}

/// The outcome of an op with delay d = k * (1 + (0 + sigma * z)), where z
/// is the Box–Muller deviate of uniforms u1 in [2^-53, 1) and u2 in
/// [0, 1) (its pair's second deviate when `sine`), when its bounds
/// [z_lo, z_hi] (jitter_bounds) settle it; unsettled when only z's value
/// can. Every step from z to d is monotone under round-to-nearest (k,
/// sigma >= 0), so d lies in [d(z_lo), d(z_hi)], and the outcome, which
/// never falls as d grows (band >= 0), is settled when both ends give the
/// same one: none when d(z_hi) <= T, duplication when d(z_lo) > T and
/// d(z_hi) <= T * (1 + band), random when d(z_lo) > T * (1 + band). Pure:
/// draws nothing. Branch-free: both ends run as the two lanes of one
/// vector.
inline BracketedFault bracket_fault_kind(double u1, double u2, bool sine, double k,
                                         double sigma, double period, double band) {
    using Pair = double __attribute__((vector_size(16)));  // {low end, high end}
    const JitterBrackets& brackets = jitter_brackets();
    const JitterBrackets::Range bounds = jitter_bounds(
        brackets.mag[static_cast<int>(u1 * JitterBrackets::kMagBuckets)],
        brackets.trig[static_cast<int>(u2 * JitterBrackets::kAngleBuckets)][sine ? 1 : 0]);
    const Pair z{bounds.lo, bounds.hi};
    // The exact delay's 0 + step changes no value (0 + x is x but for
    // x = -0, and 1 + -0 is 1 + 0), so the ends skip it.
    const Pair d = k * (Pair{1.0, 1.0} + sigma * z);
    // Each end's outcome as a lane, 0 (none), -1 (duplication) or -2
    // (random): a lane is -1 for each limit its delay exceeds (NaN
    // exceeds both, as in the exact comparison). The ends settle the op
    // when they agree.
    using Lanes = long long __attribute__((vector_size(16)));
    const Lanes outcome = ~(d <= period) + ~(d <= period * (1.0 + band));
    const Lanes disagree = outcome ^ __builtin_shufflevector(outcome, outcome, 1, 0);
    return {disagree[0] == 0, static_cast<FaultKind>(-outcome[0])};
}

struct DspTimingParams {
    double clock_period_s = 5e-9;     // 200 MHz DSP clock (DDR vs 100 MHz fabric)
    double nominal_path_fraction = 0.89; // tight DDR timing: 11% slack at sign-off
    double variation_sigma = 0.010;   // per-slice process variation of d_i
    double op_jitter_sigma = 0.015;   // per-op delay jitter (local IR noise)
    double duplication_band = 0.015;  // violations up to 1.5% past T duplicate

    /// Conservatively-clocked logic (pool comparators, control): large
    /// slack, effectively immune at attack-scale droops.
    static DspTimingParams relaxed_logic() {
        DspTimingParams p;
        p.clock_period_s = 10e-9;        // fabric rate
        p.nominal_path_fraction = 0.50;  // 50% slack
        return p;
    }
};

class DspSlice {
public:
    /// Draws this slice's process variation from `construction_rng`.
    DspSlice(std::uint32_t id, const DspTimingParams& params, Rng& construction_rng);

    std::uint32_t id() const { return id_; }

    /// Nominal (voltage factor 1) path delay of this physical slice.
    double path_delay_s() const { return path_delay_s_; }

    /// Evaluates one operation captured while the die is at voltage `v`.
    /// `path_scale` derates the effective path for layer modes that do not
    /// exercise the full cascade (e.g. single-channel conv1); 1.0 = full.
    FaultKind evaluate(double v, const pdn::DelayModel& delay, Rng& op_rng,
                       double path_scale = 1.0) const {
        return evaluate_with_factor(delay.factor(v), op_rng, path_scale);
    }

    /// Same evaluation with the voltage-dependent delay factor supplied by
    /// the caller. factor(v) is shared by every op captured at the same
    /// sample, so the engine reads it from its overlay plan instead of
    /// evaluating pow() per op; the delay expression keeps the exact order
    /// of evaluate(), making the two entry points bit-identical.
    ///
    /// The op's jitter deviate is the stream's pending one (fault_kind),
    /// taken as normal() takes it, so every outcome and every later draw is
    /// the one the eager comparison gives (tests/dsp_test.cpp).
    FaultKind evaluate_with_factor(double factor, Rng& op_rng,
                                   double path_scale = 1.0) const {
        const FaultKind kind = fault_kind(factor, op_rng.pending_normal(), path_scale);
        op_rng.skip_normal();
        return kind;
    }

    /// The outcome of an op at delay factor `factor` whose jitter deviate
    /// is the Box–Muller deviate `z` names. The deviate enters as d = k *
    /// (1 + (0 + sigma * z)) with k = (path delay * path_scale) * factor.
    /// bracket_fault_kind decides the outcome from table bounds on z's
    /// pair whenever they settle it, so z's value (log, sqrt, sincos;
    /// Rng::deviate) is computed only for the few ops whose delay lies too
    /// close to the period or the duplication limit. Draws nothing: the
    /// engine's lane walk decides ops of streams it steps itself.
    FaultKind fault_kind(double factor, const Rng::PendingNormal& z,
                         double path_scale = 1.0) const {
        const double k = path_delay_s_ * path_scale * factor;
        const double sigma = params_.op_jitter_sigma;
        const double period = params_.clock_period_s;
        const double band = params_.duplication_band;
        const BracketedFault bracketed =
            bracket_fault_kind(z.u1, z.u2, z.sine, k, sigma, period, band);
        if (bracketed.settled) return bracketed.kind;
        const double d = k * (1.0 + (0.0 + sigma * Rng::deviate(z)));
        if (d <= period) return FaultKind::None;
        if (d <= period * (1.0 + band)) return FaultKind::Duplication;
        return FaultKind::Random;
    }

    /// Fast pre-check: the highest voltage at which *any* op on this slice
    /// could fault (including 4-sigma jitter). Above it, evaluate() can be
    /// skipped without consuming RNG draws.
    double safe_voltage(const pdn::DelayModel& delay) const;

    /// Functional model of the configured op: (a + d) * b with Q3.4
    /// operands, full-precision product in accumulator units.
    static fx::Acc compute(fx::Q3_4 a, fx::Q3_4 d, fx::Q3_4 b) {
        const std::int32_t pre = static_cast<std::int32_t>(a.raw()) + d.raw();
        return static_cast<fx::Acc>(pre) * b.raw();
    }

    /// Random-fault payload: garbage within the product register range.
    static fx::Acc random_fault_value(Rng& rng);

    const DspTimingParams& params() const { return params_; }

private:
    std::uint32_t id_;
    DspTimingParams params_;
    double path_delay_s_; // d_i = nominal * (1 + variation)
};

} // namespace deepstrike::accel
