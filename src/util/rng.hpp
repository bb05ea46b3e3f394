// Deterministic, fast pseudo-random number generation.
//
// Every stochastic element of the simulation (dataset synthesis, weight
// init, DSP slack spread, TDC measurement noise, random-fault payloads)
// draws from an explicitly seeded Xoshiro256** stream so that whole
// experiments replay bit-exactly. We deliberately do not use std::mt19937
// in hot loops: xoshiro is ~4x faster and its state is trivially copyable,
// which the co-simulator exploits for checkpointing.
#pragma once

#include <array>
#include <cmath>
#include <cstdint>
#include <initializer_list>
#include <limits>

namespace deepstrike {

/// SplitMix64 — used only to expand a single u64 seed into xoshiro state.
class SplitMix64 {
public:
    explicit SplitMix64(std::uint64_t seed) : state_(seed) {}

    std::uint64_t next() {
        std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
        z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
        z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
        return z ^ (z >> 31);
    }

private:
    std::uint64_t state_;
};

/// Derives an independent stream seed from a base seed and a path of
/// tags (sweep index, point index, image index, ...). Deterministic in
/// (base, tags) and order-sensitive, so derive_seed(s, a, b) and
/// derive_seed(s, b, a) are decorrelated. This is how sweeps assign
/// per-point / per-image RNG streams: the derivation depends only on the
/// logical coordinates of the work item, never on which thread runs it,
/// which keeps whole campaigns bit-identical at any thread count.
std::uint64_t derive_seed(std::uint64_t base,
                          std::initializer_list<std::uint64_t> tags);

template <typename... Tags>
std::uint64_t derive_seed(std::uint64_t base, Tags... tags) {
    return derive_seed(base, {static_cast<std::uint64_t>(tags)...});
}

/// Xoshiro256** by Blackman & Vigna. Satisfies UniformRandomBitGenerator.
class Rng {
public:
    using result_type = std::uint64_t;

    /// Seeds the generator; identical seeds yield identical streams.
    explicit Rng(std::uint64_t seed = 0x9d2c5680dULL);

    static constexpr result_type min() { return 0; }
    static constexpr result_type max() { return std::numeric_limits<result_type>::max(); }

    result_type operator()() { return next(); }

    // The draw primitives are defined inline: every stochastic hot loop
    // (per-op fault evaluation, TDC sampling) pays for them per event, and
    // the out-of-line call overhead is measurable there. Inlining cannot
    // change any drawn value — the integer ops are exact and the floating
    // expressions keep their evaluation order (no FMA contraction on the
    // baseline x86-64 target).
    std::uint64_t next() {
        const std::uint64_t result = rotl_(s_[1] * 5, 7) * 9;
        const std::uint64_t t = s_[1] << 17;
        s_[2] ^= s_[0];
        s_[3] ^= s_[1];
        s_[1] ^= s_[2];
        s_[0] ^= s_[3];
        s_[2] ^= t;
        s_[3] = rotl_(s_[3], 45);
        return result;
    }

    /// Uniform double in [0, 1): 53 high bits of one draw.
    double uniform() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }

    /// Uniform double in [lo, hi).
    double uniform(double lo, double hi) { return lo + (hi - lo) * uniform(); }

    /// Uniform integer in [lo, hi] (inclusive). Requires lo <= hi.
    std::int64_t uniform_int(std::int64_t lo, std::int64_t hi);

    /// Standard normal via Box–Muller: the magnitude step, then the value
    /// step. Each pair of uniforms yields two deviates, mag * cos(angle)
    /// and then mag * sin(angle).
    double normal() {
        normal_magnitude();
        return normal_value();
    }

    /// Magnitude step of normal(): the Box–Muller magnitude of the pending
    /// deviate. Draws a new pair (both uniforms, log, sqrt) when none is
    /// pending and nothing otherwise, so calling it again before the
    /// deviate is taken returns the same value. The pending deviate is at
    /// most this magnitude in absolute value, bit for bit: sin and cos lie
    /// in [-1, 1] and rounding is monotone, so |fl(mag * c)| <= mag.
    double normal_magnitude() {
        if (pending_ == 0) {
            // u1 in (0,1] avoids log(0).
            double u1 = 0.0;
            do {
                u1 = uniform();
            } while (u1 == 0.0);
            const double u2 = uniform();
            mag_ = std::sqrt(-2.0 * std::log(u1));
            ang_ = 2.0 * M_PI * u2;
            have_sin_ = false;
            pending_ = 2;
        }
        return mag_;
    }

    /// Value step of normal(): takes the pending deviate. The pair's
    /// sincos runs on first need only; its sine is kept for the pair's
    /// second deviate. (A pair's first deviate always finds no sine kept.)
    double normal_value() {
        normal_magnitude();
        double c = 0.0;
        if (!have_sin_) {
#if defined(__GNUC__) && defined(__GLIBC__)
            // glibc's sincos() shares the argument reduction and polynomial
            // kernels of the separate sin()/cos() calls, so the pair is
            // bit-identical to the two-call form while costing one call.
            double s = 0.0;
            __builtin_sincos(ang_, &s, &c);
#else
            const double s = std::sin(ang_);
            c = std::cos(ang_);
#endif
            sin_ = s;
            have_sin_ = true;
        }
        return pending_-- == 2 ? mag_ * c : mag_ * sin_;
    }

    /// Takes the pending deviate without computing it, for a caller that
    /// has shown from normal_magnitude() or normal_nonpositive() that its
    /// value cannot change the outcome. The stream advances exactly as
    /// normal_value() advances it.
    void skip_normal() {
        normal_magnitude();
        --pending_;
    }

    /// True when the pending deviate is provably <= 0 from its pair's
    /// angle alone (deviate_nonpositive); false means unknown.
    bool normal_nonpositive() {
        normal_magnitude();
        return deviate_nonpositive(ang_, pending_ == 1);
    }

    /// The quadrant test of normal_nonpositive(): true only when the
    /// cosine (`sine` false: a pair's first deviate) or the sine (`sine`
    /// true: its second) of `angle` in [0, 2pi) is negative by a margin of
    /// 1e-9 from the quadrant edge. The margin dwarfs the sub-ulp error of
    /// the double pi constants and of libm's sin/cos near their zeros, so
    /// the computed value, and so mag times it, is <= 0 whenever this
    /// holds.
    static bool deviate_nonpositive(double angle, bool sine) {
        constexpr double margin = 1e-9;
        if (sine) return angle >= M_PI + margin && angle <= 2.0 * M_PI - margin;
        return angle >= 0.5 * M_PI + margin && angle <= 1.5 * M_PI - margin;
    }

    /// Normal with given mean / standard deviation.
    double normal(double mean, double stddev) { return mean + stddev * normal(); }

    /// Bernoulli trial with success probability p (clamped to [0,1]).
    bool bernoulli(double p) {
        if (p <= 0.0) return false;
        if (p >= 1.0) return true;
        return uniform() < p;
    }

    /// Derives an independent child stream; deterministic in (this stream, tag).
    Rng fork(std::uint64_t tag);

    /// Raw state, for checkpoint/restore.
    std::array<std::uint64_t, 4> state() const { return s_; }
    void set_state(const std::array<std::uint64_t, 4>& s) { s_ = s; pending_ = 0; }

    /// True when `a` and `b` will emit identical draw sequences from here
    /// on: same xoshiro state AND the same pending Box–Muller pair
    /// (set_state() and state() alone cannot see a pair whose second
    /// deviate is still pending, so raw state equality is not stream
    /// equality). The lane-batched TDC sampler uses this to prove two
    /// lanes' noise streams coincide before deduplicating a draw. A
    /// pending pair is compared by the bit patterns of its magnitude and
    /// angle, which fix every deviate it still yields (whether its sincos
    /// has run yet does not matter), so -0.0/0.0 and NaN cannot produce a
    /// false match.
    friend bool stream_equal(const Rng& a, const Rng& b) {
        if (a.s_ != b.s_ || a.pending_ != b.pending_) return false;
        if (a.pending_ == 0) return true;
        return bits_(a.mag_) == bits_(b.mag_) && bits_(a.ang_) == bits_(b.ang_);
    }

private:
    static std::uint64_t rotl_(std::uint64_t x, int k) {
        return (x << k) | (x >> (64 - k));
    }

    static std::uint64_t bits_(double x) {
        std::uint64_t b = 0;
        __builtin_memcpy(&b, &x, sizeof(b));
        return b;
    }

    std::array<std::uint64_t, 4> s_{};
    // The pending Box–Muller pair: deviates left to take (2 = both, the
    // cosine one next; 1 = the sine one; 0 = no pair), its magnitude and
    // angle, and its sine once sincos has run. sin_ sits between mag_ and
    // ang_ on purpose: adjacent, their two stores get merged into one
    // 16-byte store that the angle's reload for sincos cannot forward
    // from, a stall that made normal() about a third slower.
    double mag_ = 0.0;
    double sin_ = 0.0;
    double ang_ = 0.0;
    std::uint8_t pending_ = 0;
    bool have_sin_ = false;
};

} // namespace deepstrike
