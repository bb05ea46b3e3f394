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
    std::uint64_t next() { return step(s_[0], s_[1], s_[2], s_[3]); }

    /// One xoshiro256** step of a state whose four words are held
    /// elsewhere (the SoA lanes of accel::AccelEngine::run_block): returns
    /// the draw and advances the words, as next() does its own.
    static std::uint64_t step(std::uint64_t& s0, std::uint64_t& s1, std::uint64_t& s2,
                              std::uint64_t& s3) {
        const std::uint64_t result = rotl_(s1 * 5, 7) * 9;
        const std::uint64_t t = s1 << 17;
        s2 ^= s0;
        s3 ^= s1;
        s1 ^= s2;
        s0 ^= s3;
        s2 ^= t;
        s3 = rotl_(s3, 45);
        return result;
    }

    /// Uniform double in [0, 1): 53 high bits of one draw.
    double uniform() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }

    /// Uniform double in [lo, hi).
    double uniform(double lo, double hi) { return lo + (hi - lo) * uniform(); }

    /// Uniform integer in [lo, hi] (inclusive). Requires lo <= hi.
    std::int64_t uniform_int(std::int64_t lo, std::int64_t hi);

    /// Standard normal via Box–Muller. Each pair of uniforms, u1 in
    /// (0, 1) and u2 in [0, 1), yields two deviates, mag * cos(angle) and
    /// then mag * sin(angle), with mag = sqrt(-2 log u1) and angle =
    /// 2 pi u2. The pair's magnitude and sincos run on the first deviate
    /// taken by value; its sine is kept for the second.
    double normal() {
        if (pending_ == 0) draw_pair_();
        if (have_sin_) {
            pending_ = 0;
            return mag_ * sin_;
        }
        const double mag = magnitude_(u1_);
        double s = 0.0;
        double c = 0.0;
        sincos_(u2_, s, c);
        if (--pending_ == 0) return mag * s;
        mag_ = mag;
        sin_ = s;
        have_sin_ = true;
        return mag * c;
    }

    /// What the pending deviate is computed from, for a caller that can
    /// often decide from bounds on these alone whether it needs the value.
    struct PendingNormal {
        double u1 = 0.0;    // the magnitude's uniform, in [2^-53, 1)
        double u2 = 0.0;    // the angle's uniform, in [0, 1)
        bool sine = false;  // the pair's second deviate (mag * sin(angle))
    };

    /// The deviate `z` names, computed as normal() computes it (the same
    /// libm calls on the same values, so the same bits).
    static double deviate(const PendingNormal& z) {
        double s = 0.0;
        double c = 0.0;
        sincos_(z.u2, s, c);
        return magnitude_(z.u1) * (z.sine ? s : c);
    }

    /// The pending deviate's pair and position. Draws a new pair's two
    /// uniforms (no libm call) when none is pending and nothing otherwise,
    /// so calling it again before the deviate is taken returns the same.
    PendingNormal pending_normal() {
        if (pending_ == 0) draw_pair_();
        return {u1_, u2_, pending_ == 1};
    }

    /// Takes the pending deviate without computing it, for a caller that
    /// has shown from pending_normal() that its value cannot change the
    /// outcome. The stream advances exactly as normal() advances it.
    void skip_normal() {
        if (pending_ == 0) draw_pair_();
        --pending_;
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

    /// Everything that fixes the draws to come: the xoshiro words and the
    /// pending Box–Muller pair, as its two uniforms and the number of its
    /// deviates left (0 to 2; the uniforms mean nothing at 0). A walker
    /// that steps many streams in lock-step (accel::AccelEngine::
    /// run_block) takes each apart with stream() and puts it back with
    /// Rng(stream); Rng(a.stream()) is stream_equal to a.
    struct Stream {
        std::array<std::uint64_t, 4> s{};
        double u1 = 0.0;
        double u2 = 0.0;
        std::uint8_t pending = 0;
    };
    Stream stream() const { return {s_, u1_, u2_, pending_}; }
    explicit Rng(const Stream& stream)
        : s_(stream.s), u1_(stream.u1), u2_(stream.u2), pending_(stream.pending) {}

    /// True when `a` and `b` will emit identical draw sequences from here
    /// on: same xoshiro state AND the same pending Box–Muller pair
    /// (set_state() and state() alone cannot see a pair whose second
    /// deviate is still pending, so raw state equality is not stream
    /// equality). The lane-batched TDC sampler uses this to prove two
    /// lanes' noise streams coincide before deduplicating a draw. A
    /// pending pair is compared by the bit patterns of its two uniforms,
    /// which fix every deviate it still yields (whether its magnitude or
    /// sincos has run yet does not matter).
    friend bool stream_equal(const Rng& a, const Rng& b) {
        if (a.s_ != b.s_ || a.pending_ != b.pending_) return false;
        if (a.pending_ == 0) return true;
        return bits_(a.u1_) == bits_(b.u1_) && bits_(a.u2_) == bits_(b.u2_);
    }

private:
    static std::uint64_t rotl_(std::uint64_t x, int k) {
        return (x << k) | (x >> (64 - k));
    }

    static double magnitude_(double u1) { return std::sqrt(-2.0 * std::log(u1)); }

    /// sin and cos of the angle 2 pi u2.
    static void sincos_(double u2, double& s, double& c) {
        const double angle = 2.0 * M_PI * u2;
#if defined(__GNUC__) && defined(__GLIBC__)
        // glibc's sincos() shares the argument reduction and polynomial
        // kernels of the separate sin()/cos() calls, so the pair is
        // bit-identical to the two-call form while costing one call.
        __builtin_sincos(angle, &s, &c);
#else
        s = std::sin(angle);
        c = std::cos(angle);
#endif
    }

    static std::uint64_t bits_(double x) {
        std::uint64_t b = 0;
        __builtin_memcpy(&b, &x, sizeof(b));
        return b;
    }

    /// Starts a Box–Muller pair: its two uniforms, u1 redrawn while zero
    /// (log(0) is -inf). Nothing is computed from them yet.
    void draw_pair_() {
        double u1 = 0.0;
        do {
            u1 = uniform();
        } while (u1 == 0.0);
        u1_ = u1;
        u2_ = uniform();
        have_sin_ = false;
        pending_ = 2;
    }

    std::array<std::uint64_t, 4> s_{};
    // The pending Box–Muller pair: deviates left to take (2 = both, the
    // cosine one next; 1 = the sine one; 0 = no pair), its two uniforms,
    // and its magnitude and sine once its first deviate has been taken by
    // value (have_sin_). mag_ sits between u1_ and u2_ on purpose:
    // adjacent, their two stores get merged into one 16-byte store that
    // the next op's reload of u2_ cannot forward from, a stall that made
    // a fault decision about a third slower.
    double u1_ = 0.0;
    double mag_ = 0.0;
    double u2_ = 0.0;
    double sin_ = 0.0;
    std::uint8_t pending_ = 0;
    bool have_sin_ = false;
};

} // namespace deepstrike
