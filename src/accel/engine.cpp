#include "accel/engine.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <limits>
#include <utility>

#include "quant/gemm.hpp"
#include "util/divide.hpp"
#include "util/error.hpp"
#include "util/metrics.hpp"
#include "util/simd.hpp"

#if defined(__x86_64__) || defined(__i386__)
#include <immintrin.h>
#define DS_WALK_X86 1
#else
#define DS_WALK_X86 0
#endif

namespace deepstrike::accel {

using fx::Q3_4;

namespace {

DspSlice make_pool_slice(const AccelConfig& config, std::uint64_t variation_seed) {
    // The pool comparator path gets its own variation stream so the DSP
    // draws below stay stable if the pool model changes.
    Rng pool_rng(variation_seed ^ 0x706f6f6cULL);
    return DspSlice(0xFFFF, config.logic_timing, pool_rng);
}

/// One registry visit per block (never per op): golden-vs-faulted op
/// accounting derives from the static schedule and the overlay plan, so
/// totals are identical at any thread count and block size. `ops_executed`
/// charges only the layers actually computed (still-golden ones are
/// skipped), summed over the block's `images` inferences.
void count_block(const Schedule& schedule, const OverlayPlan& plan, std::size_t images,
                 std::uint64_t ops_executed, const FaultCounts& faults) {
    if (!metrics::enabled()) return;
    std::uint64_t ops_unsafe = 0;
    for (std::size_t i = 0; i < plan.layers.size(); ++i) {
        const LayerSegment& seg = schedule.segment_for_layer(i);
        for (const CycleWindow& w : plan.layers[i].unsafe) {
            const std::size_t b = w.begin - seg.start_cycle;
            const std::size_t e = w.end - seg.start_cycle;
            ops_unsafe += std::min(e * seg.ops_per_cycle, seg.total_ops) -
                          std::min(b * seg.ops_per_cycle, seg.total_ops);
        }
    }
    metrics::counter("accel.inferences", "inferences",
                     "accelerator inference runs (faulted + clean)")
        .add(images);
    metrics::counter("accel.lane_blocks", "blocks",
                     "fault-walk blocks: images sharing a trace whose fault streams "
                     "one walk draws in lock-step (up to 8 per block)")
        .add();
    metrics::counter("accel.ops_total", "ops", "scheduled MAC/comparator ops executed")
        .add(ops_executed);
    metrics::counter("accel.ops_unsafe", "ops",
                     "ops inside unsafe voltage windows (per-op fault path)")
        .add(ops_unsafe * images);
    metrics::counter("accel.faults_duplication", "faults",
                     "DSP duplication faults injected")
        .add(faults.duplication);
    metrics::counter("accel.faults_random", "faults", "DSP random faults injected")
        .add(faults.random);
}

bool throttled(const std::vector<bool>* throttle, std::size_t cycle) {
    return throttle != nullptr && cycle < throttle->size() && (*throttle)[cycle];
}

// ------------------------------------------------- the draw (data-free)
//
// Whether an op faults, and what a random fault puts in its place, depends
// on the plan, the throttle mask and the image's fault stream alone. So a
// block draws every image's fault events before any image touches its
// data, stepping the images' xoshiro streams in lock-step: an op draws
// exactly when its sample is under the safe voltage and its cycle is
// unthrottled, for every image alike, in ascending op order as the per-op
// walk draws it.

/// A fault that replaces a value: for a conv/FC layer the op it hits and
/// the random payload the op contributes instead of its product; for a
/// pool layer a faulted output window and the index (0-3) of the window
/// element that wins it.
struct Replacement {
    std::uint32_t index = 0;
    std::int32_t value = 0;
};

/// One image's draw: its fault events, layer by layer, and its per-layer
/// counts (a pool window counts one random fault per faulted comparator).
/// Duplications, most of the faults, keep only their op: the apply finds
/// the stale product from the op index. Integer deltas commute, so the
/// apply need not interleave the two lists in op order.
struct LaneEvents {
    std::vector<std::uint32_t> duplicated;
    std::vector<Replacement> replaced;
    // Layer i's events end at these positions of the two lists.
    std::vector<std::pair<std::size_t, std::size_t>> layer_end;
    std::vector<FaultCounts> counts;

    void reset(std::size_t n_layers) {
        duplicated.clear();
        replaced.clear();
        layer_end.assign(n_layers, {0, 0});
        counts.assign(n_layers, FaultCounts{});
    }

    void end_layer(std::size_t i) { layer_end[i] = {duplicated.size(), replaced.size()}; }

    std::span<const std::uint32_t> duplicated_in(std::size_t i) const {
        const std::size_t begin = i == 0 ? 0 : layer_end[i - 1].first;
        return {duplicated.data() + begin, layer_end[i].first - begin};
    }
    std::span<const Replacement> replaced_in(std::size_t i) const {
        const std::size_t begin = i == 0 ? 0 : layer_end[i - 1].second;
        return {replaced.data() + begin, layer_end[i].second - begin};
    }
};

/// A uniform's bracket bucket is the top kBucketBits bits of its draw:
/// u * 2^kBucketBits = m * 2^(kBucketBits - 53) for u = m * 2^-53.
constexpr int kBucketBits = std::countr_zero(JitterBrackets::kMagBuckets);
static_assert(JitterBrackets::kMagBuckets == JitterBrackets::kAngleBuckets &&
              std::has_single_bit(JitterBrackets::kMagBuckets));

/// The fault streams of a block in SoA lanes, one lane per image.
struct alignas(32) LaneStreams {
    std::uint64_t s[4][kWalkLanes] = {}; // xoshiro256** words
    // Every lane's pending Box–Muller pair: its uniforms as 53-bit
    // integers (u = m * 2^-53, as Rng::uniform() makes them), and the
    // bounds jitter_bounds puts on its cosine [0] and sine [1] deviates.
    std::uint64_t m1[kWalkLanes] = {};
    std::uint64_t m2[kWalkLanes] = {};
    double z_lo[2][kWalkLanes] = {};
    double z_hi[2][kWalkLanes] = {};
    /// Deviates left in every lane's pair. Each op step takes one deviate
    /// in every lane (three under TMR), so all lanes share it; payload and
    /// pool-winner draws take raw draws, which leave a pending pair alone.
    unsigned pending = 0;
    std::size_t n = 0;        // lanes in use; lanes n.. mirror lane 0, unread
    std::uint32_t active = 0; // bit j set for each lane in use

    static double uniform(std::uint64_t m) { return static_cast<double>(m) * 0x1.0p-53; }

    void load(std::span<const Rng> rngs) {
        n = rngs.size();
        active = (1u << n) - 1;
        const Rng::Stream first = rngs[0].stream();
        pending = first.pending;
        for (std::size_t j = 0; j < kWalkLanes; ++j) {
            const Rng::Stream lane = j < n ? rngs[j].stream() : first;
            for (std::size_t w = 0; w < 4; ++w) s[w][j] = lane.s[w];
            m1[j] = static_cast<std::uint64_t>(lane.u1 * 0x1.0p53);
            m2[j] = static_cast<std::uint64_t>(lane.u2 * 0x1.0p53);
            if (pending != 0) bracket(j);
        }
    }

    void store(std::span<Rng> rngs) const {
        for (std::size_t j = 0; j < n; ++j) {
            rngs[j] = Rng(Rng::Stream{{s[0][j], s[1][j], s[2][j], s[3][j]},
                                      uniform(m1[j]), uniform(m2[j]),
                                      static_cast<std::uint8_t>(pending)});
        }
    }

    std::uint64_t next(std::size_t j) { return Rng::step(s[0][j], s[1][j], s[2][j], s[3][j]); }

    /// The deviate lane j takes next.
    Rng::PendingNormal deviate(std::size_t j) const {
        return {uniform(m1[j]), uniform(m2[j]), pending == 1};
    }

    /// Lane j's raw stream, for draws that are not deviates; put_back
    /// stores what is left of it.
    Rng raw(std::size_t j) const {
        return Rng(Rng::Stream{{s[0][j], s[1][j], s[2][j], s[3][j]}, 0.0, 0.0, 0});
    }
    void put_back(std::size_t j, const Rng& rng) {
        const std::array<std::uint64_t, 4> words = rng.state();
        for (std::size_t w = 0; w < 4; ++w) s[w][j] = words[w];
    }

    /// The bounds on both deviates of lane j's pair (jitter_bounds).
    void bracket(std::size_t j) {
        const JitterBrackets& b = jitter_brackets();
        const JitterBrackets::Range& m = b.mag[m1[j] >> (53 - kBucketBits)];
        for (std::size_t side = 0; side < 2; ++side) {
            const JitterBrackets::Range z =
                jitter_bounds(m, b.trig[m2[j] >> (53 - kBucketBits)][side]);
            z_lo[side][j] = z.lo;
            z_hi[side][j] = z.hi;
        }
    }

    /// Lanes whose new pair drew u1 == 0 redraw it from their own stream,
    /// as Rng::normal() does: u1 is the first nonzero draw, u2 the next.
    void redraw_zero_u1(std::uint32_t lanes) {
        for (; lanes != 0; lanes &= lanes - 1) {
            const auto j = static_cast<std::size_t>(std::countr_zero(lanes));
            while (m1[j] == 0) {
                m1[j] = m2[j];
                m2[j] = next(j) >> 11;
            }
            bracket(j);
        }
    }
};

/// The portable twin: one lane at a time, with bracket_fault_kind's
/// scalar operations (no FMA on the baseline target). Width 1 is the
/// single-lane form of a lone image; width kWalkLanes loops over the
/// lanes in use.
template <std::size_t Width>
struct PortableLanes {
    LaneStreams& st;

    std::size_t lanes() const { return Width == 1 ? 1 : st.n; }

    void draw_pair() {
        std::uint32_t zero = 0;
        for (std::size_t j = 0; j < lanes(); ++j) {
            st.m1[j] = st.next(j) >> 11;
            st.m2[j] = st.next(j) >> 11;
            if (st.m1[j] == 0) zero |= 1u << j;
            else st.bracket(j);
        }
        st.pending = 2;
        if (zero != 0) st.redraw_zero_u1(zero);
    }

    /// Lanes whose deviate the bounds do not settle as fault-free: both
    /// ends of d = k * (1 + sigma * z) within the period.
    std::uint32_t leave_mask(double k, double sigma, double period) const {
        const std::size_t side = 2 - st.pending;
        std::uint32_t leave = 0;
        for (std::size_t j = 0; j < lanes(); ++j) {
            const double d_lo = k * (1.0 + sigma * st.z_lo[side][j]);
            const double d_hi = k * (1.0 + sigma * st.z_hi[side][j]);
            if (!(d_lo <= period && d_hi <= period)) leave |= 1u << j;
        }
        return leave;
    }
};

#if DS_WALK_X86 && defined(__GNUC__)
/// The AVX2 twin: kWalkLanes lanes as two 4-lane halves, the same
/// vertical IEEE operations as the portable twin (no FMA), table bounds
/// by 64-bit-index gathers.
struct Avx2Lanes {
    LaneStreams& st;

    /// One xoshiro256** step of four lanes (x * 5 and x * 9 as shifts and
    /// adds: AVX2 has no 64-bit multiply).
    __attribute__((target("avx2"))) static __m256i step(__m256i& s0, __m256i& s1,
                                                        __m256i& s2, __m256i& s3) {
        const __m256i x5 = _mm256_add_epi64(s1, _mm256_slli_epi64(s1, 2));
        const __m256i r = _mm256_or_si256(_mm256_slli_epi64(x5, 7), _mm256_srli_epi64(x5, 57));
        const __m256i result = _mm256_add_epi64(r, _mm256_slli_epi64(r, 3));
        const __m256i t = _mm256_slli_epi64(s1, 17);
        s2 = _mm256_xor_si256(s2, s0);
        s3 = _mm256_xor_si256(s3, s1);
        s1 = _mm256_xor_si256(s1, s2);
        s0 = _mm256_xor_si256(s0, s3);
        s2 = _mm256_xor_si256(s2, t);
        s3 = _mm256_or_si256(_mm256_slli_epi64(s3, 45), _mm256_srli_epi64(s3, 19));
        return result;
    }

    __attribute__((target("avx2"))) void draw_pair() {
        const JitterBrackets& b = jitter_brackets();
        static_assert(sizeof(JitterBrackets::Range) == 16 &&
                      sizeof(b.trig[0]) == 32);
        std::uint32_t zero = 0;
        for (std::size_t h = 0; h < kWalkLanes; h += 4) {
            __m256i s0 = _mm256_load_si256(reinterpret_cast<const __m256i*>(st.s[0] + h));
            __m256i s1 = _mm256_load_si256(reinterpret_cast<const __m256i*>(st.s[1] + h));
            __m256i s2 = _mm256_load_si256(reinterpret_cast<const __m256i*>(st.s[2] + h));
            __m256i s3 = _mm256_load_si256(reinterpret_cast<const __m256i*>(st.s[3] + h));
            const __m256i r1 = step(s0, s1, s2, s3);
            const __m256i r2 = step(s0, s1, s2, s3);
            _mm256_store_si256(reinterpret_cast<__m256i*>(st.s[0] + h), s0);
            _mm256_store_si256(reinterpret_cast<__m256i*>(st.s[1] + h), s1);
            _mm256_store_si256(reinterpret_cast<__m256i*>(st.s[2] + h), s2);
            _mm256_store_si256(reinterpret_cast<__m256i*>(st.s[3] + h), s3);
            const __m256i m1 = _mm256_srli_epi64(r1, 11);
            _mm256_store_si256(reinterpret_cast<__m256i*>(st.m1 + h), m1);
            _mm256_store_si256(reinterpret_cast<__m256i*>(st.m2 + h),
                               _mm256_srli_epi64(r2, 11));
            zero |= static_cast<std::uint32_t>(_mm256_movemask_pd(_mm256_castsi256_pd(
                        _mm256_cmpeq_epi64(m1, _mm256_setzero_si256()))))
                    << h;
            // Byte offsets of each lane's buckets: the top kBucketBits
            // bits of a draw are the bucket of its uniform.
            const __m256i mag_at =
                _mm256_slli_epi64(_mm256_srli_epi64(r1, 64 - kBucketBits), 4);
            const __m256i trig_at =
                _mm256_slli_epi64(_mm256_srli_epi64(r2, 64 - kBucketBits), 5);
            const __m256d m_lo = _mm256_i64gather_pd(&b.mag[0].lo, mag_at, 1);
            const __m256d m_hi = _mm256_i64gather_pd(&b.mag[0].hi, mag_at, 1);
            for (std::size_t side = 0; side < 2; ++side) {
                const __m256d c_lo = _mm256_i64gather_pd(&b.trig[0][side].lo, trig_at, 1);
                const __m256d c_hi = _mm256_i64gather_pd(&b.trig[0][side].hi, trig_at, 1);
                // min_pd(p, q) is p < q ? p : q and max_pd(p, q) is
                // p > q ? p : q, jitter_bounds' selections.
                _mm256_store_pd(st.z_lo[side] + h, _mm256_min_pd(_mm256_mul_pd(m_lo, c_lo),
                                                                 _mm256_mul_pd(m_hi, c_lo)));
                _mm256_store_pd(st.z_hi[side] + h, _mm256_max_pd(_mm256_mul_pd(m_hi, c_hi),
                                                                 _mm256_mul_pd(m_lo, c_hi)));
            }
        }
        st.pending = 2;
        zero &= st.active;
        if (zero != 0) st.redraw_zero_u1(zero);
    }

    __attribute__((target("avx2"))) std::uint32_t leave_mask(double k, double sigma,
                                                             double period) const {
        const std::size_t side = 2 - st.pending;
        const __m256d kv = _mm256_set1_pd(k);
        const __m256d sv = _mm256_set1_pd(sigma);
        const __m256d one = _mm256_set1_pd(1.0);
        const __m256d tv = _mm256_set1_pd(period);
        std::uint32_t none = 0;
        for (std::size_t h = 0; h < kWalkLanes; h += 4) {
            const __m256d d_lo = _mm256_mul_pd(
                kv, _mm256_add_pd(one, _mm256_mul_pd(sv, _mm256_load_pd(st.z_lo[side] + h))));
            const __m256d d_hi = _mm256_mul_pd(
                kv, _mm256_add_pd(one, _mm256_mul_pd(sv, _mm256_load_pd(st.z_hi[side] + h))));
            none |= static_cast<std::uint32_t>(_mm256_movemask_pd(
                        _mm256_and_pd(_mm256_cmp_pd(d_lo, tv, _CMP_LE_OQ),
                                      _mm256_cmp_pd(d_hi, tv, _CMP_LE_OQ))))
                    << h;
        }
        return ~none & st.active;
    }
};
#endif

/// Records lane j's DSP fault of `kind` at op `g` of layer `layer`; a
/// random fault draws its payload from the lane's own stream.
void record_dsp_fault(LaneStreams& st, std::size_t j, FaultKind kind, std::uint32_t g,
                      std::size_t layer, LaneEvents& lane) {
    if (kind == FaultKind::Duplication) {
        lane.duplicated.push_back(g);
        ++lane.counts[layer].duplication;
        return;
    }
    Rng rng = st.raw(j);
    lane.replaced.push_back({g, static_cast<std::int32_t>(DspSlice::random_fault_value(rng))});
    st.put_back(j, rng);
    ++lane.counts[layer].random;
}

/// The exact outcome of the deviate each lane of `leave` takes now.
template <typename Visit>
void settle(const LaneStreams& st, std::uint32_t leave, const DspSlice& slice,
            double factor, double path_scale, Visit&& visit) {
    for (; leave != 0; leave &= leave - 1) {
        const auto j = static_cast<std::size_t>(std::countr_zero(leave));
        visit(j, slice.fault_kind(factor, st.deviate(j), path_scale));
    }
}

/// The lanes whose next deviate leaves the vector path, drawing a new
/// pair first when none is pending. The caller takes the deviate
/// (--pending) once it has settled them.
template <typename Lanes>
[[gnu::always_inline]] inline std::uint32_t leaving_lanes(Lanes& lanes, double k,
                                                          double sigma, double period) {
    if (lanes.st.pending == 0) lanes.draw_pair();
    return lanes.leave_mask(k, sigma, period);
}

/// The draw of one windowed conv/FC layer: every op of its windows in
/// ascending order, one deviate per lane (three, voted two of three,
/// under TMR).
template <typename Lanes>
[[gnu::always_inline]] inline void draw_dsp_layer(Lanes& lanes, const AccelEngine& engine,
                                                  std::size_t layer,
                                                  const SegmentOverlay& overlay,
                                                  const std::vector<bool>* throttle,
                                                  std::span<LaneEvents> out) {
    LaneStreams& st = lanes.st;
    const quant::QLayer& ql = engine.network().layers[layer];
    const LayerSegment& seg = engine.schedule().segment_for_layer(layer);
    const bool conv = ql.kind == quant::QLayerKind::Conv;
    const std::vector<DspSlice>& dsps = conv ? engine.conv_dsps() : engine.fc_dsps();
    const double path_scale = conv ? engine.config().path_derate(ql) : 1.0;
    const bool tmr = engine.config().tmr_protection;
    const std::size_t mpc = seg.ops_per_cycle;
    const std::size_t n_ops = seg.total_ops;
    std::array<std::uint8_t, kWalkLanes> dup{};
    std::array<std::uint8_t, kWalkLanes> rnd{};

    const double* fac = overlay.factors.data();
    for (const CycleWindow& win : overlay.unsafe) {
        for (std::size_t cycle = win.begin; cycle < win.end; ++cycle, fac += 2) {
            if (throttled(throttle, cycle)) continue;
            const std::size_t base = (cycle - seg.start_cycle) * mpc;
            const std::size_t end = std::min(base + mpc, n_ops);
            for (std::size_t g = base; g < end; ++g) {
                const std::size_t pos = g - base;
                const double factor = fac[pos & 1];
                if (factor < 0.0) continue;
                // The op step's slice timing, once for all lanes.
                const DspSlice& slice = dsps[pos >> 1];
                const double k = slice.path_delay_s() * path_scale * factor;
                const double sigma = slice.params().op_jitter_sigma;
                const double period = slice.params().clock_period_s;
                const auto op = static_cast<std::uint32_t>(g);
                if (!tmr) {
                    const std::uint32_t leave = leaving_lanes(lanes, k, sigma, period);
                    if (leave != 0) {
                        settle(st, leave, slice, factor, path_scale,
                               [&](std::size_t j, FaultKind kind) {
                                   if (kind != FaultKind::None) {
                                       record_dsp_fault(st, j, kind, op, layer, out[j]);
                                   }
                               });
                    }
                    --st.pending;
                    continue;
                }
                // TMR: an op faults when at least two of its three
                // evaluations fault, as the majority kind.
                std::uint32_t touched = 0;
                for (int r = 0; r < 3; ++r) {
                    const std::uint32_t leave = leaving_lanes(lanes, k, sigma, period);
                    settle(st, leave, slice, factor, path_scale,
                           [&](std::size_t j, FaultKind kind) {
                               dup[j] += kind == FaultKind::Duplication ? 1 : 0;
                               rnd[j] += kind == FaultKind::Random ? 1 : 0;
                           });
                    touched |= leave;
                    --st.pending;
                }
                for (; touched != 0; touched &= touched - 1) {
                    const auto j = static_cast<std::size_t>(std::countr_zero(touched));
                    if (dup[j] + rnd[j] >= 2) {
                        record_dsp_fault(st, j,
                                         dup[j] >= rnd[j] ? FaultKind::Duplication
                                                          : FaultKind::Random,
                                         op, layer, out[j]);
                    }
                    dup[j] = 0;
                    rnd[j] = 0;
                }
            }
        }
    }
}

/// The draw of one windowed pool layer: each comparator capture inside a
/// window (cycle end, the second DDR sample) takes one deviate per lane,
/// and a lane whose output window faulted draws the window's winner from
/// its own stream after the window's fourth comparator, before any later
/// draw.
template <typename Lanes>
[[gnu::always_inline]] inline void draw_pool_layer(Lanes& lanes, const AccelEngine& engine,
                                                   std::size_t layer,
                                                   const SegmentOverlay& overlay,
                                                   const std::vector<bool>* throttle,
                                                   std::span<LaneEvents> out) {
    LaneStreams& st = lanes.st;
    const LayerSegment& seg = engine.schedule().segment_for_layer(layer);
    const DspSlice& logic = engine.pool_logic();
    const double sigma = logic.params().op_jitter_sigma;
    const double period = logic.params().clock_period_s;
    const std::size_t opc = seg.ops_per_cycle;
    const std::size_t n_ops = seg.total_ops;

    std::uint32_t faulted = 0; // lanes whose `window` faulted
    std::uint32_t window = 0;
    const auto pick_winners = [&] {
        for (; faulted != 0; faulted &= faulted - 1) {
            const auto j = static_cast<std::size_t>(std::countr_zero(faulted));
            Rng rng = st.raw(j);
            const auto winner = static_cast<std::int32_t>(rng.uniform_int(0, 3));
            out[j].replaced.push_back({window, winner});
            st.put_back(j, rng);
        }
    };
    const double* fac = overlay.factors.data();
    for (const CycleWindow& win : overlay.unsafe) {
        for (std::size_t cycle = win.begin; cycle < win.end; ++cycle, fac += 2) {
            const double factor = fac[1];
            if (factor < 0.0 || throttled(throttle, cycle)) continue;
            const double k = logic.path_delay_s() * factor;
            const std::size_t base = (cycle - seg.start_cycle) * opc;
            const std::size_t end = std::min(base + opc, n_ops);
            for (std::size_t g = base; g < end; ++g) {
                const auto w = static_cast<std::uint32_t>(g >> 2);
                if (faulted != 0 && w != window) pick_winners();
                window = w;
                const std::uint32_t leave = leaving_lanes(lanes, k, sigma, period);
                if (leave != 0) {
                    settle(st, leave, logic, factor, 1.0, [&](std::size_t j, FaultKind kind) {
                        if (kind == FaultKind::None) return;
                        faulted |= 1u << j;
                        ++out[j].counts[layer].random;
                    });
                }
                --st.pending;
            }
        }
    }
    pick_winners();
}

/// The whole draw of a block, generic over the lane twin.
template <typename Lanes>
[[gnu::always_inline]] inline void draw_block(Lanes lanes, const AccelEngine& engine,
                                              const OverlayPlan& plan,
                                              const std::vector<bool>* throttle,
                                              std::span<LaneEvents> out) {
    const quant::QNetwork& network = engine.network();
    for (std::size_t i = 0; i < network.layers.size(); ++i) {
        const SegmentOverlay& overlay = plan.layers[i];
        if (overlay.any()) {
            expects(engine.schedule().segment_for_layer(i).total_ops <=
                        std::numeric_limits<std::uint32_t>::max(),
                    "AccelEngine: every op index and divisor of a layer fits 32 bits");
            switch (network.layers[i].kind) {
                case quant::QLayerKind::Conv:
                case quant::QLayerKind::Dense:
                    draw_dsp_layer(lanes, engine, i, overlay, throttle, out);
                    break;
                case quant::QLayerKind::Pool2:
                case quant::QLayerKind::AvgPool2:
                    draw_pool_layer(lanes, engine, i, overlay, throttle, out);
                    break;
            }
        }
        for (std::size_t j = 0; j < lanes.st.n; ++j) out[j].end_layer(i);
    }
}

#if DS_WALK_X86 && defined(__GNUC__)
__attribute__((target("avx2"))) void draw_block_avx2(LaneStreams& st,
                                                     const AccelEngine& engine,
                                                     const OverlayPlan& plan,
                                                     const std::vector<bool>* throttle,
                                                     std::span<LaneEvents> out) {
    draw_block(Avx2Lanes{st}, engine, plan, throttle, out);
}
#endif

void draw_block_portable(LaneStreams& st, const AccelEngine& engine, const OverlayPlan& plan,
                         const std::vector<bool>* throttle, std::span<LaneEvents> out) {
    if (st.n == 1) {
        draw_block(PortableLanes<1>{st}, engine, plan, throttle, out);
    } else {
        draw_block(PortableLanes<kWalkLanes>{st}, engine, plan, throttle, out);
    }
}

// ----------------------------------------------- the apply (per image)
//
// Golden-plus-deltas: a faulted conv/FC layer starts from its fault-free
// accumulators and adds, for each fault event, the integer delta of the
// faulted contribution minus the op's true product to its element's
// entry. Integer sums are exact under reassociation, so the result is
// byte-identical to the per-op evaluation.

/// Adds each conv/FC fault event of layer i to its element's entry of
/// `accs` (op g's element is per_elem.quotient(g)): the faulted
/// contribution minus `true_product_at(g)`. A duplication fault captures
/// the last product issued on the same DSP slice. Slice d owns positions
/// 2d / 2d+1 of every cycle of `mpc` ops, so that predecessor's op index is
/// pure arithmetic: the pair partner earlier in the same cycle (odd
/// positions), or the slice's last position in the previous cycle (even
/// positions). A per-op walk records the true product of every op
/// unconditionally, so the predecessor's *true* product is exactly what
/// the stale output register holds; no pipeline array needs to be carried
/// or seeded. First-cycle slices with no predecessor hold the reset
/// value 0.
template <typename TrueProduct>
void apply_dsp_events(const LaneEvents& lane, std::size_t i, std::size_t mpc,
                      const DivideU32& per_elem, std::vector<fx::Acc>& accs,
                      const TrueProduct& true_product_at) {
    const DivideU32 per_cycle(static_cast<std::uint32_t>(mpc));
    const auto stale_product_at = [&](std::size_t g) -> fx::Acc {
        const std::size_t pos = per_cycle.remainder(static_cast<std::uint32_t>(g));
        if (pos & 1) return true_product_at(g - 1);
        if (g < mpc) return 0;
        const std::size_t last_pos = pos + 1 < mpc ? pos + 1 : pos;
        return true_product_at(g - pos + last_pos - mpc);
    };
    for (const std::uint32_t g : lane.duplicated_in(i)) {
        accs[per_elem.quotient(g)] += stale_product_at(g) - true_product_at(g);
    }
    for (const Replacement& e : lane.replaced_in(i)) {
        accs[per_elem.quotient(e.index)] += e.value - true_product_at(e.index);
    }
}

/// Conv events on `accs`, the layer's fault-free accumulators on `input`
/// (one per output element, bias folded). Op g = pixel * opp + tap, with
/// pixel = oc * plane + r * out_w + c and tap = (ic * k + kr) * k + kc,
/// multiplies input element (ic * in_h + r + kr) * in_w + c + kc, which
/// splits into a per-pixel offset r * in_w + c plus a per-tap offset
/// (ic * in_h + kr) * in_w + kc, by weight element oc * opp + tap.
/// Reciprocals (DivideU32) map ops to elements, not a division per fault.
void apply_conv(const QTensor& input, const quant::QLayer& layer, const LayerSegment& seg,
                const LaneEvents& lane, std::size_t i, std::vector<fx::Acc>& accs) {
    const QTensor& w = layer.weight;
    const std::size_t in_c = input.shape().dim(0);
    const std::size_t in_h = input.shape().dim(1);
    const std::size_t in_w = input.shape().dim(2);
    const std::size_t k = w.shape().dim(2);
    const std::size_t out_h = in_h - k + 1;
    const std::size_t out_w = in_w - k + 1;
    const std::size_t plane = out_h * out_w;
    const std::size_t opp = in_c * k * k; // ops per output element

    thread_local std::vector<std::size_t> pixel_offset;
    thread_local std::vector<std::size_t> tap_offset;
    pixel_offset.resize(plane);
    for (std::size_t r = 0; r < out_h; ++r) {
        for (std::size_t c = 0; c < out_w; ++c) pixel_offset[r * out_w + c] = r * in_w + c;
    }
    tap_offset.resize(opp);
    for (std::size_t ic = 0; ic < in_c; ++ic) {
        for (std::size_t kr = 0; kr < k; ++kr) {
            for (std::size_t kc = 0; kc < k; ++kc) {
                tap_offset[(ic * k + kr) * k + kc] = (ic * in_h + kr) * in_w + kc;
            }
        }
    }
    const Q3_4* in_data = input.data();
    const Q3_4* w_data = w.data();
    const DivideU32 per_pixel(static_cast<std::uint32_t>(opp));
    const DivideU32 per_channel(static_cast<std::uint32_t>(plane));
    const auto true_product_at = [&](std::size_t g) {
        const std::uint32_t pixel = per_pixel.quotient(static_cast<std::uint32_t>(g));
        const std::size_t tap = g - std::size_t{pixel} * opp;
        const std::uint32_t oc = per_channel.quotient(pixel);
        return static_cast<fx::Acc>(
                   in_data[pixel_offset[pixel - std::size_t{oc} * plane] + tap_offset[tap]]
                       .raw()) *
               w_data[oc * opp + tap].raw();
    };
    apply_dsp_events(lane, i, seg.ops_per_cycle, per_pixel, accs, true_product_at);
}

/// FC counterpart of apply_conv: op g multiplies input g % in_n by weight g.
void apply_fc(const QTensor& input, const quant::QLayer& layer, const LayerSegment& seg,
              const LaneEvents& lane, std::size_t i, std::vector<fx::Acc>& accs) {
    const std::size_t in_n = layer.weight.shape().dim(1);
    const Q3_4* in_data = input.data();
    const Q3_4* w_data = layer.weight.data();
    const DivideU32 per_output(static_cast<std::uint32_t>(in_n));
    const auto true_product_at = [&](std::size_t g) {
        return static_cast<fx::Acc>(
                   in_data[per_output.remainder(static_cast<std::uint32_t>(g))].raw()) *
               w_data[g].raw();
    };
    apply_dsp_events(lane, i, seg.ops_per_cycle, per_output, accs, true_product_at);
}

/// Pool events on `out`, the layer's fault-free output on `input`: each
/// faulted window takes its winning element (comparator/adder
/// mis-operated: an arbitrary window element, possibly the right one).
void apply_pool(const QTensor& input, std::span<const Replacement> winners, QTensor& out) {
    const std::size_t oh = out.shape().dim(1);
    const std::size_t ow = out.shape().dim(2);
    for (const Replacement& e : winners) {
        const std::size_t c = e.index / (oh * ow);
        const std::size_t r = e.index / ow % oh;
        const std::size_t wdx = e.index % ow;
        out.at_unchecked(e.index) = input.at(c, 2 * r + static_cast<std::size_t>(e.value >> 1),
                                             2 * wdx + static_cast<std::size_t>(e.value & 1));
    }
}

/// Layer i of an image with fault events: from `golden_accs` (or, when
/// null, one im2col/GEMM pass on `input`) for conv/FC, from `golden_out`
/// (or golden pooling of `input`) for pools. A dense layer consumes a
/// rank-3 input as is: the implicit flatten is a shape change, never a
/// data change.
QTensor apply_layer(const AccelEngine& engine, std::size_t i, const QTensor& input,
                    const LaneEvents& lane, const std::vector<fx::Acc>* golden_accs,
                    const QTensor* golden_out) {
    const quant::QLayer& layer = engine.network().layers[i];
    const LayerSegment& seg = engine.schedule().segment_for_layer(i);
    thread_local std::vector<fx::Acc> accs;
    switch (layer.kind) {
        case quant::QLayerKind::Conv: {
            if (golden_accs != nullptr) accs.assign(golden_accs->begin(), golden_accs->end());
            else quant::gemm::conv2d_accs(input, layer.weight, layer.bias, accs);
            apply_conv(input, layer, seg, lane, i, accs);
            const std::size_t k = layer.weight.shape().dim(2);
            QTensor out(Shape{layer.weight.shape().dim(0), input.shape().dim(1) - k + 1,
                              input.shape().dim(2) - k + 1});
            quant::gemm::write_back(accs.data(), out.size(), layer.activation, out);
            return out;
        }
        case quant::QLayerKind::Dense: {
            if (golden_accs != nullptr) accs.assign(golden_accs->begin(), golden_accs->end());
            else quant::gemm::dense_accs(input, layer.weight, layer.bias, accs);
            apply_fc(input, layer, seg, lane, i, accs);
            QTensor out(Shape{layer.weight.shape().dim(0)});
            quant::gemm::write_back(accs.data(), out.size(), layer.activation, out);
            return out;
        }
        case quant::QLayerKind::Pool2:
        case quant::QLayerKind::AvgPool2: {
            QTensor out = golden_out != nullptr ? *golden_out
                          : layer.kind == quant::QLayerKind::AvgPool2
                              ? quant::qavgpool2(input)
                              : quant::qmaxpool2(input);
            apply_pool(input, lane.replaced_in(i), out);
            return out;
        }
    }
    throw ContractError("AccelEngine: unknown layer kind");
}

/// One image's inference from its golden pass and its drawn events.
/// While `diverged` is false the activation entering layer i is byte-equal
/// to the golden one (the image for i == 0): safe layers are skipped
/// outright, and a windowed layer that drew no fault keeps its golden
/// activation. The first fault flips `diverged`; from there every layer
/// recomputes from the perturbed activation.
RunResult apply_events(const AccelEngine& engine, const GoldenPass& golden,
                       const OverlayPlan& plan, const LaneEvents& lane,
                       std::uint64_t& ops_executed) {
    const quant::QNetwork& network = engine.network();
    const std::size_t n_layers = network.layers.size();
    RunResult result;
    result.faults_by_layer = lane.counts;
    bool diverged = false;
    QTensor x; // the perturbed activation, valid once diverged
    for (std::size_t i = 0; i < n_layers; ++i) {
        if (!diverged && !plan.layers[i].any()) {
            ++result.golden_layers_reused;
        } else {
            ops_executed += engine.schedule().segment_for_layer(i).total_ops;
            if (diverged || lane.counts[i].total() != 0) {
                const QTensor& in = diverged ? x
                                    : i == 0 ? *golden.image
                                             : (*golden.layers)[i - 1];
                x = apply_layer(engine, i, in, lane, diverged ? nullptr : &(*golden.accs)[i],
                                diverged ? nullptr : &(*golden.layers)[i]);
                diverged = true;
            }
        }
        result.faults_total += lane.counts[i];
    }
    result.logits = diverged ? std::move(x) : golden.layers->back();
    result.predicted = argmax(result.logits);
    return result;
}

} // namespace

AccelEngine::AccelEngine(quant::QNetwork network, const AccelConfig& config,
                         std::uint64_t variation_seed)
    : network_(std::move(network)),
      config_(config),
      schedule_(build_schedule(network_, config)),
      pool_logic_(make_pool_slice(config, variation_seed)) {
    Rng variation_rng(variation_seed);
    conv_dsps_.reserve(config.conv_dsp_count);
    for (std::size_t i = 0; i < config.conv_dsp_count; ++i) {
        conv_dsps_.emplace_back(static_cast<std::uint32_t>(i), config.dsp_timing,
                                variation_rng);
    }
    fc_dsps_.reserve(config.fc_dsp_count);
    for (std::size_t i = 0; i < config.fc_dsp_count; ++i) {
        fc_dsps_.emplace_back(static_cast<std::uint32_t>(1000 + i), config.fc_timing,
                              variation_rng);
    }

    conv_safe_v_ = 0.0;
    for (const DspSlice& d : conv_dsps_) {
        conv_safe_v_ = std::max(conv_safe_v_, d.safe_voltage(delay_));
    }
    fc_safe_v_ = 0.0;
    for (const DspSlice& d : fc_dsps_) {
        fc_safe_v_ = std::max(fc_safe_v_, d.safe_voltage(delay_));
    }
    pool_safe_v_ = pool_logic_.safe_voltage(delay_);
}

OverlayPlan AccelEngine::plan_overlay(const VoltageTrace* voltage) const {
    if (voltage == nullptr) {
        OverlayPlan plan;
        plan.layers.resize(network_.layers.size());
        return plan;
    }
    // Samples past the trace's end are nominal.
    const VoltageTrace& v = *voltage;
    const auto sample = [&](std::size_t idx) { return idx < v.size() ? v[idx] : delay_.vdd; };
    OverlayPlanner planner(*this);
    for (std::size_t cycle = 0; cycle < schedule_.total_cycles; ++cycle) {
        planner.add_cycle(sample(cycle * 2), sample(cycle * 2 + 1));
    }
    return planner.finish();
}

std::vector<RunResult> AccelEngine::run_block(std::span<const GoldenPass> images,
                                              std::span<Rng> fault_rngs,
                                              const OverlayPlan& plan,
                                              const std::vector<bool>* throttle) const {
    const std::size_t n = images.size();
    const std::size_t n_layers = network_.layers.size();
    expects(n >= 1 && n <= kWalkLanes, "AccelEngine::run_block: 1 to kWalkLanes images");
    expects(fault_rngs.size() == n, "AccelEngine::run_block: one fault stream per image");
    for (const Rng& rng : fault_rngs) {
        expects(rng.stream().pending == fault_rngs[0].stream().pending,
                "AccelEngine::run_block: every fault stream holds the same number of "
                "pending deviates");
    }
    for (const GoldenPass& golden : images) {
        expects(golden.image->shape() == network_.input_shape,
                "AccelEngine::run_block: input shape");
        expects(golden.layers->size() == n_layers,
                "AccelEngine::run_block: one golden activation per layer");
        expects(golden.accs->size() == n_layers,
                "AccelEngine::run_block: one accumulator array per layer");
        for (std::size_t i = 0; i < n_layers; ++i) {
            const quant::QLayerKind kind = network_.layers[i].kind;
            if (kind == quant::QLayerKind::Conv || kind == quant::QLayerKind::Dense) {
                expects((*golden.accs)[i].size() == (*golden.layers)[i].size(),
                        "AccelEngine::run_block: one golden accumulator per "
                        "Conv/Dense output");
            }
        }
    }
    expects(plan.layers.size() == n_layers,
            "AccelEngine::run_block: one overlay plan entry per network layer");

    // The draw: every image's fault events, its stream stepped in its lane.
    thread_local std::array<LaneEvents, kWalkLanes> lanes;
    const std::span<LaneEvents> events(lanes.data(), n);
    for (LaneEvents& lane : events) lane.reset(n_layers);
    if (plan.any_unsafe()) {
        LaneStreams streams;
        streams.load(fault_rngs);
#if DS_WALK_X86 && defined(__GNUC__)
        if (n > 1 && simd::active()) {
            draw_block_avx2(streams, *this, plan, throttle, events);
        } else {
            draw_block_portable(streams, *this, plan, throttle, events);
        }
#else
        draw_block_portable(streams, *this, plan, throttle, events);
#endif
        streams.store(fault_rngs);
    }

    // The apply: each image on its own golden pass.
    std::vector<RunResult> results;
    results.reserve(n);
    std::uint64_t ops_executed = 0;
    FaultCounts faults;
    for (std::size_t j = 0; j < n; ++j) {
        results.push_back(apply_events(*this, images[j], plan, events[j], ops_executed));
        faults += results.back().faults_total;
    }
    count_block(schedule_, plan, n, ops_executed, faults);
    return results;
}

} // namespace deepstrike::accel
