#include "quant/gemm.hpp"

#include <algorithm>
#include <array>
#include <cassert>
#include <cstring>
#include <type_traits>
#include <utility>

#include "quant/kernels.hpp"
#include "util/error.hpp"
#include "util/metrics.hpp"
#include "util/simd.hpp"

#if defined(__x86_64__) || defined(__i386__)
#include <immintrin.h>
#define DS_GEMM_X86 1
#else
#define DS_GEMM_X86 0
#endif

namespace deepstrike::quant::gemm {

using fx::Q3_4;

// The zero-copy reinterpret below is what lets the GEMM consume QTensor
// storage directly: Q3_4 is a standard-layout wrapper around one int16_t,
// so a Q3_4* is pointer-interconvertible with an int16_t* to its raw word.
static_assert(sizeof(Q3_4) == sizeof(std::int16_t), "Q3_4 packs one int16");
static_assert(std::is_standard_layout_v<Q3_4>, "Q3_4 is standard layout");

namespace {

const std::int16_t* raw(const QTensor& t) {
    return reinterpret_cast<const std::int16_t*>(t.data());
}

std::int16_t* raw(QTensor& t) { return reinterpret_cast<std::int16_t*>(t.data()); }

/// Elements of slack past the padded input copy and the patch matrix:
/// a block-copied im2col span reads and writes at most this many elements
/// past its k.
constexpr std::size_t kSpanSlack = 8;

/// Pixels per tile of the transposing conv epilogue (one AVX2 register of
/// int32 lanes).
constexpr std::size_t kTile = 8;

/// Per-thread scratch for the padded input copy, im2col patches, packed
/// conv weights and the int32 GEMM output; reused across calls so the hot
/// path does not allocate per layer.
struct Workspace {
    std::vector<std::int16_t> input;
    std::vector<std::int16_t> patches;
    std::vector<std::int16_t> wpack;
    std::vector<std::int32_t> c32;
};

Workspace& workspace() {
    thread_local Workspace ws;
    return ws;
}

void count_gemm(std::size_t m, std::size_t n, std::size_t k) {
    if (!metrics::enabled()) return;
    // The most frequent metric update (every layer call), so the handles
    // are looked up once, on the first call with metrics on.
    static metrics::Counter& calls = metrics::counter(
        "quant.gemm.calls", "calls", "im2col/GEMM layer evaluations dispatched");
    static metrics::Counter& macs = metrics::counter(
        "quant.gemm.macs", "ops", "int16 multiply-accumulates executed by GEMM kernels");
    calls.add();
    macs.add(static_cast<std::uint64_t>(m) * n * k);
}

// ------------------------------------------------------------ microkernels

/// Portable scalar GEMM microkernel. Plain int32 dot products — the exact
/// sums the AVX2 kernel reproduces lane-wise, so both are byte-identical
/// by the reassociation argument in the header.
void gemm_nt_s32_scalar(const std::int16_t* a, std::size_t lda,
                        const std::int16_t* b, std::size_t ldb, std::int32_t* c,
                        std::size_t ldc, std::size_t m, std::size_t n,
                        std::size_t k) {
    // j outer / i inner: B rows (patches / weight rows) stream once; the
    // four A rows in flight share each B row read.
    for (std::size_t j = 0; j < n; ++j) {
        const std::int16_t* bj = b + j * ldb;
        std::size_t i = 0;
        for (; i + 4 <= m; i += 4) {
            const std::int16_t* a0 = a + i * lda;
            const std::int16_t* a1 = a0 + lda;
            const std::int16_t* a2 = a1 + lda;
            const std::int16_t* a3 = a2 + lda;
            std::int32_t s0 = 0;
            std::int32_t s1 = 0;
            std::int32_t s2 = 0;
            std::int32_t s3 = 0;
            for (std::size_t t = 0; t < k; ++t) {
                const std::int32_t bt = bj[t];
                s0 += static_cast<std::int32_t>(a0[t]) * bt;
                s1 += static_cast<std::int32_t>(a1[t]) * bt;
                s2 += static_cast<std::int32_t>(a2[t]) * bt;
                s3 += static_cast<std::int32_t>(a3[t]) * bt;
            }
            c[(i + 0) * ldc + j] = s0;
            c[(i + 1) * ldc + j] = s1;
            c[(i + 2) * ldc + j] = s2;
            c[(i + 3) * ldc + j] = s3;
        }
        for (; i < m; ++i) {
            const std::int16_t* ai = a + i * lda;
            std::int32_t s = 0;
            for (std::size_t t = 0; t < k; ++t) {
                s += static_cast<std::int32_t>(ai[t]) * bj[t];
            }
            c[i * ldc + j] = s;
        }
    }
}

#if DS_GEMM_X86

/// Sums the 8 int32 lanes of an AVX2 register.
__attribute__((target("avx2"))) inline std::int32_t hsum_epi32(__m256i v) {
    const __m128i lo = _mm256_castsi256_si128(v);
    const __m128i hi = _mm256_extracti128_si256(v, 1);
    __m128i s = _mm_add_epi32(lo, hi);
    s = _mm_add_epi32(s, _mm_shuffle_epi32(s, _MM_SHUFFLE(1, 0, 3, 2)));
    s = _mm_add_epi32(s, _mm_shuffle_epi32(s, _MM_SHUFFLE(2, 3, 0, 1)));
    return _mm_cvtsi128_si32(s);
}

__attribute__((target("avx2"))) inline __m256i load256(const void* p) {
    return _mm256_loadu_si256(static_cast<const __m256i*>(p));
}

/// a + madd(x, y): one pmaddwd step of a dot-product chain.
__attribute__((target("avx2"))) inline __m256i madd_add(__m256i acc, const std::int16_t* x,
                                                        const std::int16_t* y) {
    return _mm256_add_epi32(acc, _mm256_madd_epi16(load256(x), load256(y)));
}

/// One A row against four consecutive B rows (b, b + ldb, ...): each
/// 16-element A load feeds the four rows' accumulators, one chain per row,
/// and one horizontal-add tree reduces all four. Writes c[0..3].
__attribute__((target("avx2"))) inline void row_dot4_avx2(
    const std::int16_t* ai, const std::int16_t* b, std::size_t ldb, std::size_t k,
    std::size_t k16, std::int32_t* c) {
    const std::int16_t* b0 = b;
    const std::int16_t* b1 = b0 + ldb;
    const std::int16_t* b2 = b1 + ldb;
    const std::int16_t* b3 = b2 + ldb;
    __m256i v0 = _mm256_setzero_si256();
    __m256i v1 = _mm256_setzero_si256();
    __m256i v2 = _mm256_setzero_si256();
    __m256i v3 = _mm256_setzero_si256();
    for (std::size_t t = 0; t < k16; t += 16) {
        const __m256i av = load256(ai + t);
        v0 = _mm256_add_epi32(v0, _mm256_madd_epi16(av, load256(b0 + t)));
        v1 = _mm256_add_epi32(v1, _mm256_madd_epi16(av, load256(b1 + t)));
        v2 = _mm256_add_epi32(v2, _mm256_madd_epi16(av, load256(b2 + t)));
        v3 = _mm256_add_epi32(v3, _mm256_madd_epi16(av, load256(b3 + t)));
    }
    // hadd pairs lanes within each 128-bit half: after two rounds lane r of
    // each half holds half of row r's sum.
    const __m256i h = _mm256_hadd_epi32(_mm256_hadd_epi32(v0, v1),
                                        _mm256_hadd_epi32(v2, v3));
    alignas(16) std::int32_t s[4];
    _mm_store_si128(reinterpret_cast<__m128i*>(s),
                    _mm_add_epi32(_mm256_castsi256_si128(h),
                                  _mm256_extracti128_si256(h, 1)));
    for (std::size_t t = k16; t < k; ++t) {
        const std::int32_t at = ai[t];
        s[0] += at * b0[t];
        s[1] += at * b1[t];
        s[2] += at * b2[t];
        s[3] += at * b3[t];
    }
    std::memcpy(c, s, sizeof(s));
}

/// One A row against one B row: four independent accumulator chains hide
/// the madd+add latency (exactness is order-independent — the lane sums
/// reassociate to the same integer).
__attribute__((target("avx2"))) inline std::int32_t row_dot1_avx2(const std::int16_t* ai,
                                                                  const std::int16_t* bj,
                                                                  std::size_t k,
                                                                  std::size_t k16) {
    const std::size_t k64 = k & ~static_cast<std::size_t>(63);
    __m256i v0 = _mm256_setzero_si256();
    __m256i v1 = _mm256_setzero_si256();
    __m256i v2 = _mm256_setzero_si256();
    __m256i v3 = _mm256_setzero_si256();
    for (std::size_t t = 0; t < k64; t += 64) {
        v0 = madd_add(v0, ai + t, bj + t);
        v1 = madd_add(v1, ai + t + 16, bj + t + 16);
        v2 = madd_add(v2, ai + t + 32, bj + t + 32);
        v3 = madd_add(v3, ai + t + 48, bj + t + 48);
    }
    __m256i v = _mm256_add_epi32(_mm256_add_epi32(v0, v1), _mm256_add_epi32(v2, v3));
    for (std::size_t t = k64; t < k16; t += 16) v = madd_add(v, ai + t, bj + t);
    std::int32_t s = hsum_epi32(v);
    for (std::size_t t = k16; t < k; ++t) s += static_cast<std::int32_t>(ai[t]) * bj[t];
    return s;
}

/// AVX2 microkernel: 16-wide int16 pmaddwd dot products. Each A row (the
/// one input row of a dense layer) takes B rows four at a time, sharing
/// each A load, then one at a time. Each _mm256_madd_epi16 pairs adjacent
/// products (|pair| <= 2^15); a lane accumulates at most k/16 pairs, so
/// lane magnitudes stay below k * 2^11 <= 2^27 for k <= 65536 — no int32
/// lane overflow, and the final horizontal + tail sum reassociates exactly
/// to the scalar result.
__attribute__((target("avx2"))) void gemm_nt_s32_avx2(
    const std::int16_t* a, std::size_t lda, const std::int16_t* b,
    std::size_t ldb, std::int32_t* c, std::size_t ldc, std::size_t m,
    std::size_t n, std::size_t k) {
    const std::size_t k16 = k & ~static_cast<std::size_t>(15);
    for (std::size_t i = 0; i < m; ++i) {
        const std::int16_t* ai = a + i * lda;
        std::int32_t* ci = c + i * ldc;
        std::size_t j = 0;
        for (; j + 4 <= n; j += 4) row_dot4_avx2(ai, b + j * ldb, ldb, k, k16, ci + j);
        for (; j < n; ++j) ci[j] = row_dot1_avx2(ai, b + j * ldb, k, k16);
    }
}

/// In-register transpose of an 8x8 int32 tile: r[i] lane j becomes r[j]
/// lane i.
__attribute__((target("avx2"))) inline void transpose8x8(__m256i r[8]) {
    const __m256i t0 = _mm256_unpacklo_epi32(r[0], r[1]);
    const __m256i t1 = _mm256_unpackhi_epi32(r[0], r[1]);
    const __m256i t2 = _mm256_unpacklo_epi32(r[2], r[3]);
    const __m256i t3 = _mm256_unpackhi_epi32(r[2], r[3]);
    const __m256i t4 = _mm256_unpacklo_epi32(r[4], r[5]);
    const __m256i t5 = _mm256_unpackhi_epi32(r[4], r[5]);
    const __m256i t6 = _mm256_unpacklo_epi32(r[6], r[7]);
    const __m256i t7 = _mm256_unpackhi_epi32(r[6], r[7]);
    const __m256i u0 = _mm256_unpacklo_epi64(t0, t2);
    const __m256i u1 = _mm256_unpackhi_epi64(t0, t2);
    const __m256i u2 = _mm256_unpacklo_epi64(t1, t3);
    const __m256i u3 = _mm256_unpackhi_epi64(t1, t3);
    const __m256i u4 = _mm256_unpacklo_epi64(t4, t6);
    const __m256i u5 = _mm256_unpackhi_epi64(t4, t6);
    const __m256i u6 = _mm256_unpacklo_epi64(t5, t7);
    const __m256i u7 = _mm256_unpackhi_epi64(t5, t7);
    r[0] = _mm256_permute2x128_si256(u0, u4, 0x20);
    r[1] = _mm256_permute2x128_si256(u1, u5, 0x20);
    r[2] = _mm256_permute2x128_si256(u2, u6, 0x20);
    r[3] = _mm256_permute2x128_si256(u3, u7, 0x20);
    r[4] = _mm256_permute2x128_si256(u0, u4, 0x31);
    r[5] = _mm256_permute2x128_si256(u1, u5, 0x31);
    r[6] = _mm256_permute2x128_si256(u2, u6, 0x31);
    r[7] = _mm256_permute2x128_si256(u3, u7, 0x31);
}

/// Broadcasts the input pair (p[0], p[1]) to all eight int32 lanes.
__attribute__((target("avx2"))) inline __m256i broadcast_pair(const std::int16_t* p) {
    std::int32_t pair = 0; // unaligned 2x int16 load, UBSan-clean
    std::memcpy(&pair, p, sizeof(pair));
    return _mm256_set1_epi32(pair);
}

/// R consecutive patch rows against B consecutive 8-channel blocks of the
/// conv microkernel below: each broadcast input pair feeds B weight
/// vectors and each weight vector R rows, R * B independent accumulators.
template <std::size_t R, std::size_t B>
__attribute__((target("avx2"))) inline void conv_tile_avx2(
    const std::int16_t* prow, std::size_t row_stride, const std::int16_t* wp,
    std::int32_t* crow, std::size_t ldc, std::size_t n_pairs) {
    __m256i acc[R][B];
    for (std::size_t i = 0; i < R; ++i) {
        for (std::size_t b = 0; b < B; ++b) acc[i][b] = _mm256_setzero_si256();
    }
    for (std::size_t t = 0; t < n_pairs; ++t) {
        __m256i w[B];
        for (std::size_t b = 0; b < B; ++b) w[b] = load256(wp + (b * n_pairs + t) * 16);
        for (std::size_t i = 0; i < R; ++i) {
            const __m256i x = broadcast_pair(prow + i * row_stride + 2 * t);
            for (std::size_t b = 0; b < B; ++b) {
                acc[i][b] = _mm256_add_epi32(acc[i][b], _mm256_madd_epi16(x, w[b]));
            }
        }
    }
    for (std::size_t i = 0; i < R; ++i) {
        for (std::size_t b = 0; b < B; ++b) {
            _mm256_storeu_si256(reinterpret_cast<__m256i*>(crow + i * ldc + b * 8),
                                acc[i][b]);
        }
    }
}

/// R consecutive patch rows against every channel block: blocks go two at
/// a time, then one.
template <std::size_t R>
__attribute__((target("avx2"))) inline void conv_rows_avx2(
    const std::int16_t* prow, std::size_t row_stride, const std::int16_t* wpack,
    std::int32_t* crow, std::size_t ldc, std::size_t n_blocks, std::size_t n_pairs) {
    std::size_t blk = 0;
    for (; blk + 2 <= n_blocks; blk += 2) {
        conv_tile_avx2<R, 2>(prow, row_stride, wpack + blk * n_pairs * 16, crow + blk * 8,
                             ldc, n_pairs);
    }
    if (blk < n_blocks) {
        conv_tile_avx2<R, 1>(prow, row_stride, wpack + blk * n_pairs * 16, crow + blk * 8,
                             ldc, n_pairs);
    }
}

/// Conv microkernel over packed weights: for each patch row, accumulate
/// all output channels vertically in int32 lanes. The weights are packed
/// as interleaved channel pairs — wpack lane l of pair t holds
/// (w[blk*8+l, 2t], w[blk*8+l, 2t+1]) — so one pmaddwd against a
/// broadcast input pair advances 8 output channels by two K-steps. No
/// horizontal sums and no scalar K-tail (K is zero-padded to even), which
/// is what the hsum-per-element NT kernel above cannot avoid at conv
/// shapes (small m, k far from a register multiple). Rows go four at a
/// time and channel blocks two at a time, so each weight load serves four
/// accumulators and each input broadcast two. Lane l's accumulator is the
/// plain ascending-pair integer sum, so the result is exactly the scalar
/// dot product.
__attribute__((target("avx2"))) void conv_cols_avx2(
    const std::int16_t* patches, std::size_t row_stride,
    const std::int16_t* wpack, std::int32_t* c, std::size_t ldc,
    std::size_t rows, std::size_t n_blocks, std::size_t n_pairs) {
    std::size_t r = 0;
    for (; r + 4 <= rows; r += 4) {
        conv_rows_avx2<4>(patches + r * row_stride, row_stride, wpack, c + r * ldc, ldc,
                          n_blocks, n_pairs);
    }
    for (; r < rows; ++r) {
        conv_rows_avx2<1>(patches + r * row_stride, row_stride, wpack, c + r * ldc, ldc,
                          n_blocks, n_pairs);
    }
}

/// Interleaves conv weight rows w[oc, 0..K) for conv_cols_avx2: lane l of
/// pair t in block blk holds (w[blk*8+l, 2t], w[blk*8+l, 2t+1]),
/// zero-padded in both the channel and K directions, n_pairs pairs per
/// block. Eight whole pairs of eight channels are one 8x8 transpose of
/// int32 pairs; the pairs after the last whole group of eight are copied
/// one word at a time.
__attribute__((target("avx2"))) void pack_conv_weights_avx2(const std::int16_t* w,
                                                            std::size_t out_c,
                                                            std::size_t K,
                                                            std::size_t n_pairs,
                                                            std::int16_t* wpack) {
    const std::size_t whole_pairs = K / 2; // pairs with both words in the row
    for (std::size_t blk = 0; blk * 8 < out_c; ++blk) {
        const std::size_t chans = std::min<std::size_t>(8, out_c - blk * 8);
        const std::int16_t* rows = w + blk * 8 * K;
        std::int16_t* dst = wpack + blk * n_pairs * 16;
        std::size_t t = 0;
        for (; t + 8 <= whole_pairs; t += 8) {
            __m256i r[8];
            for (std::size_t l = 0; l < 8; ++l) {
                r[l] = l < chans ? load256(rows + l * K + 2 * t) : _mm256_setzero_si256();
            }
            transpose8x8(r);
            for (std::size_t j = 0; j < 8; ++j) {
                _mm256_storeu_si256(reinterpret_cast<__m256i*>(dst + (t + j) * 16), r[j]);
            }
        }
        for (; t < n_pairs; ++t) {
            for (std::size_t l = 0; l < 8; ++l) {
                const bool live = l < chans;
                dst[t * 16 + 2 * l] = live ? rows[l * K + 2 * t] : std::int16_t{0};
                dst[t * 16 + 2 * l + 1] =
                    live && 2 * t + 1 < K ? rows[l * K + 2 * t + 1] : std::int16_t{0};
            }
        }
    }
}

// ------------------------------------------------------------ epilogue

/// The tanh LUT widened to int32 entries, indexed by raw code + 128, for
/// the epilogue's 8-lane gather.
const std::int32_t* tanh_table_s32() {
    static const std::array<std::int32_t, 256> table = [] {
        std::array<std::int32_t, 256> t{};
        const fx::TanhLut& lut = fx::TanhLut::instance();
        for (std::size_t i = 0; i < t.size(); ++i) {
            t[i] = lut(Q3_4::from_raw(static_cast<std::int16_t>(
                           static_cast<std::int32_t>(i) + Q3_4::raw_min)))
                       .raw();
        }
        return t;
    }();
    return table.data();
}

/// The writeback of eight accumulators (bias folded, product units) held
/// in int32 lanes: saturate to the Q3.4 range in accumulator units, round
/// to nearest with ties away from zero, then apply the activation — lane
/// for lane what apply_activation(Q3_4::from_accumulator(acc)) computes
/// (the same saturate-then-round steps, on int32 instead of int64, which
/// is exact because every layer accumulator fits in int32). Returns the
/// eight Q3.4 codes in int32 lanes.
template <Activation A>
__attribute__((target("avx2"))) inline __m256i finish8(__m256i v,
                                                       const std::int32_t* tanh_lut) {
    constexpr int shift = Q3_4::frac_bits;
    const __m256i lo = _mm256_set1_epi32(std::int32_t{Q3_4::raw_min} << shift);
    const __m256i hi = _mm256_set1_epi32(std::int32_t{Q3_4::raw_max} << shift);
    v = _mm256_min_epi32(_mm256_max_epi32(v, lo), hi);
    // fx::round_shift on int32 lanes: (v + half + (v >> 31)) >> shift.
    v = _mm256_srai_epi32(
        _mm256_add_epi32(_mm256_add_epi32(v, _mm256_set1_epi32(1 << (shift - 1))),
                         _mm256_srai_epi32(v, 31)),
        shift);
    if constexpr (A == Activation::Tanh) {
        v = _mm256_i32gather_epi32(
            tanh_lut, _mm256_sub_epi32(v, _mm256_set1_epi32(Q3_4::raw_min)), 4);
    } else if constexpr (A == Activation::Relu) {
        v = _mm256_max_epi32(v, _mm256_setzero_si256());
    } else if constexpr (A == Activation::Sign) {
        // qsign: +1.0 for v >= 0, -1.0 otherwise, from the sign mask.
        constexpr std::int32_t one = 1 << shift;
        v = _mm256_sub_epi32(_mm256_set1_epi32(one),
                             _mm256_and_si256(_mm256_srai_epi32(v, 31),
                                              _mm256_set1_epi32(2 * one)));
    }
    return v;
}

/// Stores the low `width` (<= 8) of eight int32 Q3.4 codes as int16.
__attribute__((target("avx2"))) inline void store_codes(std::int16_t* dst, __m256i v,
                                                        std::size_t width) {
    const __m128i packed =
        _mm_packs_epi32(_mm256_castsi256_si128(v), _mm256_extracti128_si256(v, 1));
    if (width == 8) {
        _mm_storeu_si128(reinterpret_cast<__m128i*>(dst), packed);
        return;
    }
    alignas(16) std::int16_t tmp[8];
    _mm_store_si128(reinterpret_cast<__m128i*>(tmp), packed);
    std::memcpy(dst, tmp, width * sizeof(std::int16_t));
}

/// Eight int16 biases widened to int32 and scaled to accumulator units.
__attribute__((target("avx2"))) inline __m256i bias8(const std::int16_t* b) {
    return _mm256_slli_epi32(
        _mm256_cvtepi16_epi32(_mm_loadu_si128(reinterpret_cast<const __m128i*>(b))),
        Q3_4::frac_bits);
}

/// Conv epilogue from the kernel's int32 tile C[pix, oc] (row stride ocp,
/// at least 8 readable rows) straight to the Q3.4 output out[oc * plane +
/// pix]. Per 8-channel block and 8-pixel tile: one in-register transpose
/// turns eight pixel rows of channel lanes into channel rows of pixel
/// lanes, and each valid channel's row gets its bias, finish8 and a store.
/// The last tile ends at the plane's end, overlapping the tile before it
/// when the plane is not a multiple of 8 (the overlapped pixels are
/// written twice with the same codes).
template <Activation A>
__attribute__((target("avx2"))) void conv_epilogue_avx2(const std::int32_t* c32,
                                                        std::size_t ocp,
                                                        const std::int16_t* bias,
                                                        std::size_t out_c,
                                                        std::size_t plane,
                                                        std::int16_t* out) {
    const std::int32_t* lut = tanh_table_s32();
    const std::size_t width = std::min(plane, kTile);
    const std::size_t last = plane - width;
    for (std::size_t blk = 0; blk * 8 < out_c; ++blk) {
        const std::size_t chans = std::min<std::size_t>(8, out_c - blk * 8);
        std::int32_t b[8] = {};
        for (std::size_t j = 0; j < chans; ++j) {
            b[j] = std::int32_t{bias[blk * 8 + j]} << Q3_4::frac_bits;
        }
        for (std::size_t t = 0; t < plane; t += kTile) {
            const std::size_t p0 = std::min(t, last);
            __m256i r[8];
            for (std::size_t i = 0; i < 8; ++i) {
                r[i] = load256(c32 + (p0 + i) * ocp + blk * 8);
            }
            transpose8x8(r);
            for (std::size_t j = 0; j < chans; ++j) {
                const __m256i v = _mm256_add_epi32(r[j], _mm256_set1_epi32(b[j]));
                store_codes(out + (blk * 8 + j) * plane + p0, finish8<A>(v, lut), width);
            }
        }
    }
}

/// Eight dense outputs: out[o] = finish8(c[o] + bias[o] in accumulator
/// units), the low `width` of them stored.
template <Activation A>
__attribute__((target("avx2"))) inline void dense_group8(const std::int32_t* c,
                                                         const std::int16_t* bias,
                                                         const std::int32_t* lut,
                                                         std::int16_t* out,
                                                         std::size_t width) {
    store_codes(out, finish8<A>(_mm256_add_epi32(load256(c), bias8(bias)), lut), width);
}

/// Dense epilogue over the one-image GEMM row c[0..n). Whole groups of
/// eight, then one group ending at n that overlaps the one before it;
/// fewer than eight outputs go through zero-padded copies.
template <Activation A>
__attribute__((target("avx2"))) void dense_epilogue_avx2(const std::int32_t* c,
                                                         const std::int16_t* bias,
                                                         std::size_t n, std::int16_t* out) {
    const std::int32_t* lut = tanh_table_s32();
    if (n < 8) {
        std::int32_t ct[8] = {};
        std::int16_t bt[8] = {};
        std::memcpy(ct, c, n * sizeof(std::int32_t));
        std::memcpy(bt, bias, n * sizeof(std::int16_t));
        dense_group8<A>(ct, bt, lut, out, n);
        return;
    }
    std::size_t i = 0;
    for (; i + 8 <= n; i += 8) dense_group8<A>(c + i, bias + i, lut, out + i, 8);
    if (i < n) dense_group8<A>(c + n - 8, bias + n - 8, lut, out + n - 8, 8);
}

/// Four int64 accumulators saturated to the Q3.4 range in accumulator
/// units (compare and blend; AVX2 has no 64-bit min/max), their low
/// halves returned in the low four int32 lanes.
__attribute__((target("avx2"))) inline __m256i saturate4_s64(const fx::Acc* p) {
    const __m256i lo = _mm256_set1_epi64x(fx::Acc{Q3_4::raw_min} << Q3_4::frac_bits);
    const __m256i hi = _mm256_set1_epi64x(fx::Acc{Q3_4::raw_max} << Q3_4::frac_bits);
    __m256i v = load256(p);
    v = _mm256_blendv_epi8(v, lo, _mm256_cmpgt_epi64(lo, v));
    v = _mm256_blendv_epi8(v, hi, _mm256_cmpgt_epi64(v, hi));
    return _mm256_permutevar8x32_epi32(v, _mm256_setr_epi32(0, 2, 4, 6, 1, 3, 5, 7));
}

/// Eight int64 accumulators written back: saturated in int64, narrowed to
/// int32 lanes and finished like the conv and dense epilogues.
template <Activation A>
__attribute__((target("avx2"))) inline void write_back_group8(const fx::Acc* accs,
                                                              const std::int32_t* lut,
                                                              std::int16_t* out,
                                                              std::size_t width) {
    const __m256i v =
        _mm256_permute2x128_si256(saturate4_s64(accs), saturate4_s64(accs + 4), 0x20);
    store_codes(out, finish8<A>(v, lut), width);
}

/// write_back on AVX2, grouped like dense_epilogue_avx2.
template <Activation A>
__attribute__((target("avx2"))) void write_back_avx2(const fx::Acc* accs, std::size_t n,
                                                     std::int16_t* out) {
    const std::int32_t* lut = tanh_table_s32();
    if (n < 8) {
        fx::Acc t[8] = {};
        std::memcpy(t, accs, n * sizeof(fx::Acc));
        write_back_group8<A>(t, lut, out, n);
        return;
    }
    std::size_t i = 0;
    for (; i + 8 <= n; i += 8) write_back_group8<A>(accs + i, lut, out + i, 8);
    if (i < n) write_back_group8<A>(accs + n - 8, lut, out + n - 8, 8);
}

#endif // DS_GEMM_X86

/// out[p] = activate(Q3_4::from_accumulator(accs[p])) for one activation
/// fixed at compile time: the portable twin of the AVX2 epilogues.
template <typename Activate>
void write_back_as(const fx::Acc* accs, std::size_t n, Q3_4* out,
                   const Activate& activate) {
    for (std::size_t p = 0; p < n; ++p) {
        out[p] = activate(Q3_4::from_accumulator(accs[p]));
    }
}

/// Calls f(std::integral_constant<Activation, activation>{}): one switch
/// per layer picks the epilogue instantiation.
template <typename F>
void with_activation(Activation activation, const F& f) {
    switch (activation) {
        case Activation::None:
            f(std::integral_constant<Activation, Activation::None>{});
            return;
        case Activation::Tanh:
            f(std::integral_constant<Activation, Activation::Tanh>{});
            return;
        case Activation::Relu:
            f(std::integral_constant<Activation, Activation::Relu>{});
            return;
        case Activation::Sign:
            f(std::integral_constant<Activation, Activation::Sign>{});
            return;
    }
}

} // namespace

void gemm_nt_s32(const std::int16_t* a, std::size_t lda, const std::int16_t* b,
                 std::size_t ldb, std::int32_t* c, std::size_t ldc, std::size_t m,
                 std::size_t n, std::size_t k) {
#if DS_GEMM_X86
    if (simd::active()) {
        gemm_nt_s32_avx2(a, lda, b, ldb, c, ldc, m, n, k);
        return;
    }
#endif
    gemm_nt_s32_scalar(a, lda, b, ldb, c, ldc, m, n, k);
}

namespace {

struct ConvGeom {
    std::size_t in_c, in_h, in_w, out_c, k, kk, out_h, out_w, plane, K;
};

/// Patch-row length: K rounded up to even.
std::size_t padded_k(std::size_t K) { return (K + 1) & ~static_cast<std::size_t>(1); }

ConvGeom conv_geometry(const QTensor& input, const QTensor& weight,
                       const QTensor& bias) {
    expects(input.shape().rank() == 3, "gemm::conv2d: input rank 3");
    expects(weight.shape().rank() == 4, "gemm::conv2d: weight rank 4");
    ConvGeom g;
    g.in_c = input.shape().dim(0);
    g.in_h = input.shape().dim(1);
    g.in_w = input.shape().dim(2);
    g.out_c = weight.shape().dim(0);
    g.k = weight.shape().dim(2);
    g.kk = g.k * g.k;
    expects(weight.shape().dim(1) == g.in_c, "gemm::conv2d: channel mismatch");
    expects(weight.shape().dim(3) == g.k, "gemm::conv2d: square kernel");
    expects(bias.size() == g.out_c, "gemm::conv2d: bias size");
    expects(g.in_h >= g.k && g.in_w >= g.k,
            "gemm::conv2d: input at least kernel-sized");
    g.out_h = g.in_h - g.k + 1;
    g.out_w = g.in_w - g.k + 1;
    g.plane = g.out_h * g.out_w;
    g.K = g.in_c * g.kk;
    expects(g.K <= 65536, "gemm::conv2d: receptive field fits int32");
    return g;
}

/// Packs one image's patch matrix: row pix holds the receptive field at
/// output pixel pix, K elements in the (ic, kr, kc) order weight rows
/// use, then one zero when K is odd (rows are K2 = K rounded up to even
/// long, the pair granularity of the conv kernel). Each (ic, kr) span is k
/// contiguous input elements. Kw is the span width fixed at compile time
/// (every zoo conv has k = 3 or 5), and each span is then one block move
/// of Move >= k elements: 4 for k = 3, 8 for k = 5, a single register
/// load and store. A span's overhang past its k elements is overwritten
/// by the next span, the row's zero pad or the next row, or lands in the
/// kSpanSlack elements past the last row; its reads past the input stay
/// inside the caller's padded copy. Kw == 0 copies the width g.k read at
/// run time.
template <std::size_t Kw>
void im2col_rows(const std::int16_t* __restrict in, const ConvGeom& g,
                 std::int16_t* __restrict rows) {
    constexpr std::size_t Move = Kw == 3 ? 4 : Kw == 5 ? 8 : Kw;
    static_assert(Move - Kw <= kSpanSlack, "span overhang fits the slack");
    const std::size_t k = Kw != 0 ? Kw : g.k;
    const std::size_t in_c = g.in_c;
    const std::size_t in_w = g.in_w;
    const std::size_t channel = g.in_h * in_w;
    const std::size_t out_w = g.out_w;
    const std::size_t row_stride = padded_k(g.K);
    const bool pad = row_stride != g.K;
    std::int16_t* dst_row = rows;
    for (std::size_t r = 0; r < g.out_h; ++r) {
        for (std::size_t c = 0; c < out_w; ++c) {
            std::int16_t* dst = dst_row;
            const std::int16_t* src_c = in + r * in_w + c;
            for (std::size_t ic = 0; ic < in_c; ++ic, src_c += channel) {
                const std::int16_t* src = src_c;
                for (std::size_t kr = 0; kr < k; ++kr) {
                    if constexpr (Kw != 0) {
                        std::memcpy(dst, src, Move * sizeof(std::int16_t));
                    } else {
                        std::memcpy(dst, src, k * sizeof(std::int16_t));
                    }
                    dst += k;
                    src += in_w;
                }
            }
            if (pad) *dst = 0;
            dst_row += row_stride;
        }
    }
}

/// im2col of one image into ws.patches, read through the workspace's copy
/// of the input padded by kSpanSlack elements.
void im2col(const QTensor& input, const ConvGeom& g, Workspace& ws) {
    ws.input.resize(input.size() + kSpanSlack);
    std::memcpy(ws.input.data(), raw(input), input.size() * sizeof(std::int16_t));
    const std::int16_t* in = ws.input.data();
    std::int16_t* rows = ws.patches.data();
    switch (g.k) {
        case 3: im2col_rows<3>(in, g, rows); break;
        case 5: im2col_rows<5>(in, g, rows); break;
        default: im2col_rows<0>(in, g, rows); break;
    }
}

/// Folds the bias into the GEMM output and transposes it from
/// C[pix, oc] (row stride ocp) into the accumulator layout
/// accs[oc * plane + pix], in one pass over tiles of kTile pixels: a
/// tile's kTile source rows and its out_c destination spans stay in cache
/// while the tile is written.
void fold_bias_transpose(const std::int32_t* c32, std::size_t ocp,
                         const std::int16_t* b_raw, std::size_t out_c,
                         std::size_t plane, fx::Acc* accs) {
    const auto tile = [&](std::size_t p0, auto width) {
        for (std::size_t oc = 0; oc < out_c; ++oc) {
            const fx::Acc bias_acc = static_cast<fx::Acc>(b_raw[oc]) << Q3_4::frac_bits;
            const std::int32_t* src = c32 + p0 * ocp + oc;
            fx::Acc* dst = accs + oc * plane + p0;
            for (std::size_t p = 0; p < width; ++p) dst[p] = bias_acc + src[p * ocp];
        }
    };
    std::size_t p0 = 0;
    for (; p0 + kTile <= plane; p0 += kTile) {
        tile(p0, std::integral_constant<std::size_t, kTile>{});
    }
    if (p0 < plane) tile(p0, plane - p0);
}

/// The conv GEMM shared by both conv entries: im2col of the image, then
/// one GEMM over its `plane` packed patch rows. The int32 results land in
/// ws.c32 as C[pix, oc] with row stride ocp, the returned value — the
/// layout both the packed AVX2 kernel and the scalar NT kernel (A =
/// patches, B = weight rows) produce naturally — followed by kTile rows of
/// slack for the epilogue's tiles.
std::size_t conv_gemm(const QTensor& input, const QTensor& weight, const ConvGeom& g,
                      Workspace& ws) {
    const std::size_t K2 = padded_k(g.K);
    const bool avx2 = DS_GEMM_X86 && simd::active();
    const std::size_t ocp = avx2 ? (g.out_c + 7) & ~static_cast<std::size_t>(7) : g.out_c;

    ws.patches.resize(g.plane * K2 + kSpanSlack);
    ws.c32.resize((g.plane + kTile) * ocp);
    im2col(input, g, ws);
    count_gemm(g.out_c, g.plane, g.K);

#if DS_GEMM_X86
    if (avx2) {
        // Interleave the weights once per call.
        const std::size_t n_blocks = ocp / 8;
        const std::size_t n_pairs = K2 / 2;
        ws.wpack.resize(n_blocks * n_pairs * 16);
        pack_conv_weights_avx2(raw(weight), g.out_c, g.K, n_pairs, ws.wpack.data());
        conv_cols_avx2(ws.patches.data(), K2, ws.wpack.data(), ws.c32.data(), ocp, g.plane,
                       n_blocks, n_pairs);
        return ocp;
    }
#endif
    gemm_nt_s32_scalar(ws.patches.data(), K2, raw(weight), g.K, ws.c32.data(), ocp, g.plane,
                       g.out_c, g.K);
    return ocp;
}

/// Dense geometry checks (the input is read flat); returns {out_n, in_n}.
std::pair<std::size_t, std::size_t> dense_geometry(const QTensor& input,
                                                   const QTensor& weight,
                                                   const QTensor& bias) {
    expects(weight.shape().rank() == 2, "gemm::dense: weight rank 2");
    const std::size_t out_n = weight.shape().dim(0);
    const std::size_t in_n = weight.shape().dim(1);
    expects(bias.size() == out_n, "gemm::dense: bias size");
    expects(in_n <= 65536, "gemm::dense: fan-in fits int32");
    expects(input.size() == in_n, "gemm::dense: input feature mismatch");
    return {out_n, in_n};
}

/// The dense GEMM shared by both dense entries: the input, read in place
/// as one row, against every weight row, the int32 results in
/// ws.c32[0..out_n).
void dense_gemm(const QTensor& input, const QTensor& weight, std::size_t out_n,
                std::size_t in_n, Workspace& ws) {
    ws.c32.resize(out_n);
    gemm_nt_s32(raw(input), in_n, raw(weight), in_n, ws.c32.data(), out_n, 1, out_n,
                in_n);
    count_gemm(1, out_n, in_n);
}

} // namespace

void conv2d_accs(const QTensor& input, const QTensor& weight, const QTensor& bias,
                 std::vector<fx::Acc>& accs) {
    const ConvGeom g = conv_geometry(input, weight, bias);
    Workspace& ws = workspace();
    const std::size_t ocp = conv_gemm(input, weight, g, ws);
    accs.resize(g.out_c * g.plane);
    fold_bias_transpose(ws.c32.data(), ocp, raw(bias), g.out_c, g.plane, accs.data());
}

void dense_accs(const QTensor& input, const QTensor& weight, const QTensor& bias,
                std::vector<fx::Acc>& accs) {
    const auto [out_n, in_n] = dense_geometry(input, weight, bias);
    Workspace& ws = workspace();
    dense_gemm(input, weight, out_n, in_n, ws);
    const std::int16_t* b_raw = raw(bias);
    accs.resize(out_n);
    for (std::size_t o = 0; o < out_n; ++o) {
        accs[o] = (static_cast<fx::Acc>(b_raw[o]) << Q3_4::frac_bits) + ws.c32[o];
    }
}

QTensor conv2d_layer(const QTensor& input, const QTensor& weight, const QTensor& bias,
                     Activation activation) {
    const ConvGeom g = conv_geometry(input, weight, bias);
    QTensor out(Shape{g.out_c, g.out_h, g.out_w});
#if DS_GEMM_X86
    if (simd::active()) {
        Workspace& ws = workspace();
        const std::size_t ocp = conv_gemm(input, weight, g, ws);
        with_activation(activation, [&](auto a) {
            conv_epilogue_avx2<decltype(a)::value>(ws.c32.data(), ocp, raw(bias), g.out_c,
                                                   g.plane, raw(out));
        });
        return out;
    }
#endif
    thread_local std::vector<fx::Acc> accs;
    conv2d_accs(input, weight, bias, accs);
    write_back(accs.data(), accs.size(), activation, out);
    return out;
}

QTensor dense_layer(const QTensor& input, const QTensor& weight, const QTensor& bias,
                    Activation activation) {
    const auto [out_n, in_n] = dense_geometry(input, weight, bias);
    Workspace& ws = workspace();
    dense_gemm(input, weight, out_n, in_n, ws);
    return dense_finish(ws.c32.data(), bias, activation);
}

void dense_dots(const QTensor& input, const QTensor& weight, std::size_t first_row,
                std::size_t rows, std::int32_t* dots) {
    expects(weight.shape().rank() == 2, "gemm::dense: weight rank 2");
    const std::size_t out_n = weight.shape().dim(0);
    const std::size_t in_n = weight.shape().dim(1);
    expects(in_n <= 65536, "gemm::dense: fan-in fits int32");
    expects(input.size() == in_n, "gemm::dense: input feature mismatch");
    expects(first_row <= out_n && rows <= out_n - first_row, "gemm::dense: rows in range");
    gemm_nt_s32(raw(input), in_n, raw(weight) + first_row * in_n, in_n, dots, rows, 1, rows,
                in_n);
    count_gemm(1, rows, in_n);
}

QTensor dense_finish(const std::int32_t* dots, const QTensor& bias, Activation activation) {
    const std::size_t out_n = bias.size();
    QTensor out(Shape{out_n});
#if DS_GEMM_X86
    if (simd::active()) {
        with_activation(activation, [&](auto a) {
            dense_epilogue_avx2<decltype(a)::value>(dots, raw(bias), out_n, raw(out));
        });
        return out;
    }
#endif
    thread_local std::vector<fx::Acc> accs;
    accs.resize(out_n);
    const std::int16_t* b_raw = raw(bias);
    for (std::size_t o = 0; o < out_n; ++o) {
        accs[o] = (static_cast<fx::Acc>(b_raw[o]) << Q3_4::frac_bits) + dots[o];
    }
    write_back(accs.data(), out_n, activation, out);
    return out;
}

void write_back(const fx::Acc* accs, std::size_t n, Activation activation,
                QTensor& out) {
    assert(out.size() == n);
#if DS_GEMM_X86
    if (simd::active()) {
        with_activation(activation, [&](auto a) {
            write_back_avx2<decltype(a)::value>(accs, n, raw(out));
        });
        return;
    }
#endif
    Q3_4* dst = out.data();
    switch (activation) {
        case Activation::None:
            write_back_as(accs, n, dst, [](Q3_4 v) { return v; });
            return;
        case Activation::Tanh: {
            const fx::TanhLut& lut = fx::TanhLut::instance();
            write_back_as(accs, n, dst, [&lut](Q3_4 v) { return lut(v); });
            return;
        }
        case Activation::Relu:
            write_back_as(accs, n, dst, [](Q3_4 v) { return qrelu(v); });
            return;
        case Activation::Sign:
            write_back_as(accs, n, dst, [](Q3_4 v) { return qsign(v); });
            return;
    }
}

} // namespace deepstrike::quant::gemm
