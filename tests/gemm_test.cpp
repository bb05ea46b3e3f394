// im2col/GEMM engine equivalence suite. The whole perf story rests on one
// property: integer accumulation is exact, so the GEMM formulation (AVX2
// or portable) must reproduce the naive per-element conv and dense loops
// byte for byte — accumulators, activations, logits, campaign reports —
// at any thread count. The naive loops are the test oracle in
// tests/test_helpers.hpp; these tests pin the property across all zoo
// architectures, both quantization formats, odd shapes, and both
// simd::Mode dispatch paths.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "accel/arch_profiles.hpp"
#include "nn/zoo.hpp"
#include "quant/gemm.hpp"
#include "quant/kernels.hpp"
#include "quant/qnetwork.hpp"
#include "sim/campaign.hpp"
#include "test_helpers.hpp"
#include "util/parallel.hpp"
#include "util/rng.hpp"
#include "util/simd.hpp"

namespace deepstrike::quant {
namespace {

using deepstrike::testing::expect_same_tensor;
using deepstrike::testing::expect_same_trace;
using deepstrike::testing::naive_conv_accs;
using deepstrike::testing::naive_dense_accs;
using deepstrike::testing::naive_trace;
using deepstrike::testing::naive_write_back;
using deepstrike::testing::random_qnetwork;
using deepstrike::testing::random_qtensor;
using deepstrike::testing::SimdGuard;
using fx::Q3_4;

/// Both dispatch paths. Auto additionally exercises AVX2 when the host
/// has it; on a non-AVX2 host Auto and Scalar coincide, which is exactly
/// the dispatch contract.
const simd::Mode kModes[] = {simd::Mode::Auto, simd::Mode::Scalar};

// ------------------------------------------------------------ helpers

QTensor random_image(const Shape& shape, std::uint64_t seed) {
    Rng rng(seed);
    QTensor img(shape);
    for (std::size_t i = 0; i < img.size(); ++i) {
        img.at_unchecked(i) = fx::Q3_4::from_real(rng.uniform(0.0, 1.0));
    }
    return img;
}

// The microkernel against a naive triple loop, over odd shapes chosen to
// hit every tail path (k % 16, m % 4, single rows/cols).
TEST(Gemm, MicrokernelMatchesNaiveAtOddShapes) {
    SimdGuard guard;
    Rng rng(20210721);
    const std::size_t shapes[][3] = {
        {1, 1, 1},   {1, 3, 5},  {4, 4, 16},  {3, 7, 17},  {5, 2, 31},
        {8, 9, 150}, {2, 64, 1}, {13, 5, 48}, {6, 11, 25},
    };
    for (const auto& s : shapes) {
        const std::size_t m = s[0];
        const std::size_t n = s[1];
        const std::size_t k = s[2];
        // Padded leading dimensions exercise lda/ldb/ldc != k/n.
        const std::size_t lda = k + 3;
        const std::size_t ldb = k + 1;
        const std::size_t ldc = n + 2;
        std::vector<std::int16_t> a(m * lda);
        std::vector<std::int16_t> b(n * ldb);
        for (auto& v : a) v = static_cast<std::int16_t>(rng.uniform_int(-128, 127));
        for (auto& v : b) v = static_cast<std::int16_t>(rng.uniform_int(-128, 127));

        std::vector<std::int32_t> want(m * ldc, -1);
        for (std::size_t i = 0; i < m; ++i) {
            for (std::size_t j = 0; j < n; ++j) {
                std::int32_t acc = 0;
                for (std::size_t kk = 0; kk < k; ++kk) {
                    acc += static_cast<std::int32_t>(a[i * lda + kk]) *
                           b[j * ldb + kk];
                }
                want[i * ldc + j] = acc;
            }
        }
        for (simd::Mode mode : kModes) {
            simd::set_mode(mode);
            std::vector<std::int32_t> got(m * ldc, 0);
            gemm::gemm_nt_s32(a.data(), lda, b.data(), ldb, got.data(), ldc, m, n,
                              k);
            for (std::size_t i = 0; i < m; ++i) {
                for (std::size_t j = 0; j < n; ++j) {
                    ASSERT_EQ(got[i * ldc + j], want[i * ldc + j])
                        << simd::mode_name(mode) << " m=" << m << " n=" << n
                        << " k=" << k << " at (" << i << "," << j << ")";
                }
            }
        }
    }
}

// Layer-level equivalence: conv2d_accs / dense_accs and the qconv2d /
// qdense entry points against the oracle loops on odd geometries the zoo
// does not cover (k=3, non-square inputs, channel counts off the register
// width).
TEST(Gemm, LayerAccsMatchOracleAtOddGeometries) {
    SimdGuard guard;
    Rng rng(77);
    struct ConvCase {
        Shape in, w;
    };
    const ConvCase convs[] = {
        {Shape{1, 7, 9}, Shape{3, 1, 3, 3}},
        {Shape{5, 11, 6}, Shape{2, 5, 5, 5}},
        {Shape{3, 6, 6}, Shape{7, 3, 2, 2}},
    };
    for (const auto& c : convs) {
        QTensor input = random_qtensor(c.in, rng, 1.0);
        QTensor weight = random_qtensor(c.w, rng, 0.5);
        QTensor bias = random_qtensor(Shape{c.w.dim(0)}, rng, 0.25);

        const std::vector<fx::Acc> want_accs = naive_conv_accs(input, weight, bias);
        const Shape out_shape{c.w.dim(0), c.in.dim(1) - c.w.dim(2) + 1,
                              c.in.dim(2) - c.w.dim(2) + 1};
        const QTensor want = naive_write_back(want_accs, out_shape, Activation::Tanh);
        for (simd::Mode mode : kModes) {
            simd::set_mode(mode);
            std::vector<fx::Acc> accs;
            gemm::conv2d_accs(input, weight, bias, accs);
            ASSERT_EQ(accs, want_accs) << "conv " << simd::mode_name(mode);
            const QTensor got = qconv2d(input, weight, bias, Activation::Tanh);
            ASSERT_EQ(got.shape(), out_shape);
            expect_same_tensor(got, want, std::string("qconv2d ") +
                                              simd::mode_name(mode));
        }
    }

    const std::size_t dense_shapes[][2] = {{1, 1}, {3, 17}, {10, 33}, {9, 256}};
    for (const auto& d : dense_shapes) {
        QTensor input = random_qtensor(Shape{d[1]}, rng, 1.0);
        QTensor weight = random_qtensor(Shape{d[0], d[1]}, rng, 0.5);
        QTensor bias = random_qtensor(Shape{d[0]}, rng, 0.25);

        const std::vector<fx::Acc> want_accs = naive_dense_accs(input, weight, bias);
        const QTensor want = naive_write_back(want_accs, Shape{d[0]}, Activation::None);
        for (simd::Mode mode : kModes) {
            simd::set_mode(mode);
            std::vector<fx::Acc> accs;
            gemm::dense_accs(input, weight, bias, accs);
            ASSERT_EQ(accs, want_accs) << "dense " << simd::mode_name(mode);
            expect_same_tensor(qdense(input, weight, bias, Activation::None), want,
                               std::string("qdense ") + simd::mode_name(mode));
        }
    }
}

/// Tensor of `shape` with raw codes drawn uniformly from [lo, hi].
QTensor random_raw(const Shape& shape, Rng& rng, std::int64_t lo, std::int64_t hi) {
    QTensor t(shape);
    for (std::size_t i = 0; i < t.size(); ++i) {
        t.at_unchecked(i) = Q3_4::from_raw(static_cast<std::int16_t>(rng.uniform_int(lo, hi)));
    }
    return t;
}

/// Accumulator coverage of a layer test: saturation on both sides and
/// every rounding tie (acc = 16q + 8) strictly inside the Q3.4 range.
struct AccCoverage {
    bool below = false;
    bool above = false;
    std::vector<bool> ties = std::vector<bool>(256, false); // index q + 128

    void add(const std::vector<fx::Acc>& accs) {
        constexpr fx::Acc lo = fx::Acc{Q3_4::raw_min} * 16;
        constexpr fx::Acc hi = fx::Acc{Q3_4::raw_max} * 16;
        for (const fx::Acc a : accs) {
            below = below || a < lo;
            above = above || a > hi;
            if (a > lo && a < hi && (a & 15) == 8) {
                ties[static_cast<std::size_t>((a >> 4) + 128)] = true;
            }
        }
    }
    void expect_complete(const std::string& what) const {
        EXPECT_TRUE(below) << what << ": no accumulator below the Q3.4 range";
        EXPECT_TRUE(above) << what << ": no accumulator above the Q3.4 range";
        // Ties 16q + 8 with q in [-128, 126] lie inside (lo, hi).
        for (std::size_t q = 0; q + 1 < ties.size(); ++q) {
            EXPECT_TRUE(ties[q]) << what << ": tie " << (16 * (std::int64_t(q) - 128) + 8)
                                 << " never reached";
        }
    }
};

const Activation kActivations[] = {Activation::None, Activation::Tanh, Activation::Relu,
                                   Activation::Sign};

/// qconv2d against the oracle accumulators, the naive rounding and the
/// activation, under every activation and both dispatch paths.
void expect_conv_matches_oracle(const QTensor& input, const QTensor& weight,
                                const QTensor& bias, const std::string& what,
                                AccCoverage& coverage) {
    const std::vector<fx::Acc> accs = naive_conv_accs(input, weight, bias);
    coverage.add(accs);
    const std::size_t k = weight.shape().dim(2);
    const Shape out_shape{weight.shape().dim(0), input.shape().dim(1) - k + 1,
                          input.shape().dim(2) - k + 1};
    for (const Activation activation : kActivations) {
        const QTensor want = naive_write_back(accs, out_shape, activation);
        for (simd::Mode mode : kModes) {
            simd::set_mode(mode);
            const QTensor got = qconv2d(input, weight, bias, activation);
            ASSERT_EQ(got.shape(), out_shape) << what;
            expect_same_tensor(got, want, what + " " + activation_name(activation) + " " +
                                              simd::mode_name(mode));
        }
    }
}

/// qdense counterpart of expect_conv_matches_oracle.
void expect_dense_matches_oracle(const QTensor& input, const QTensor& weight,
                                 const QTensor& bias, const std::string& what,
                                 AccCoverage& coverage) {
    const std::vector<fx::Acc> accs = naive_dense_accs(input, weight, bias);
    coverage.add(accs);
    for (const Activation activation : kActivations) {
        const QTensor want = naive_write_back(accs, Shape{accs.size()}, activation);
        for (simd::Mode mode : kModes) {
            simd::set_mode(mode);
            expect_same_tensor(qdense(input, weight, bias, activation), want,
                               what + " " + activation_name(activation) + " " +
                                   simd::mode_name(mode));
        }
    }
}

// The layer entries (the AVX2 path straight from the int32 GEMM tile to
// Q3.4 codes: block-copied im2col spans, the transposing epilogue, the
// one-image dense kernel) against the naive loops, the naive rounding and
// each activation. Geometries cover k in {3, 5, 7}, in_c in {1, 2, 6} (odd
// and even K), out_c in {1, 6, 8, 9, 16} with planes off the 8-pixel tile
// (and below it), dense outputs off the 4-row group and fan-ins off the
// 16-lane step. In every conv the last output pixel's last span ends at
// the input's last element, so a span move reading past it would leave
// the tensor. Full-range raw codes drive accumulators past both
// saturation bounds; two crafted layers put an accumulator on every
// rounding tie, for the conv and the dense path each.
TEST(Gemm, LayerOutputsMatchOracleAtOddGeometries) {
    SimdGuard guard;
    Rng rng(2025);
    AccCoverage conv_coverage;
    for (const std::size_t k : {3, 5, 7}) {
        for (const std::size_t in_c : {1, 2, 6}) {
            for (const std::size_t out_c : {1, 6, 8, 9, 16}) {
                // Output planes 1x3 (below one tile), 5x7 and 9x11 (off
                // the 8-pixel tile).
                for (const auto& [oh, ow] : {std::pair<std::size_t, std::size_t>{1, 3},
                                             {5, 7},
                                             {9, 11}}) {
                    const QTensor input = random_raw(Shape{in_c, oh + k - 1, ow + k - 1}, rng,
                                                     Q3_4::raw_min, Q3_4::raw_max);
                    const QTensor weight = random_raw(Shape{out_c, in_c, k, k}, rng,
                                                      Q3_4::raw_min, Q3_4::raw_max);
                    const QTensor bias =
                        random_raw(Shape{out_c}, rng, Q3_4::raw_min, Q3_4::raw_max);
                    expect_conv_matches_oracle(
                        input, weight, bias,
                        "conv k=" + std::to_string(k) + " in_c=" + std::to_string(in_c) +
                            " out_c=" + std::to_string(out_c) + " plane=" +
                            std::to_string(oh) + "x" + std::to_string(ow),
                        conv_coverage);
                }
            }
        }
    }
    {
        // Every tie: one tap of weight 2 (raw) reads input code x at pixel
        // p, so channel oc's accumulator is 16 * bias[oc] + 2x; the 289
        // pixels carry every code x and the biases step by 16, so the 16
        // channels cover every even accumulator in [-2304, 2046].
        const std::size_t k = 3;
        QTensor input = random_raw(Shape{1, 19, 19}, rng, -4, 4);
        for (std::size_t p = 0; p < 17 * 17; ++p) {
            input.at(0, p / 17, p % 17) =
                Q3_4::from_raw(static_cast<std::int16_t>(p % 256) - 128);
        }
        QTensor weight(Shape{16, 1, k, k});
        QTensor bias(Shape{16});
        for (std::size_t oc = 0; oc < 16; ++oc) {
            weight.at(oc, 0, 0, 0) = Q3_4::from_raw(2);
            bias.at(oc) = Q3_4::from_raw(static_cast<std::int16_t>(-128 + 16 * oc));
        }
        expect_conv_matches_oracle(input, weight, bias, "conv every tie", conv_coverage);
    }
    conv_coverage.expect_complete("conv");

    AccCoverage dense_coverage;
    for (const std::size_t out_n : {1, 3, 5, 7, 10, 13, 120}) {
        for (const std::size_t in_n : {1, 15, 17, 33, 100, 1023}) {
            const QTensor input =
                random_raw(Shape{in_n}, rng, Q3_4::raw_min, Q3_4::raw_max);
            const QTensor weight =
                random_raw(Shape{out_n, in_n}, rng, Q3_4::raw_min, Q3_4::raw_max);
            const QTensor bias = random_raw(Shape{out_n}, rng, Q3_4::raw_min, Q3_4::raw_max);
            expect_dense_matches_oracle(input, weight, bias,
                                        "dense " + std::to_string(out_n) + "x" +
                                            std::to_string(in_n),
                                        dense_coverage);
        }
    }
    {
        // Every accumulator in [-2200, 2200]: output o's 17 weights (raw)
        // add up, over an input of raw 1s, to its target less 16 * bias.
        const std::size_t in_n = 17;
        const std::size_t out_n = 4401;
        QTensor input(Shape{in_n});
        for (std::size_t i = 0; i < in_n; ++i) input.at(i) = Q3_4::from_raw(1);
        QTensor weight(Shape{out_n, in_n});
        QTensor bias(Shape{out_n});
        for (std::size_t o = 0; o < out_n; ++o) {
            const std::int64_t target = static_cast<std::int64_t>(o) - 2200;
            const std::int64_t b = std::clamp<std::int64_t>(target / 32, -128, 127);
            bias.at(o) = Q3_4::from_raw(static_cast<std::int16_t>(b));
            std::int64_t rest = target - 16 * b;
            for (std::size_t i = 0; i < in_n; ++i) {
                const std::int64_t w = std::clamp<std::int64_t>(rest, -128, 127);
                weight.at(o, i) = Q3_4::from_raw(static_cast<std::int16_t>(w));
                rest -= w;
            }
            ASSERT_EQ(rest, 0) << "target " << target;
        }
        expect_dense_matches_oracle(input, weight, bias, "dense every tie", dense_coverage);
    }
    dense_coverage.expect_complete("dense");
}

// Whole-network equivalence across the full zoo, both quantization
// formats: forward, forward_trace (activations AND accumulators) and
// forward_batch, all byte-identical to the oracle pass in both dispatch
// modes.
TEST(Gemm, ZooNetworksByteIdenticalAcrossModes) {
    SimdGuard guard;
    for (const nn::ArchitectureInfo& info : nn::architectures()) {
        // Each architecture deploys in its own format (bnn is Binary, the
        // rest Q3.4), so the zoo sweep covers both quantization formats.
        const QuantFormat format = quant_format_for(info.arch);
        Rng rng(derive_seed(9001, static_cast<std::uint64_t>(info.arch),
                            static_cast<std::uint64_t>(format)));
        nn::Sequential model = nn::build_architecture(info.arch, rng);
        const QNetwork net = quantize_sequential(model, info.input_shape, {}, format);

        const std::size_t n_images = 64;
        std::vector<QTensor> images;
        std::vector<const QTensor*> ptrs;
        images.reserve(n_images);
        for (std::size_t i = 0; i < n_images; ++i) {
            images.push_back(random_image(info.input_shape, 100 + i));
        }
        for (const QTensor& img : images) ptrs.push_back(&img);

        std::vector<QNetwork::ForwardTrace> want_traces;
        for (const QTensor& img : images) want_traces.push_back(naive_trace(net, img));

        for (simd::Mode mode : kModes) {
            simd::set_mode(mode);
            const std::string tag = std::string(info.name) + "/" +
                                    quant_format_name(format) + "/" +
                                    simd::mode_name(mode);
            // Per-image forward and forward_trace.
            for (std::size_t i = 0; i < n_images; ++i) {
                const std::string what = tag + " image " + std::to_string(i);
                expect_same_tensor(net.forward(images[i]),
                                   want_traces[i].activations.back(),
                                   what + " forward");
                expect_same_trace(net.forward_trace(images[i]), want_traces[i],
                                  what + " trace");
            }
            // forward_batch over every image.
            const std::vector<QTensor> got = net.forward_batch(ptrs);
            ASSERT_EQ(got.size(), n_images);
            for (std::size_t i = 0; i < n_images; ++i) {
                expect_same_tensor(got[i], want_traces[i].activations.back(),
                                   tag + " forward_batch image " + std::to_string(i));
            }
        }
    }
}

/// Fraction of the first n images the oracle pass classifies correctly.
double oracle_accuracy(const QNetwork& net, const data::Dataset& ds, std::size_t n) {
    std::size_t correct = 0;
    for (std::size_t i = 0; i < n; ++i) {
        const QTensor logits =
            naive_trace(net, quantize_image(ds.images[i])).activations.back();
        correct += argmax(logits) == ds.labels[i] ? 1 : 0;
    }
    return static_cast<double>(correct) / static_cast<double>(n);
}

// The end-to-end invariant: a campaign report must not change a byte with
// the dispatch path or the thread count, and its untampered accuracy is
// the oracle pass's. Serializes the whole report to JSON and compares
// strings.
TEST(Gemm, CampaignReportByteIdenticalAcrossModesAndThreads) {
    SimdGuard guard;
    sim::Platform platform(sim::PlatformConfig{}, random_qnetwork(4242));
    auto ds = data::make_datasets(11, 1, 30);
    sim::CampaignConfig cfg;
    cfg.strike_grid = {300, 900};
    cfg.eval_images = 25;
    cfg.blind_offsets = 2;

    std::string want;
    for (simd::Mode mode : kModes) {
        for (std::size_t threads : {std::size_t{1}, std::size_t{8}}) {
            simd::set_mode(mode);
            cfg.threads = threads;
            const sim::CampaignReport report = sim::run_campaign(platform, ds.test, cfg);
            EXPECT_EQ(report.clean_accuracy,
                      oracle_accuracy(platform.engine().network(), ds.test, 25));
            const std::string got = report.to_json().dump();
            if (want.empty()) want = got;
            EXPECT_EQ(got, want) << simd::mode_name(mode) << " threads=" << threads;
        }
    }
}

// Clean accuracy evaluation without a passed golden store builds one
// locally, one image per pool task; it must agree with the oracle pass at
// any image count and thread count.
TEST(Gemm, UncachedEvaluationMatchesOracleAcrossImageCounts) {
    SimdGuard guard;
    sim::Platform platform(sim::PlatformConfig{}, random_qnetwork(77));
    auto ds = data::make_datasets(13, 1, 40);

    for (std::size_t n : {std::size_t{1}, std::size_t{16}, std::size_t{40}}) {
        const double want = oracle_accuracy(platform.engine().network(), ds.test, n);
        for (simd::Mode mode : kModes) {
            for (std::size_t threads : {std::size_t{1}, std::size_t{8}}) {
                simd::set_mode(mode);
                set_global_thread_count(threads);
                const sim::AccuracyResult got =
                    sim::evaluate_accuracy(platform, ds.test, n, {}, 5);
                EXPECT_EQ(got.accuracy, want)
                    << simd::mode_name(mode) << " images=" << n << " threads=" << threads;
                EXPECT_EQ(got.images, n);
            }
        }
    }
    set_global_thread_count(0);
}

} // namespace
} // namespace deepstrike::quant
