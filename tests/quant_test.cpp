#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <string>
#include <vector>

#include "accel/arch_profiles.hpp"
#include "nn/zoo.hpp"
#include "quant/gemm.hpp"
#include "quant/qnetwork.hpp"
#include "test_helpers.hpp"
#include "util/error.hpp"
#include "util/simd.hpp"

namespace deepstrike::quant {
namespace {

using deepstrike::testing::naive_from_accumulator;
using deepstrike::testing::naive_pool2;
using deepstrike::testing::random_qimage;
using deepstrike::testing::random_qtensor;
using fx::Q3_4;

TEST(Quantize, LeNetWeightShapes) {
    Rng rng(1);
    nn::Sequential model = nn::build_architecture(nn::Architecture::LeNet5, rng);
    const QNetwork net = quantize_sequential(model, Shape{1, 28, 28});
    ASSERT_EQ(net.layers.size(), 5u);
    EXPECT_EQ(net.layers[0].weight.shape(), Shape({6, 1, 5, 5}));
    EXPECT_EQ(net.layers[0].bias.shape(), Shape({6}));
    EXPECT_EQ(net.layers[2].weight.shape(), Shape({16, 6, 5, 5}));
    EXPECT_EQ(net.layers[3].weight.shape(), Shape({120, 1024}));
    EXPECT_EQ(net.layers[4].weight.shape(), Shape({10, 120}));
    EXPECT_EQ(net.num_classes(), 10u);
    EXPECT_EQ(net.format, QuantFormat::Q3_4);
}

TEST(Quantize, WeightsMatchFloatWithinLsb) {
    Rng rng(2);
    nn::Sequential model = nn::build_architecture(nn::Architecture::LeNet5, rng);
    const QNetwork net = quantize_sequential(model, Shape{1, 28, 28});
    const auto& fw = dynamic_cast<nn::Conv2d&>(model.layer(0)).weight().value;
    const QTensor& qw = net.layer("CONV1").weight;
    for (std::size_t i = 0; i < fw.size(); ++i) {
        EXPECT_NEAR(qw.at_unchecked(i).to_real(), fw.at_unchecked(i),
                    Q3_4::resolution() / 2 + 1e-6);
    }
}

TEST(QConv2d, MatchesFloatConvolutionWithinTolerance) {
    Rng rng(3);
    const QTensor input = random_qtensor(Shape{2, 6, 6}, rng, 1.0);
    const QTensor weight = random_qtensor(Shape{3, 2, 3, 3}, rng, 0.5);
    const QTensor bias = random_qtensor(Shape{3}, rng, 0.25);

    const QTensor out = qconv2d(input, weight, bias, Activation::None);
    EXPECT_EQ(out.shape(), Shape({3, 4, 4}));

    // Float reference on the dequantized operands: the fixed-point result
    // must match within one output LSB (single rounding at writeback).
    for (std::size_t oc = 0; oc < 3; ++oc) {
        for (std::size_t r = 0; r < 4; ++r) {
            for (std::size_t c = 0; c < 4; ++c) {
                double acc = bias.at(oc).to_real();
                for (std::size_t ic = 0; ic < 2; ++ic) {
                    for (std::size_t kr = 0; kr < 3; ++kr) {
                        for (std::size_t kc = 0; kc < 3; ++kc) {
                            acc += input.at(ic, r + kr, c + kc).to_real() *
                                   weight.at(oc, ic, kr, kc).to_real();
                        }
                    }
                }
                if (std::abs(acc) < 7.5) {
                    EXPECT_NEAR(out.at(oc, r, c).to_real(), acc,
                                Q3_4::resolution() / 2 + 1e-9);
                }
            }
        }
    }
}

TEST(QConv2d, TanhApplied) {
    Rng rng(4);
    const QTensor input = random_qtensor(Shape{1, 4, 4}, rng, 2.0);
    const QTensor weight = random_qtensor(Shape{1, 1, 3, 3}, rng, 1.0);
    QTensor bias(Shape{1});
    const QTensor out = qconv2d(input, weight, bias, Activation::Tanh);
    for (std::size_t i = 0; i < out.size(); ++i) {
        EXPECT_LE(std::abs(out.at_unchecked(i).to_real()), 1.0);
    }
}

TEST(QConv2d, ValidatesShapes) {
    Rng rng(5);
    const QTensor input = random_qtensor(Shape{2, 6, 6}, rng);
    const QTensor weight = random_qtensor(Shape{3, 4, 3, 3}, rng); // wrong in_c
    const QTensor bias = random_qtensor(Shape{3}, rng);
    EXPECT_THROW(qconv2d(input, weight, bias, Activation::None), ContractError);
}

TEST(QMaxPool2, SelectsMaximum) {
    QTensor input(Shape{1, 2, 2});
    input.at(0, 0, 0) = Q3_4::from_real(0.5);
    input.at(0, 0, 1) = Q3_4::from_real(-1.0);
    input.at(0, 1, 0) = Q3_4::from_real(2.0);
    input.at(0, 1, 1) = Q3_4::from_real(0.0);
    const QTensor out = qmaxpool2(input);
    EXPECT_EQ(out.shape(), Shape({1, 1, 1}));
    EXPECT_DOUBLE_EQ(out.at(0, 0, 0).to_real(), 2.0);
}

TEST(QMaxPool2, OddDimsThrow) {
    QTensor input(Shape{1, 3, 4});
    EXPECT_THROW(qmaxpool2(input), ContractError);
}

/// Both pooling kernels against the naive ones on one tensor.
void expect_pools_match_naive(const QTensor& input, const std::string& what) {
    ASSERT_TRUE(qmaxpool2(input) == naive_pool2(input, /*average=*/false)) << what << " max";
    ASSERT_TRUE(qavgpool2(input) == naive_pool2(input, /*average=*/true)) << what << " avg";
}

// The branch-free pooling window against the naive comparison chain and
// if/else rounded average: seeded random tensors over a narrow code range
// (many ties, many negative sums) and the full Q3.4 range, then the golden
// activations of every zoo victim (each victim's input image and every
// rank-3 activation it produces, plus each pool layer's own output).
TEST(Pool2, MatchesNaivePoolingOnRandomTensorsAndZooActivations) {
    Rng rng(41);
    const Shape shapes[] = {Shape{1, 2, 2}, Shape{3, 6, 8}, Shape{6, 24, 24},
                            Shape{16, 8, 8}};
    for (const Shape& shape : shapes) {
        for (const std::int64_t range : {std::int64_t{3}, std::int64_t{128}}) {
            QTensor input(shape);
            for (std::size_t i = 0; i < input.size(); ++i) {
                input.at_unchecked(i) =
                    Q3_4::from_raw(static_cast<std::int16_t>(rng.uniform_int(-range, range - 1)));
            }
            expect_pools_match_naive(input, shape.to_string() + " range " +
                                                std::to_string(range));
        }
    }

    for (const nn::ArchitectureInfo& info : nn::architectures()) {
        Rng init(4100 + static_cast<std::uint64_t>(info.arch));
        nn::Sequential model = nn::build_architecture(info.arch, init);
        const QNetwork net = quantize_sequential(model, info.input_shape, {},
                                                 quant_format_for(info.arch));
        for (std::uint64_t seed = 1; seed <= 3; ++seed) {
            Rng pixels(seed);
            QTensor image(info.input_shape);
            for (std::size_t i = 0; i < image.size(); ++i) {
                image.at_unchecked(i) = Q3_4::from_real(pixels.uniform(0.0, 1.0));
            }
            const QNetwork::ForwardTrace trace = net.forward_trace(image);
            for (std::size_t l = 0; l < net.layers.size(); ++l) {
                const QTensor& in = l == 0 ? image : trace.activations[l - 1];
                const std::string what = std::string(info.name) + " image " +
                                         std::to_string(seed) + " layer " +
                                         std::to_string(l);
                const Shape& s = in.shape();
                if (s.rank() == 3 && s.dim(1) % 2 == 0 && s.dim(2) % 2 == 0) {
                    expect_pools_match_naive(in, what);
                }
                const QLayerKind kind = net.layers[l].kind;
                if (kind == QLayerKind::Pool2 || kind == QLayerKind::AvgPool2) {
                    ASSERT_TRUE(trace.activations[l] ==
                                naive_pool2(in, kind == QLayerKind::AvgPool2))
                        << what;
                }
            }
        }
    }
}

// gemm::write_back under every activation against the naive if/else
// rounding plus apply_activation: accumulators across both saturation
// edges and every tie between them, +-2^62 and a seeded sample
// of +-2^40 values, written back whole and in runs of every length 1-33
// (whole and partial 8-lane groups, and runs shorter than one group), on
// both dispatch paths.
TEST(WriteBack, MatchesNaiveRoundingUnderEveryActivation) {
    const simd::Mode saved = simd::mode();
    std::vector<fx::Acc> accs;
    for (fx::Acc acc = -2200; acc <= 2200; ++acc) accs.push_back(acc);
    // Halved: the naive rounding negates its argument.
    accs.push_back(std::numeric_limits<fx::Acc>::min() / 2);
    accs.push_back(std::numeric_limits<fx::Acc>::max() / 2);
    Rng rng(31);
    for (int i = 0; i < 4096; ++i) {
        accs.push_back(rng.uniform_int(-(fx::Acc{1} << 40), fx::Acc{1} << 40));
    }
    const auto check = [&](std::size_t begin, std::size_t n, Activation activation) {
        QTensor out(Shape{n});
        gemm::write_back(accs.data() + begin, n, activation, out);
        for (std::size_t p = 0; p < n; ++p) {
            ASSERT_EQ(out.at_unchecked(p).raw(),
                      apply_activation(naive_from_accumulator(accs[begin + p]), activation)
                          .raw())
                << activation_name(activation) << " " << simd::mode_name(simd::mode())
                << " acc " << accs[begin + p] << " in a run of " << n;
        }
    };
    for (const simd::Mode mode : {simd::Mode::Auto, simd::Mode::Scalar}) {
        simd::set_mode(mode);
        for (const Activation activation :
             {Activation::None, Activation::Tanh, Activation::Relu, Activation::Sign}) {
            check(0, accs.size(), activation);
            for (std::size_t n = 1; n <= 33; ++n) {
                for (std::size_t begin = 0; begin + n <= accs.size(); begin += 97 + n) {
                    check(begin, n, activation);
                }
            }
        }
    }
    simd::set_mode(saved);
}

TEST(QDense, MatchesFloatWithinTolerance) {
    Rng rng(6);
    const QTensor input = random_qtensor(Shape{8}, rng, 1.0);
    const QTensor weight = random_qtensor(Shape{4, 8}, rng, 0.5);
    const QTensor bias = random_qtensor(Shape{4}, rng, 0.25);
    const QTensor out = qdense(input, weight, bias, Activation::None);
    for (std::size_t o = 0; o < 4; ++o) {
        double acc = bias.at(o).to_real();
        for (std::size_t i = 0; i < 8; ++i) {
            acc += input.at(i).to_real() * weight.at(o, i).to_real();
        }
        if (std::abs(acc) < 7.5) {
            EXPECT_NEAR(out.at(o).to_real(), acc, Q3_4::resolution() / 2 + 1e-9);
        }
    }
}

TEST(QDense, FeatureMismatchThrows) {
    Rng rng(7);
    const QTensor input = random_qtensor(Shape{9}, rng);
    const QTensor weight = random_qtensor(Shape{4, 8}, rng);
    const QTensor bias = random_qtensor(Shape{4}, rng);
    EXPECT_THROW(qdense(input, weight, bias, Activation::None), ContractError);
}

TEST(QNetworkReference, ForwardShapes) {
    const QNetwork net = deepstrike::testing::random_qnetwork(8);
    const std::vector<QTensor> acts = net.forward_trace(random_qimage(9)).activations;
    ASSERT_EQ(acts.size(), 5u);
    EXPECT_EQ(acts[0].shape(), Shape({6, 24, 24}));
    EXPECT_EQ(acts[1].shape(), Shape({6, 12, 12}));
    EXPECT_EQ(acts[2].shape(), Shape({16, 8, 8}));
    EXPECT_EQ(acts[3].shape(), Shape({120}));
    EXPECT_EQ(acts[4].shape(), Shape({10}));
}

TEST(QNetworkReference, Deterministic) {
    const QNetwork net = deepstrike::testing::random_qnetwork(10);
    const QTensor img = random_qimage(11);
    EXPECT_EQ(net.forward(img), net.forward(img));
}

TEST(QNetworkReference, RejectsWrongInputShape) {
    const QNetwork net = deepstrike::testing::random_qnetwork(12);
    QTensor bad(Shape{1, 27, 28});
    EXPECT_THROW(net.forward(bad), ContractError);
}

TEST(QNetworkReference, QuantizedTracksFloatModel) {
    // Train a tiny model on easy data; the quantized network must agree
    // with the float network on a clear majority of samples.
    data::AugmentParams mild;
    mild.noise_sigma = 0.03;
    mild.max_shift_px = 1.0;
    auto ds = data::make_datasets(321, 120, 40, mild);

    Rng rng(13);
    nn::Sequential model = nn::build_architecture(nn::Architecture::LeNet5, rng);
    nn::TrainConfig cfg;
    cfg.epochs = 2;
    cfg.batch_size = 12;
    nn::train(model, ds.train, cfg);

    const QNetwork net = quantize_sequential(model, Shape{1, 28, 28});
    std::size_t agree = 0;
    for (std::size_t i = 0; i < ds.test.size(); ++i) {
        const std::size_t fpred = argmax(model.forward(ds.test.images[i]));
        if (fpred == net.predict(ds.test.images[i])) ++agree;
    }
    EXPECT_GE(agree, ds.test.size() * 8 / 10);
}

TEST(QuantizeBinary, BinarizedLayersDeployPlusMinusOne) {
    Rng rng(14);
    nn::Sequential model = nn::build_architecture(nn::Architecture::Bnn, rng);
    const QNetwork net =
        quantize_sequential(model, Shape{1, 28, 28}, {}, QuantFormat::Binary);
    EXPECT_EQ(net.format, QuantFormat::Binary);
    // Hidden (Binarized) layers carry exactly +/-1 weights...
    for (const char* label : {"CONV1", "FC1"}) {
        const QTensor& w = net.layer(label).weight;
        for (std::size_t i = 0; i < w.size(); ++i) {
            EXPECT_EQ(std::abs(w.at_unchecked(i).to_real()), 1.0) << label;
        }
        EXPECT_EQ(net.layer(label).activation, Activation::Sign) << label;
    }
    // ...while the classifier head keeps real-valued Q3.4 weights.
    const QTensor& head = net.layer("FC2").weight;
    bool any_fractional = false;
    for (std::size_t i = 0; i < head.size(); ++i) {
        if (std::abs(head.at_unchecked(i).to_real()) != 1.0) any_fractional = true;
    }
    EXPECT_TRUE(any_fractional);
}

TEST(QuantizeBinary, BinarizedModelRequiresBinaryFormat) {
    Rng rng(15);
    nn::Sequential model = nn::build_architecture(nn::Architecture::Bnn, rng);
    EXPECT_THROW(quantize_sequential(model, Shape{1, 28, 28}), ContractError);
}

TEST(QSign, MapsSignToUnitValues) {
    EXPECT_DOUBLE_EQ(qsign(Q3_4::from_real(2.5)).to_real(), 1.0);
    EXPECT_DOUBLE_EQ(qsign(Q3_4::from_real(0.0)).to_real(), 1.0);
    EXPECT_DOUBLE_EQ(qsign(Q3_4::from_real(-0.0625)).to_real(), -1.0);
}

} // namespace
} // namespace deepstrike::quant
