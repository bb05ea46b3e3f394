#include <gtest/gtest.h>

#include <cmath>

#include "data/synth_mnist.hpp"
#include "nn/layers.hpp"
#include "nn/model.hpp"
#include "nn/zoo.hpp"
#include "nn/trainer.hpp"
#include "test_helpers.hpp"
#include "util/error.hpp"

namespace deepstrike::nn {
namespace {

using deepstrike::testing::same_bits;

FloatTensor random_tensor(Shape shape, Rng& rng, double range = 1.0) {
    FloatTensor t(shape);
    for (std::size_t i = 0; i < t.size(); ++i) {
        t.at_unchecked(i) = static_cast<float>(rng.uniform(-range, range));
    }
    return t;
}

// ---------------------------------------------------------------- shapes

TEST(Conv2d, OutputShapeAndMacCount) {
    Rng rng(1);
    Conv2d conv(3, 8, 5, rng);
    const Shape in{3, 12, 12};
    EXPECT_EQ(conv.output_shape(in), Shape({8, 8, 8}));
    EXPECT_EQ(conv.mac_count(in), 8u * 8 * 8 * 3 * 5 * 5);
}

TEST(Conv2d, RejectsBadInput) {
    Rng rng(2);
    Conv2d conv(3, 8, 5, rng);
    EXPECT_THROW(conv.output_shape(Shape{2, 12, 12}), ContractError); // channels
    EXPECT_THROW(conv.output_shape(Shape{3, 4, 4}), ContractError);   // too small
    EXPECT_THROW(conv.output_shape(Shape{3, 12}), ContractError);     // rank
}

TEST(MaxPool2d, OutputShape) {
    MaxPool2d pool;
    EXPECT_EQ(pool.output_shape(Shape{6, 24, 24}), Shape({6, 12, 12}));
    EXPECT_THROW(pool.output_shape(Shape{6, 23, 24}), ContractError);
}

TEST(Dense, OutputShape) {
    Rng rng(3);
    Dense dense(24, 10, rng);
    EXPECT_EQ(dense.output_shape(Shape{2, 3, 4}), Shape({10}));
    EXPECT_THROW(dense.output_shape(Shape{25}), ContractError);
}

// ----------------------------------------------------------- forward math

TEST(Conv2d, HandComputedForward) {
    Rng rng(4);
    Conv2d conv(1, 1, 2, rng);
    // Set weight to [[1, 2], [3, 4]], bias 0.5.
    conv.weight().value.at(0, 0, 0, 0) = 1.0f;
    conv.weight().value.at(0, 0, 0, 1) = 2.0f;
    conv.weight().value.at(0, 0, 1, 0) = 3.0f;
    conv.weight().value.at(0, 0, 1, 1) = 4.0f;
    conv.bias().value.at(0) = 0.5f;

    FloatTensor input(Shape{1, 3, 3});
    float v = 1.0f;
    for (std::size_t i = 0; i < 9; ++i) input[i] = v++;

    const FloatTensor out = conv.forward(input);
    // Window at (0,0): 1*1 + 2*2 + 3*4 + 4*5 + 0.5 = 37.5
    EXPECT_FLOAT_EQ(out.at(0, 0, 0), 37.5f);
    // Window at (1,1): 1*5 + 2*6 + 3*8 + 4*9 + 0.5 = 77.5
    EXPECT_FLOAT_EQ(out.at(0, 1, 1), 77.5f);
}

TEST(MaxPool2d, ForwardSelectsMax) {
    MaxPool2d pool;
    FloatTensor input(Shape{1, 2, 2});
    input.at(0, 0, 0) = 1.0f;
    input.at(0, 0, 1) = -2.0f;
    input.at(0, 1, 0) = 3.5f;
    input.at(0, 1, 1) = 0.0f;
    const FloatTensor out = pool.forward(input);
    EXPECT_EQ(out.shape(), Shape({1, 1, 1}));
    EXPECT_FLOAT_EQ(out.at(0, 0, 0), 3.5f);
}

TEST(Dense, HandComputedForward) {
    Rng rng(5);
    Dense dense(3, 2, rng);
    // W = [[1,2,3],[4,5,6]], b = [0.5, -0.5]
    float w = 1.0f;
    for (std::size_t i = 0; i < 6; ++i) dense.weight().value[i] = w++;
    dense.bias().value.at(0) = 0.5f;
    dense.bias().value.at(1) = -0.5f;

    FloatTensor input(Shape{3});
    input.at(0) = 1.0f;
    input.at(1) = 0.0f;
    input.at(2) = -1.0f;

    const FloatTensor out = dense.forward(input);
    EXPECT_FLOAT_EQ(out.at(0), 1.0f - 3.0f + 0.5f);
    EXPECT_FLOAT_EQ(out.at(1), 4.0f - 6.0f - 0.5f);
}

TEST(Tanh, ForwardValues) {
    TanhActivation tanh_layer;
    FloatTensor input(Shape{3});
    input.at(0) = 0.0f;
    input.at(1) = 100.0f;
    input.at(2) = -100.0f;
    const FloatTensor out = tanh_layer.forward(input);
    EXPECT_FLOAT_EQ(out.at(0), 0.0f);
    EXPECT_NEAR(out.at(1), 1.0f, 1e-6);
    EXPECT_NEAR(out.at(2), -1.0f, 1e-6);
}

TEST(Softmax, SumsToOneAndOrders) {
    FloatTensor logits(Shape{4});
    logits.at(0) = 1.0f;
    logits.at(1) = 3.0f;
    logits.at(2) = 2.0f;
    logits.at(3) = -1.0f;
    const FloatTensor p = softmax(logits);
    double sum = 0.0;
    for (std::size_t i = 0; i < 4; ++i) sum += p[i];
    EXPECT_NEAR(sum, 1.0, 1e-6);
    EXPECT_GT(p.at(1), p.at(2));
    EXPECT_GT(p.at(2), p.at(0));
    EXPECT_GT(p.at(0), p.at(3));
}

TEST(Softmax, NumericallyStableForLargeLogits) {
    FloatTensor logits(Shape{2});
    logits.at(0) = 1000.0f;
    logits.at(1) = 999.0f;
    const FloatTensor p = softmax(logits);
    EXPECT_TRUE(std::isfinite(p.at(0)));
    EXPECT_NEAR(p.at(0) + p.at(1), 1.0, 1e-6);
    EXPECT_GT(p.at(0), p.at(1));
}

// ------------------------------------------- reference forward (oracle)

// The float layers' original checked-index forward loops. They fix each
// output's accumulation order (bias, then the reduction indices
// ascending), so the product kernels must reproduce them bit for bit.

FloatTensor reference_conv2d(const FloatTensor& input, const FloatTensor& weight,
                             const FloatTensor& bias) {
    const std::size_t out_channels = weight.shape().dim(0);
    const std::size_t in_channels = weight.shape().dim(1);
    const std::size_t kernel = weight.shape().dim(2);
    const std::size_t oh = input.shape().dim(1) - kernel + 1;
    const std::size_t ow = input.shape().dim(2) - kernel + 1;
    FloatTensor out(Shape{out_channels, oh, ow});
    for (std::size_t oc = 0; oc < out_channels; ++oc) {
        for (std::size_t r = 0; r < oh; ++r) {
            for (std::size_t c = 0; c < ow; ++c) {
                float acc = bias.at(oc);
                for (std::size_t ic = 0; ic < in_channels; ++ic) {
                    for (std::size_t kr = 0; kr < kernel; ++kr) {
                        for (std::size_t kc = 0; kc < kernel; ++kc) {
                            acc += input.at(ic, r + kr, c + kc) * weight.at(oc, ic, kr, kc);
                        }
                    }
                }
                out.at(oc, r, c) = acc;
            }
        }
    }
    return out;
}

FloatTensor reference_dense(const FloatTensor& input, const FloatTensor& weight,
                            const FloatTensor& bias) {
    const std::size_t out_features = weight.shape().dim(0);
    const std::size_t in_features = weight.shape().dim(1);
    FloatTensor out(Shape{out_features});
    for (std::size_t o = 0; o < out_features; ++o) {
        float acc = bias.at(o);
        for (std::size_t i = 0; i < in_features; ++i) acc += weight.at(o, i) * input[i];
        out.at(o) = acc;
    }
    return out;
}

FloatTensor reference_maxpool(const FloatTensor& input) {
    const std::size_t ch = input.shape().dim(0);
    const std::size_t oh = input.shape().dim(1) / 2;
    const std::size_t ow = input.shape().dim(2) / 2;
    FloatTensor out(Shape{ch, oh, ow});
    for (std::size_t c = 0; c < ch; ++c) {
        for (std::size_t r = 0; r < oh; ++r) {
            for (std::size_t w = 0; w < ow; ++w) {
                float best = input.at(c, 2 * r, 2 * w);
                for (std::size_t dr = 0; dr < 2; ++dr) {
                    for (std::size_t dw = 0; dw < 2; ++dw) {
                        const float v = input.at(c, 2 * r + dr, 2 * w + dw);
                        if (v > best) best = v;
                    }
                }
                out.at(c, r, w) = best;
            }
        }
    }
    return out;
}

template <typename Fn>
FloatTensor reference_elementwise(const FloatTensor& input, Fn fn) {
    FloatTensor out(input.shape());
    for (std::size_t i = 0; i < input.size(); ++i) out[i] = fn(input[i]);
    return out;
}

float sign_of(float x) { return x >= 0.0f ? 1.0f : -1.0f; }

/// Binarized<L>: the inner reference on sign(weight), times 1/sqrt(fan-in).
template <typename Reference>
FloatTensor reference_binarized(const FloatTensor& input, const Parameter& weight,
                                const Parameter& bias, Reference reference) {
    const FloatTensor& w = weight.value;
    const float scale = 1.0f / std::sqrt(static_cast<float>(w.size() / w.shape().dim(0)));
    return reference_elementwise(
        reference(input, reference_elementwise(w, sign_of), bias.value),
        [scale](float v) { return v * scale; });
}

/// The model's logits through the reference loops, layer by layer.
FloatTensor reference_predict(const Sequential& model, const FloatTensor& image) {
    FloatTensor x = image;
    for (std::size_t l = 0; l < model.layer_count(); ++l) {
        const Layer& layer = model.layer(l);
        if (const auto* conv = dynamic_cast<const Conv2d*>(&layer)) {
            x = reference_conv2d(x, conv->weight().value, conv->bias().value);
        } else if (const auto* dense = dynamic_cast<const Dense*>(&layer)) {
            x = reference_dense(x, dense->weight().value, dense->bias().value);
        } else if (const auto* bconv = dynamic_cast<const Binarized<Conv2d>*>(&layer)) {
            x = reference_binarized(x, bconv->inner().weight(), bconv->inner().bias(),
                                    reference_conv2d);
        } else if (const auto* bdense = dynamic_cast<const Binarized<Dense>*>(&layer)) {
            x = reference_binarized(x, bdense->inner().weight(), bdense->inner().bias(),
                                    reference_dense);
        } else if (dynamic_cast<const MaxPool2d*>(&layer) != nullptr) {
            x = reference_maxpool(x);
        } else if (dynamic_cast<const TanhActivation*>(&layer) != nullptr) {
            x = reference_elementwise(x, [](float v) { return std::tanh(v); });
        } else if (dynamic_cast<const SignActivation*>(&layer) != nullptr) {
            x = reference_elementwise(x, sign_of);
        } else {
            ADD_FAILURE() << "no reference loop for layer " << layer.name();
        }
    }
    return x;
}

TEST(FloatKernels, LayersMatchReferenceOnOddShapes) {
    // Non-square planes, several input channels and an output count that
    // is not a multiple of the dense kernel's four-output block.
    Rng rng(110);
    Conv2d conv(3, 5, 3, rng);
    conv.bias().value = random_tensor(Shape{5}, rng);
    const FloatTensor conv_in = random_tensor(Shape{3, 9, 7}, rng);
    EXPECT_TRUE(same_bits(conv.infer(conv_in),
                          reference_conv2d(conv_in, conv.weight().value, conv.bias().value)));
    EXPECT_TRUE(same_bits(conv.forward(conv_in), conv.infer(conv_in)));

    Dense dense(37, 7, rng);
    dense.bias().value = random_tensor(Shape{7}, rng);
    const FloatTensor dense_in = random_tensor(Shape{37}, rng);
    EXPECT_TRUE(same_bits(dense.infer(dense_in),
                          reference_dense(dense_in, dense.weight().value, dense.bias().value)));
    EXPECT_TRUE(same_bits(dense.forward(dense_in), dense.infer(dense_in)));

    MaxPool2d pool;
    FloatTensor pool_in = random_tensor(Shape{3, 6, 8}, rng);
    pool_in.at(1, 2, 2) = pool_in.at(1, 2, 3) = 5.0f; // a tied window maximum
    EXPECT_TRUE(same_bits(pool.infer(pool_in), reference_maxpool(pool_in)));
    EXPECT_TRUE(same_bits(pool.forward(pool_in), pool.infer(pool_in)));
    // The gradient goes to the first maximum in window order.
    const FloatTensor grad = pool.backward(FloatTensor(Shape{3, 3, 4}, 1.0f));
    EXPECT_EQ(grad.at(1, 2, 2), 1.0f);
    EXPECT_EQ(grad.at(1, 2, 3), 0.0f);
}

class FloatKernelOracle : public ::testing::TestWithParam<Architecture> {};

TEST_P(FloatKernelOracle, PredictAndForwardMatchReferenceBitwise) {
    Rng rng(120);
    Sequential model = build_architecture(GetParam(), rng);
    // Initial biases are zero; random ones pin the bias-first order too.
    for (Parameter* p : model.parameters()) {
        if (p->value.shape().rank() == 1) p->value = random_tensor(p->value.shape(), rng, 0.5);
    }
    for (std::size_t i = 0; i < 50; ++i) {
        const FloatTensor image = data::render_sample(121, i).image;
        const FloatTensor expected = reference_predict(model, image);
        EXPECT_TRUE(same_bits(model.predict(image), expected)) << "predict, image " << i;
        EXPECT_TRUE(same_bits(model.forward(image), expected)) << "forward, image " << i;
    }
}

INSTANTIATE_TEST_SUITE_P(AllZooVictims, FloatKernelOracle,
                         ::testing::Values(Architecture::LeNet5, Architecture::MiniCnn,
                                           Architecture::Mlp, Architecture::Bnn),
                         [](const ::testing::TestParamInfo<Architecture>& info) {
                             return std::string(architecture_name(info.param));
                         });

// ----------------------------------------------- gradient (finite diff)

/// Numerical gradient check: perturb each input/parameter element and
/// compare the finite difference of a scalar loss against backprop.
template <typename MakeLayer>
void check_gradients(MakeLayer make_layer, Shape input_shape, std::uint64_t seed) {
    Rng rng(seed);
    auto layer = make_layer(rng);
    FloatTensor input = random_tensor(input_shape, rng);

    // Scalar loss = weighted sum of outputs (fixed random weights).
    const Shape out_shape = layer->output_shape(input_shape);
    FloatTensor loss_w = random_tensor(out_shape, rng);

    auto loss_of = [&](const FloatTensor& x) {
        const FloatTensor y = layer->forward(x);
        double loss = 0.0;
        for (std::size_t i = 0; i < y.size(); ++i) {
            loss += static_cast<double>(y.at_unchecked(i)) * loss_w.at_unchecked(i);
        }
        return loss;
    };

    // Analytic gradients.
    layer->forward(input);
    for (Parameter* p : layer->parameters()) p->zero_grad();
    const FloatTensor grad_input = layer->backward(loss_w);

    const double eps = 1e-3;

    // d loss / d input.
    for (std::size_t i = 0; i < input.size(); i += std::max<std::size_t>(1, input.size() / 17)) {
        FloatTensor plus = input;
        FloatTensor minus = input;
        plus.at_unchecked(i) += static_cast<float>(eps);
        minus.at_unchecked(i) -= static_cast<float>(eps);
        const double numeric = (loss_of(plus) - loss_of(minus)) / (2 * eps);
        EXPECT_NEAR(grad_input.at_unchecked(i), numeric, 2e-2)
            << "input grad element " << i;
    }

    // d loss / d parameters.
    layer->forward(input);
    for (Parameter* p : layer->parameters()) p->zero_grad();
    layer->backward(loss_w);
    for (Parameter* p : layer->parameters()) {
        for (std::size_t i = 0; i < p->value.size();
             i += std::max<std::size_t>(1, p->value.size() / 13)) {
            const float saved = p->value.at_unchecked(i);
            p->value.at_unchecked(i) = saved + static_cast<float>(eps);
            const double up = loss_of(input);
            p->value.at_unchecked(i) = saved - static_cast<float>(eps);
            const double down = loss_of(input);
            p->value.at_unchecked(i) = saved;
            const double numeric = (up - down) / (2 * eps);
            EXPECT_NEAR(p->grad.at_unchecked(i), numeric, 2e-2)
                << "param grad element " << i;
        }
    }
}

TEST(Gradients, Conv2d) {
    check_gradients(
        [](Rng& rng) { return std::make_unique<Conv2d>(2, 3, 3, rng); },
        Shape{2, 6, 6}, 101);
}

TEST(Gradients, Dense) {
    check_gradients(
        [](Rng& rng) { return std::make_unique<Dense>(12, 5, rng); },
        Shape{12}, 102);
}

TEST(Gradients, Tanh) {
    check_gradients(
        [](Rng&) { return std::make_unique<TanhActivation>(); },
        Shape{10}, 103);
}

TEST(Gradients, MaxPool) {
    check_gradients(
        [](Rng&) { return std::make_unique<MaxPool2d>(); },
        Shape{2, 4, 4}, 104);
}

TEST(Gradients, Relu) {
    check_gradients(
        [](Rng&) { return std::make_unique<ReluActivation>(); },
        Shape{12}, 106);
}

TEST(Gradients, AvgPool) {
    check_gradients(
        [](Rng&) { return std::make_unique<AvgPool2d>(); },
        Shape{2, 4, 4}, 107);
}

TEST(Relu, ForwardClampsNegatives) {
    ReluActivation relu;
    FloatTensor input(Shape{3});
    input.at(0) = -2.0f;
    input.at(1) = 0.0f;
    input.at(2) = 1.5f;
    const FloatTensor out = relu.forward(input);
    EXPECT_FLOAT_EQ(out.at(0), 0.0f);
    EXPECT_FLOAT_EQ(out.at(1), 0.0f);
    EXPECT_FLOAT_EQ(out.at(2), 1.5f);
}

TEST(AvgPool2d, ForwardAverages) {
    AvgPool2d pool;
    FloatTensor input(Shape{1, 2, 2});
    input.at(0, 0, 0) = 1.0f;
    input.at(0, 0, 1) = 2.0f;
    input.at(0, 1, 0) = 3.0f;
    input.at(0, 1, 1) = 6.0f;
    const FloatTensor out = pool.forward(input);
    EXPECT_FLOAT_EQ(out.at(0, 0, 0), 3.0f);
    EXPECT_THROW(pool.output_shape(Shape{1, 3, 2}), ContractError);
}

TEST(Gradients, SoftmaxCrossEntropy) {
    Rng rng(105);
    FloatTensor logits = random_tensor(Shape{6}, rng, 2.0);
    const std::size_t label = 2;
    const LossResult res = softmax_cross_entropy(logits, label);

    const double eps = 1e-4;
    for (std::size_t i = 0; i < logits.size(); ++i) {
        FloatTensor plus = logits;
        FloatTensor minus = logits;
        plus.at_unchecked(i) += static_cast<float>(eps);
        minus.at_unchecked(i) -= static_cast<float>(eps);
        const double up = softmax_cross_entropy(plus, label).loss;
        const double down = softmax_cross_entropy(minus, label).loss;
        EXPECT_NEAR(res.grad_logits.at_unchecked(i), (up - down) / (2 * eps), 1e-3);
    }
}

// ------------------------------------------------------------ Sequential

TEST(Sequential, LeNetShapesAndParamCount) {
    Rng rng(7);
    Sequential model = build_architecture(Architecture::LeNet5, rng);
    EXPECT_EQ(model.output_shape(Shape{1, 28, 28}), Shape({10}));
    // conv1: 6*1*25+6, conv2: 16*6*25+16, fc1: 120*1024+120, fc2: 10*120+10
    const std::size_t expected = (6 * 25 + 6) + (16 * 6 * 25 + 16) +
                                 (120 * 1024 + 120) + (10 * 120 + 10);
    EXPECT_EQ(model.parameter_count(), expected);
}

TEST(Sequential, ForwardBackwardRuns) {
    Rng rng(8);
    Sequential model = build_architecture(Architecture::LeNet5, rng);
    FloatTensor input = random_tensor(Shape{1, 28, 28}, rng);
    const FloatTensor logits = model.forward(input);
    EXPECT_EQ(logits.size(), 10u);
    const LossResult loss = softmax_cross_entropy(logits, 3);
    model.zero_grad();
    model.backward(loss.grad_logits);
    // Gradients must be non-zero somewhere in every parameterized layer.
    for (Parameter* p : model.parameters()) {
        double norm = 0.0;
        for (std::size_t i = 0; i < p->grad.size(); ++i) {
            norm += std::abs(p->grad.at_unchecked(i));
        }
        EXPECT_GT(norm, 0.0);
    }
}

TEST(Sequential, BackwardWithoutForwardThrows) {
    Rng rng(9);
    Conv2d conv(1, 1, 3, rng);
    FloatTensor g(Shape{1, 2, 2});
    EXPECT_THROW(conv.backward(g), ContractError);
}

} // namespace
} // namespace deepstrike::nn
