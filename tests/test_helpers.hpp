// Shared fixtures/helpers for the deepstrike test suite.
#pragma once

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "accel/engine.hpp"
#include "quant/qnetwork.hpp"
#include "sim/platform.hpp"
#include "util/checksum.hpp"
#include "util/rng.hpp"
#include "util/simd.hpp"

namespace deepstrike::testing {

/// Strike source replaying a fixed absolute schedule: the striker fires in
/// cycle c when bits[c] is set. It never listens to the TDC.
class FixedSource final : public sim::StrikeSource {
public:
    explicit FixedSource(BitVec bits) : bits_(std::move(bits)) {}
    bool strike_bit(std::size_t cycle) override {
        return cycle < bits_.size() && bits_.get(cycle);
    }
    bool listens() const override { return false; }

private:
    BitVec bits_;
};

/// Restores the process-wide SIMD mode on scope exit so tests cannot leak
/// a forced mode into the rest of the suite.
struct SimdGuard {
    simd::Mode saved = simd::mode();
    ~SimdGuard() { simd::set_mode(saved); }
};

/// The IEEE-754 bit pattern of `value`, for bit-exact comparisons.
inline std::uint64_t bits_of(double value) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &value, sizeof(bits));
    return bits;
}

/// Same shape and the same float bytes: bitwise, unlike EXPECT_NEAR or
/// float ==, so -0.0 vs 0.0 or a NaN payload counts as a difference.
inline ::testing::AssertionResult same_bits(const FloatTensor& actual,
                                            const FloatTensor& expected) {
    if (actual.shape() != expected.shape()) {
        return ::testing::AssertionFailure() << "shape " << actual.shape().to_string()
                                             << " vs " << expected.shape().to_string();
    }
    if (std::memcmp(actual.data(), expected.data(), expected.size() * sizeof(float)) != 0) {
        return ::testing::AssertionFailure() << "float bits differ";
    }
    return ::testing::AssertionSuccess();
}

/// The writeback rounding in its plain if/else form: round the magnitude
/// to nearest (ties away from zero), restore the sign, then saturate. The
/// test oracle of fx::Q3_4::from_accumulator.
inline fx::Q3_4 naive_from_accumulator(fx::Acc acc) {
    constexpr int shift = fx::Q3_4::frac_bits;
    constexpr fx::Acc half = fx::Acc{1} << (shift - 1);
    fx::Acc rounded;
    if (acc >= 0) {
        rounded = (acc + half) >> shift;
    } else {
        rounded = -((-acc + half) >> shift);
    }
    if (rounded > fx::Q3_4::raw_max) rounded = fx::Q3_4::raw_max;
    if (rounded < fx::Q3_4::raw_min) rounded = fx::Q3_4::raw_min;
    return fx::Q3_4::from_raw(static_cast<std::int16_t>(rounded));
}

/// 2x2/stride-2 pooling of a [C,H,W] tensor in its plain form: each
/// window read through at(), a comparison chain for the max, and an
/// if/else rounded quotient (nearest, ties away from zero) for the
/// average. The test oracle of quant::qmaxpool2 and quant::qavgpool2.
inline QTensor naive_pool2(const QTensor& input, bool average) {
    const std::size_t ch = input.shape().dim(0);
    const std::size_t oh = input.shape().dim(1) / 2;
    const std::size_t ow = input.shape().dim(2) / 2;
    QTensor out(Shape{ch, oh, ow});
    for (std::size_t c = 0; c < ch; ++c) {
        for (std::size_t r = 0; r < oh; ++r) {
            for (std::size_t w = 0; w < ow; ++w) {
                const std::int32_t v[4] = {input.at(c, 2 * r, 2 * w).raw(),
                                           input.at(c, 2 * r, 2 * w + 1).raw(),
                                           input.at(c, 2 * r + 1, 2 * w).raw(),
                                           input.at(c, 2 * r + 1, 2 * w + 1).raw()};
                std::int32_t result = v[0];
                if (average) {
                    const std::int32_t sum = v[0] + v[1] + v[2] + v[3];
                    if (sum >= 0) {
                        result = (sum + 2) / 4;
                    } else {
                        result = -((-sum + 2) / 4);
                    }
                } else {
                    for (int i = 1; i < 4; ++i) {
                        if (v[i] > result) result = v[i];
                    }
                }
                out.at(c, r, w) = fx::Q3_4::from_raw(static_cast<std::int16_t>(result));
            }
        }
    }
    return out;
}

/// Naive valid convolution: each output element (oc, r, c) walks its
/// receptive field in (ic, kr, kc) order. Returns the pre-writeback
/// accumulators (bias folded, product units), oc-major. The test oracle of
/// quant::gemm::conv2d_accs.
inline std::vector<fx::Acc> naive_conv_accs(const QTensor& input, const QTensor& weight,
                                            const QTensor& bias) {
    const std::size_t in_c = input.shape().dim(0);
    const std::size_t in_h = input.shape().dim(1);
    const std::size_t in_w = input.shape().dim(2);
    const std::size_t out_c = weight.shape().dim(0);
    const std::size_t k = weight.shape().dim(2);
    const std::size_t out_h = in_h - k + 1;
    const std::size_t out_w = in_w - k + 1;
    std::vector<fx::Acc> accs;
    accs.reserve(out_c * out_h * out_w);
    for (std::size_t oc = 0; oc < out_c; ++oc) {
        for (std::size_t r = 0; r < out_h; ++r) {
            for (std::size_t c = 0; c < out_w; ++c) {
                fx::Acc acc = static_cast<fx::Acc>(bias.at(oc).raw()) << fx::Q3_4::frac_bits;
                for (std::size_t ic = 0; ic < in_c; ++ic) {
                    for (std::size_t kr = 0; kr < k; ++kr) {
                        for (std::size_t kc = 0; kc < k; ++kc) {
                            acc += static_cast<fx::Acc>(input.at(ic, r + kr, c + kc).raw()) *
                                   weight.at(oc, ic, kr, kc).raw();
                        }
                    }
                }
                accs.push_back(acc);
            }
        }
    }
    return accs;
}

/// Naive dense layer over the flattened input. The test oracle of
/// quant::gemm::dense_accs.
inline std::vector<fx::Acc> naive_dense_accs(const QTensor& input, const QTensor& weight,
                                             const QTensor& bias) {
    const std::size_t out_n = weight.shape().dim(0);
    const std::size_t in_n = weight.shape().dim(1);
    std::vector<fx::Acc> accs(out_n);
    for (std::size_t o = 0; o < out_n; ++o) {
        fx::Acc acc = static_cast<fx::Acc>(bias.at(o).raw()) << fx::Q3_4::frac_bits;
        for (std::size_t i = 0; i < in_n; ++i) {
            acc += static_cast<fx::Acc>(input.at_unchecked(i).raw()) * weight.at(o, i).raw();
        }
        accs[o] = acc;
    }
    return accs;
}

/// Writeback through the naive if/else rounding (not the product's
/// branch-free Q3_4::from_accumulator).
inline QTensor naive_write_back(const std::vector<fx::Acc>& accs, const Shape& shape,
                                quant::Activation activation) {
    QTensor out(shape);
    for (std::size_t p = 0; p < accs.size(); ++p) {
        out.at_unchecked(p) =
            quant::apply_activation(naive_from_accumulator(accs[p]), activation);
    }
    return out;
}

/// One golden pass through the naive loops, the naive pooling included:
/// the test oracle of QNetwork::forward_trace.
inline quant::QNetwork::ForwardTrace naive_trace(const quant::QNetwork& net,
                                                 const QTensor& image) {
    quant::QNetwork::ForwardTrace trace;
    trace.accumulators.resize(net.layers.size());
    const std::vector<Shape> shapes = net.layer_output_shapes();
    const QTensor* x = &image;
    for (std::size_t i = 0; i < net.layers.size(); ++i) {
        const quant::QLayer& layer = net.layers[i];
        switch (layer.kind) {
            case quant::QLayerKind::Conv:
                trace.accumulators[i] = naive_conv_accs(*x, layer.weight, layer.bias);
                trace.activations.push_back(
                    naive_write_back(trace.accumulators[i], shapes[i], layer.activation));
                break;
            case quant::QLayerKind::Pool2:
                trace.activations.push_back(naive_pool2(*x, /*average=*/false));
                break;
            case quant::QLayerKind::AvgPool2:
                trace.activations.push_back(naive_pool2(*x, /*average=*/true));
                break;
            case quant::QLayerKind::Dense:
                trace.accumulators[i] = naive_dense_accs(*x, layer.weight, layer.bias);
                trace.activations.push_back(
                    naive_write_back(trace.accumulators[i], shapes[i], layer.activation));
                break;
        }
        x = &trace.activations.back();
    }
    return trace;
}

/// Same shape and raw codes, element by element.
inline void expect_same_tensor(const QTensor& got, const QTensor& want,
                               const std::string& what) {
    ASSERT_EQ(got.shape(), want.shape()) << what;
    for (std::size_t i = 0; i < got.size(); ++i) {
        ASSERT_EQ(got.at_unchecked(i).raw(), want.at_unchecked(i).raw())
            << what << " element " << i;
    }
}

/// Same activations and accumulators, layer by layer.
inline void expect_same_trace(const quant::QNetwork::ForwardTrace& got,
                              const quant::QNetwork::ForwardTrace& want,
                              const std::string& what) {
    ASSERT_EQ(got.activations.size(), want.activations.size()) << what;
    ASSERT_EQ(got.accumulators.size(), want.accumulators.size()) << what;
    for (std::size_t l = 0; l < want.activations.size(); ++l) {
        expect_same_tensor(got.activations[l], want.activations[l],
                           what + " act layer " + std::to_string(l));
        ASSERT_EQ(got.accumulators[l], want.accumulators[l]) << what << " accs layer " << l;
    }
}

/// The Box–Muller deviate of uniforms u1 and u2 as the eager oracle
/// computes it: mag * cos(angle), or mag * sin(angle) for a pair's second
/// deviate (`sine`), with mag = sqrt(-2 log u1) and angle = 2 pi u2.
inline double eager_deviate(double u1, double u2, bool sine) {
    const double mag = std::sqrt(-2.0 * std::log(u1));
    const double ang = 2.0 * M_PI * u2;
#if defined(__GNUC__) && defined(__GLIBC__)
    double s = 0.0, c = 0.0;
    __builtin_sincos(ang, &s, &c);
#else
    const double s = std::sin(ang);
    const double c = std::cos(ang);
#endif
    return sine ? mag * s : mag * c;
}

/// The eager Box–Muller that Rng::normal() computed before it kept its
/// pair's uniforms and computed the magnitude lazily, as a test oracle: a
/// call with no cached deviate draws both uniforms from `rng` (u1 redrawn
/// while zero), computes the pair's two deviates at once, returns
/// mag * cos(angle) and caches mag * sin(angle) for the next call. It
/// draws nothing else, so other draws from `rng` interleave with it as
/// they did with the old Rng::normal(); reset() is its half of
/// Rng::set_state().
class EagerNormal {
public:
    double operator()(Rng& rng) {
        if (have_cached_) {
            have_cached_ = false;
            return cached_;
        }
        double u1 = 0.0;
        do {
            u1 = rng.uniform();
        } while (u1 == 0.0);
        const double u2 = rng.uniform();
        cached_ = eager_deviate(u1, u2, true);
        have_cached_ = true;
        return eager_deviate(u1, u2, false);
    }

    void reset() { have_cached_ = false; }

private:
    double cached_ = 0.0;
    bool have_cached_ = false;
};

/// The delay comparison DspSlice::evaluate_with_factor made before it
/// bounded the jitter deviate first: the op's delay with standard-normal
/// jitter deviate `z`, in the same evaluation order, against the clock
/// period and the duplication band.
inline accel::FaultKind eager_fault_kind(const accel::DspSlice& slice, double factor,
                                         double z, double path_scale = 1.0) {
    const accel::DspTimingParams& p = slice.params();
    const double jitter = 0.0 + p.op_jitter_sigma * z;
    const double d = slice.path_delay_s() * path_scale * factor * (1.0 + jitter);
    if (d <= p.clock_period_s) return accel::FaultKind::None;
    if (d <= p.clock_period_s * (1.0 + p.duplication_band)) {
        return accel::FaultKind::Duplication;
    }
    return accel::FaultKind::Random;
}

/// Fills a QTensor with small random Q3.4 values in [-max_real, max_real].
inline QTensor random_qtensor(Shape shape, Rng& rng, double max_real = 1.0) {
    QTensor t(shape);
    for (std::size_t i = 0; i < t.size(); ++i) {
        t.at_unchecked(i) = fx::Q3_4::from_real(rng.uniform(-max_real, max_real));
    }
    return t;
}

/// Random (untrained) LeNet-5-shaped QNetwork: correct shapes, plausible
/// magnitudes. Most accelerator/attack tests only need bit-level
/// consistency, not a trained network, and this avoids training in unit
/// tests.
inline quant::QNetwork random_qnetwork(std::uint64_t seed) {
    Rng rng(seed);
    quant::QNetwork net;
    net.input_shape = Shape{1, 28, 28};

    auto conv = [&](const char* label, Shape w_shape, Shape b_shape, double w_max) {
        quant::QLayer layer;
        layer.kind = quant::QLayerKind::Conv;
        layer.label = label;
        layer.weight = random_qtensor(std::move(w_shape), rng, w_max);
        layer.bias = random_qtensor(std::move(b_shape), rng, 0.25);
        layer.activation = quant::Activation::Tanh;
        net.layers.push_back(std::move(layer));
    };
    auto dense = [&](const char* label, Shape w_shape, Shape b_shape, double w_max,
                     quant::Activation activation) {
        quant::QLayer layer;
        layer.kind = quant::QLayerKind::Dense;
        layer.label = label;
        layer.weight = random_qtensor(std::move(w_shape), rng, w_max);
        layer.bias = random_qtensor(std::move(b_shape), rng, 0.25);
        layer.activation = activation;
        net.layers.push_back(std::move(layer));
    };

    conv("CONV1", Shape{6, 1, 5, 5}, Shape{6}, 0.5);
    {
        quant::QLayer pool;
        pool.kind = quant::QLayerKind::Pool2;
        pool.label = "POOL1";
        net.layers.push_back(std::move(pool));
    }
    conv("CONV2", Shape{16, 6, 5, 5}, Shape{16}, 0.35);
    dense("FC1", Shape{120, 1024}, Shape{120}, 0.2, quant::Activation::Tanh);
    dense("FC2", Shape{10, 120}, Shape{10}, 0.3, quant::Activation::None);
    return net;
}

/// Random [1,28,28] image with pixels in [0,1].
inline QTensor random_qimage(std::uint64_t seed) {
    Rng rng(seed);
    QTensor img(Shape{1, 28, 28});
    for (std::size_t i = 0; i < img.size(); ++i) {
        img.at_unchecked(i) = fx::Q3_4::from_real(rng.uniform(0.0, 1.0));
    }
    return img;
}

/// AccelEngine::run_block on a block of one image, from the image's
/// golden pass `golden` (QNetwork::forward_trace, what a golden store
/// holds) and the overlay plan of its trace.
inline accel::RunResult run_one(const accel::AccelEngine& engine, const QTensor& image,
                                const quant::QNetwork::ForwardTrace& golden, Rng& fault_rng,
                                const accel::OverlayPlan& plan,
                                const std::vector<bool>* throttle = nullptr) {
    const accel::GoldenPass pass{&image, &golden.activations, &golden.accumulators};
    return std::move(engine.run_block({&pass, 1}, {&fault_rng, 1}, plan, throttle).front());
}

/// Runs `image` through the product inference path: its golden pass, the
/// overlay plan of `voltage` (nullptr = nominal), then run_one.
inline accel::RunResult run_engine(const accel::AccelEngine& engine, const QTensor& image,
                                   const accel::VoltageTrace* voltage, Rng& fault_rng,
                                   const std::vector<bool>* throttle = nullptr) {
    return run_one(engine, image, engine.network().forward_trace(image), fault_rng,
                   engine.plan_overlay(voltage), throttle);
}

/// The overlay plan of each trace, in order: what sim::evaluate_accuracy
/// reads of a set of attack traces.
inline std::vector<accel::OverlayPlan> plans_of(const accel::AccelEngine& engine,
                                                const std::vector<accel::VoltageTrace>& traces) {
    std::vector<accel::OverlayPlan> plans;
    plans.reserve(traces.size());
    for (const accel::VoltageTrace& trace : traces) plans.push_back(engine.plan_overlay(&trace));
    return plans;
}

/// The faults `run` counted in the layer of `net` labelled `label`
/// (RunResult::faults_by_layer is indexed like QNetwork::layers).
inline accel::FaultCounts layer_faults(const quant::QNetwork& net,
                                       const accel::RunResult& run,
                                       const std::string& label) {
    for (std::size_t i = 0; i < net.layers.size(); ++i) {
        if (net.layers[i].label == label) return run.faults_by_layer.at(i);
    }
    ADD_FAILURE() << "no layer labelled " << label;
    return {};
}

/// Same logits, prediction and fault counts, in total and per layer.
inline void expect_same_run(const accel::RunResult& got, const accel::RunResult& want) {
    ASSERT_EQ(got.logits.size(), want.logits.size());
    for (std::size_t i = 0; i < got.logits.size(); ++i) {
        ASSERT_EQ(got.logits.at_unchecked(i).raw(), want.logits.at_unchecked(i).raw())
            << "logit " << i;
    }
    EXPECT_EQ(got.predicted, want.predicted);
    EXPECT_EQ(got.faults_total.duplication, want.faults_total.duplication);
    EXPECT_EQ(got.faults_total.random, want.faults_total.random);
    ASSERT_EQ(got.faults_by_layer.size(), want.faults_by_layer.size());
    for (std::size_t i = 0; i < got.faults_by_layer.size(); ++i) {
        EXPECT_EQ(got.faults_by_layer[i].duplication, want.faults_by_layer[i].duplication)
            << "layer " << i;
        EXPECT_EQ(got.faults_by_layer[i].random, want.faults_by_layer[i].random)
            << "layer " << i;
    }
}

/// Byte offsets of the first and the last weight in a DSW2 weight file
/// (nn/serialize.hpp). The first follows the magic, the key length and
/// key, the accuracy, the parameter count and the first tensor's size;
/// the last ends where the CRC begins.
struct Dsw2WeightOffsets {
    std::size_t first;
    std::size_t last;
};

inline Dsw2WeightOffsets dsw2_weight_offsets(const std::string& bytes) {
    std::uint32_t key_length = 0;
    std::memcpy(&key_length, bytes.data() + 4, sizeof(key_length));
    return {4 + 4 + std::size_t{key_length} + 8 + 4 + 4,
            bytes.size() - sizeof(std::uint32_t) - sizeof(float)};
}

/// Recomputes a DSW2 weight file's trailing CRC-32, so a patch reaches
/// the parser instead of failing the checksum.
inline void reseal_dsw2(std::string& bytes) {
    const std::size_t sealed = bytes.size() - sizeof(std::uint32_t);
    const std::uint32_t crc = crc32(bytes.data(), sealed);
    std::memcpy(bytes.data() + sealed, &crc, sizeof(crc));
}

} // namespace deepstrike::testing
