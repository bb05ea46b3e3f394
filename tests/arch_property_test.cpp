// Property tests over randomly generated victim architectures: for any
// valid conv/pool/dense stack, the cycle-level engine must agree with the
// golden quantized model bit-exactly on clean runs, the schedule must be
// consistent, and fault attribution must stay within the struck layer.
#include <gtest/gtest.h>

#include "accel/engine.hpp"
#include "quant/qnetwork.hpp"
#include "test_helpers.hpp"

namespace deepstrike::quant {
namespace {

using deepstrike::testing::random_qtensor;
using deepstrike::testing::run_engine;

/// Generates a random valid network for a [1,28,28] input: a few conv/pool
/// stages while the spatial size allows, then 1-2 dense layers.
QNetwork random_network(std::uint64_t seed) {
    Rng rng(seed);
    QNetwork net;
    net.input_shape = Shape{1, 28, 28};

    std::size_t channels = 1;
    std::size_t hw = 28;
    std::size_t conv_n = 0;
    std::size_t pool_n = 0;

    const std::size_t stages = 1 + static_cast<std::size_t>(rng.uniform_int(0, 2));
    for (std::size_t s = 0; s < stages; ++s) {
        const std::size_t k = rng.bernoulli(0.5) ? 3 : 5;
        if (hw < k + 2) break;
        const std::size_t out_c = 2 + static_cast<std::size_t>(rng.uniform_int(0, 6));
        const Activation act = rng.bernoulli(0.5)
                                   ? Activation::Tanh
                                   : (rng.bernoulli(0.5) ? Activation::Relu
                                                         : Activation::None);
        QLayer conv{QLayerKind::Conv, "CONV" + std::to_string(++conv_n),
                    random_qtensor(Shape{out_c, channels, k, k}, rng, 0.4),
                    random_qtensor(Shape{out_c}, rng, 0.2), act};
        net.layers.push_back(std::move(conv));
        channels = out_c;
        hw = hw - k + 1;

        if (hw % 2 == 0 && hw >= 4 && rng.bernoulli(0.7)) {
            const QLayerKind pool_kind =
                rng.bernoulli(0.5) ? QLayerKind::Pool2 : QLayerKind::AvgPool2;
            net.layers.push_back(
                {pool_kind, "POOL" + std::to_string(++pool_n), {}, {}, Activation::None});
            hw /= 2;
        }
    }

    std::size_t features = channels * hw * hw;
    if (rng.bernoulli(0.6)) {
        const std::size_t hidden = 8 + static_cast<std::size_t>(rng.uniform_int(0, 56));
        net.layers.push_back({QLayerKind::Dense, "FC1",
                              random_qtensor(Shape{hidden, features}, rng, 0.2),
                              random_qtensor(Shape{hidden}, rng, 0.2),
                              rng.bernoulli(0.5) ? Activation::Tanh
                                                 : Activation::Relu});
        features = hidden;
        net.layers.push_back({QLayerKind::Dense, "FC2",
                              random_qtensor(Shape{10, features}, rng, 0.3),
                              random_qtensor(Shape{10}, rng, 0.2), Activation::None});
    } else {
        net.layers.push_back({QLayerKind::Dense, "FC1",
                              random_qtensor(Shape{10, features}, rng, 0.3),
                              random_qtensor(Shape{10}, rng, 0.2), Activation::None});
    }
    net.layer_output_shapes(); // validate
    return net;
}

class RandomArchTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RandomArchTest, EngineBitExactWithGoldenOnCleanRun) {
    const QNetwork net = random_network(GetParam());
    const accel::AccelEngine engine(net, accel::AccelConfig::pynq_z1(), 2021);
    for (std::uint64_t s = 0; s < 2; ++s) {
        const QTensor img = deepstrike::testing::random_qimage(300 + s);
        Rng fault_rng(s);
        const accel::RunResult run = run_engine(engine, img, nullptr, fault_rng);
        EXPECT_EQ(run.logits, net.forward(img));
        EXPECT_EQ(run.faults_total.total(), 0u);
        EXPECT_EQ(run.predicted, argmax(net.forward(img)));
    }
}

TEST_P(RandomArchTest, ScheduleIsContiguousAndCountsOps) {
    const QNetwork net = random_network(GetParam());
    const accel::AccelConfig cfg = accel::AccelConfig::pynq_z1();
    const accel::Schedule sched = accel::build_schedule(net, cfg);

    std::size_t cursor = 0;
    std::size_t compute_segments = 0;
    for (const auto& seg : sched.segments) {
        EXPECT_EQ(seg.start_cycle, cursor);
        cursor = seg.end_cycle();
        if (seg.kind == accel::SegmentKind::Stall) continue;
        ++compute_segments;
        // Cycle count covers the ops at the configured issue rate.
        EXPECT_GE(seg.cycles * seg.ops_per_cycle, seg.total_ops);
        EXPECT_LT((seg.cycles - 1) * seg.ops_per_cycle, seg.total_ops);
    }
    EXPECT_EQ(cursor, sched.total_cycles);
    EXPECT_EQ(compute_segments, net.layers.size());

    // Per-layer op counts match the network's own accounting.
    Shape in_shape = net.input_shape;
    const auto shapes = net.layer_output_shapes();
    for (std::size_t i = 0; i < net.layers.size(); ++i) {
        Shape effective = in_shape;
        if (net.layers[i].kind == QLayerKind::Dense && effective.rank() != 1) {
            effective = Shape{effective.elements()};
        }
        EXPECT_EQ(sched.segment_for_layer(i).total_ops,
                  net.layers[i].op_count(effective));
        in_shape = shapes[i];
    }
}

TEST_P(RandomArchTest, FaultsStayInsideTheStruckLayer) {
    const QNetwork net = random_network(GetParam());
    const accel::AccelEngine engine(net, accel::AccelConfig::pynq_z1(), 2021);

    // Strike the first DSP layer (conv or dense).
    std::size_t target = net.layers.size();
    for (std::size_t i = 0; i < net.layers.size(); ++i) {
        if (net.layers[i].kind != QLayerKind::Pool2) {
            target = i;
            break;
        }
    }
    ASSERT_LT(target, net.layers.size());

    const auto& seg = engine.schedule().segment_for_layer(target);
    accel::VoltageTrace trace(engine.schedule().total_cycles * 2, 1.0);
    for (std::size_t i = seg.start_cycle * 2; i < seg.end_cycle() * 2; ++i) {
        trace[i] = 0.93;
    }

    Rng rng(GetParam() ^ 0xF00D);
    const accel::RunResult run =
        run_engine(engine, deepstrike::testing::random_qimage(7), &trace, rng);
    EXPECT_GT(run.faults_total.total(), 0u);
    ASSERT_EQ(run.faults_by_layer.size(), net.layers.size());
    for (std::size_t i = 0; i < net.layers.size(); ++i) {
        if (i != target) {
            EXPECT_EQ(run.faults_by_layer[i].total(), 0u) << net.layers[i].label;
        }
    }
}

INSTANTIATE_TEST_SUITE_P(RandomArchitectures, RandomArchTest,
                         ::testing::Range<std::uint64_t>(1, 13));

} // namespace
} // namespace deepstrike::quant
