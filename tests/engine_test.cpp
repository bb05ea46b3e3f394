#include <gtest/gtest.h>

#include "accel/engine.hpp"
#include "test_helpers.hpp"
#include "util/error.hpp"

namespace deepstrike::accel {
namespace {

using deepstrike::testing::random_qimage;
using deepstrike::testing::random_qnetwork;
using deepstrike::testing::run_engine;

AccelEngine make_engine(std::uint64_t weight_seed = 1, std::uint64_t board_seed = 2021) {
    return AccelEngine(random_qnetwork(weight_seed), AccelConfig::pynq_z1(), board_seed);
}

/// A trace at nominal voltage everywhere (2 capture samples per cycle).
VoltageTrace nominal_trace(const AccelEngine& engine) {
    return VoltageTrace(engine.schedule().total_cycles * 2, 1.0);
}

/// Drops the capture voltage to `v` for all cycles of one segment.
VoltageTrace segment_glitch_trace(const AccelEngine& engine, const std::string& label,
                                  double v) {
    VoltageTrace trace = nominal_trace(engine);
    const LayerSegment& seg = engine.schedule().segment_for(label);
    for (std::size_t i = seg.start_cycle * 2; i < seg.end_cycle() * 2; ++i) {
        trace[i] = v;
    }
    return trace;
}

TEST(Engine, CleanRunMatchesGoldenModel) {
    const quant::QNetwork golden = random_qnetwork(5);
    const AccelEngine engine(golden, AccelConfig::pynq_z1(), 2021);

    for (std::uint64_t s = 0; s < 5; ++s) {
        const QTensor img = random_qimage(100 + s);
        Rng rng(s);
        const RunResult run = run_engine(engine, img, nullptr, rng);
        const QTensor logits = golden.forward(img);
        EXPECT_EQ(run.logits, logits) << "image seed " << s;
        EXPECT_EQ(run.predicted, argmax(logits));
        EXPECT_EQ(run.faults_total.total(), 0u);
    }
}

TEST(Engine, NominalTraceAlsoFaultFree) {
    const AccelEngine engine = make_engine();
    const VoltageTrace trace = nominal_trace(engine);
    Rng rng(1);
    const RunResult run = run_engine(engine, random_qimage(7), &trace, rng);
    EXPECT_EQ(run.faults_total.total(), 0u);
}

TEST(Engine, CleanRunIsRngIndependent) {
    const AccelEngine engine = make_engine();
    const QTensor img = random_qimage(8);
    Rng rng_a(111);
    Rng rng_b(999);
    const RunResult a = run_engine(engine, img, nullptr, rng_a);
    const RunResult b = run_engine(engine, img, nullptr, rng_b);
    EXPECT_EQ(a.logits, b.logits);
}

TEST(Engine, GlitchedSegmentProducesFaultsThereOnly) {
    const AccelEngine engine = make_engine();
    const VoltageTrace trace = segment_glitch_trace(engine, "CONV2", 0.94);
    Rng rng(3);
    const RunResult run = run_engine(engine, random_qimage(9), &trace, rng);

    EXPECT_GT(run.faults_total.total(), 0u);
    EXPECT_GT(run.faults_for("CONV2").total(), 0u);
    EXPECT_EQ(run.faults_for("CONV1").total(), 0u);
    EXPECT_EQ(run.faults_for("FC1").total(), 0u);
}

TEST(Engine, FaultsIncreaseWithDroopDepth) {
    const AccelEngine engine = make_engine();
    const QTensor img = random_qimage(10);
    std::size_t prev = 0;
    for (double v : {0.965, 0.955, 0.945, 0.930}) {
        const VoltageTrace trace = segment_glitch_trace(engine, "CONV2", v);
        Rng rng(4);
        const RunResult run = run_engine(engine, img, &trace, rng);
        EXPECT_GE(run.faults_total.total() + 50, prev) << "v=" << v;
        prev = run.faults_total.total();
    }
    EXPECT_GT(prev, 100u);
}

TEST(Engine, DeterministicForFixedRngSeed) {
    const AccelEngine engine = make_engine();
    const VoltageTrace trace = segment_glitch_trace(engine, "CONV2", 0.95);
    const QTensor img = random_qimage(11);
    Rng rng_a(42);
    Rng rng_b(42);
    const RunResult a = run_engine(engine, img, &trace, rng_a);
    const RunResult b = run_engine(engine, img, &trace, rng_b);
    EXPECT_EQ(a.logits, b.logits);
    EXPECT_EQ(a.faults_total.duplication, b.faults_total.duplication);
    EXPECT_EQ(a.faults_total.random, b.faults_total.random);
}

TEST(Engine, DuplicationDominatesShallowRandomDominatesDeep) {
    const AccelEngine engine = make_engine();
    const QTensor img = random_qimage(12);

    Rng rng_a(5);
    const VoltageTrace shallow = segment_glitch_trace(engine, "CONV2", 0.956);
    const RunResult sr = run_engine(engine, img, &shallow, rng_a);
    ASSERT_GT(sr.faults_total.total(), 0u);
    EXPECT_GT(sr.faults_total.duplication, sr.faults_total.random);

    Rng rng_b(6);
    const VoltageTrace deep = segment_glitch_trace(engine, "CONV2", 0.90);
    const RunResult dr = run_engine(engine, img, &deep, rng_b);
    EXPECT_GT(dr.faults_total.random, dr.faults_total.duplication);
}

TEST(Engine, FcSegmentsUseRelaxedTiming) {
    // The same glitch depth that faults conv ops heavily barely faults FC
    // ops (more sign-off slack on the FC datapath).
    const AccelEngine engine = make_engine();
    const QTensor img = random_qimage(13);
    const double v = 0.958;

    Rng rng_a(7);
    const VoltageTrace conv_trace = segment_glitch_trace(engine, "CONV2", v);
    const RunResult conv = run_engine(engine, img, &conv_trace, rng_a);
    Rng rng_b(8);
    const VoltageTrace fc_trace = segment_glitch_trace(engine, "FC1", v);
    const RunResult fc = run_engine(engine, img, &fc_trace, rng_b);

    const double conv_rate =
        static_cast<double>(conv.faults_total.total()) /
        static_cast<double>(engine.schedule().segment_for("CONV2").total_ops);
    const double fc_rate =
        static_cast<double>(fc.faults_total.total()) /
        static_cast<double>(engine.schedule().segment_for("FC1").total_ops);
    EXPECT_GT(conv_rate, fc_rate * 2.0);
}

TEST(Engine, Conv1LessSensitiveThanConv2PerOp) {
    const AccelEngine engine = make_engine();
    const QTensor img = random_qimage(14);
    const double v = 0.955;

    Rng rng_a(9);
    const VoltageTrace t1 = segment_glitch_trace(engine, "CONV1", v);
    const RunResult r1 = run_engine(engine, img, &t1, rng_a);
    Rng rng_b(10);
    const VoltageTrace t2 = segment_glitch_trace(engine, "CONV2", v);
    const RunResult r2 = run_engine(engine, img, &t2, rng_b);

    const double rate1 =
        static_cast<double>(r1.faults_total.total()) /
        static_cast<double>(engine.schedule().segment_for("CONV1").total_ops);
    const double rate2 =
        static_cast<double>(r2.faults_total.total()) /
        static_cast<double>(engine.schedule().segment_for("CONV2").total_ops);
    EXPECT_LT(rate1, rate2);
}

TEST(Engine, PoolImmuneAtDspFaultingDroop) {
    const AccelEngine engine = make_engine();
    Rng rng(11);
    const VoltageTrace trace = segment_glitch_trace(engine, "POOL1", 0.94);
    const RunResult run = run_engine(engine, random_qimage(15), &trace, rng);
    EXPECT_EQ(run.faults_total.total(), 0u);
}

TEST(Engine, ShortTraceTreatedAsNominalPastEnd) {
    const AccelEngine engine = make_engine();
    // Trace covering only the first 100 cycles, all nominal.
    VoltageTrace trace(200, 1.0);
    Rng rng(12);
    const RunResult run = run_engine(engine, random_qimage(16), &trace, rng);
    EXPECT_EQ(run.faults_total.total(), 0u);
}

TEST(Engine, RejectsWrongInputShape) {
    const AccelEngine engine = make_engine();
    Rng rng(13);
    const QTensor img = random_qimage(17);
    const quant::QNetwork::ForwardTrace golden = engine.network().forward_trace(img);
    const OverlayPlan plan = engine.plan_overlay(nullptr);
    QTensor bad(Shape{1, 14, 14});
    EXPECT_THROW(engine.run_elided(bad, golden.activations, golden.accumulators, nullptr,
                                   rng, plan),
                 ContractError);
}

TEST(Engine, SameBoardSeedSameSliceVariation) {
    const AccelEngine a = make_engine(1, 777);
    const AccelEngine b = make_engine(2, 777); // weights differ, board same
    ASSERT_EQ(a.conv_dsps().size(), b.conv_dsps().size());
    for (std::size_t i = 0; i < a.conv_dsps().size(); ++i) {
        EXPECT_DOUBLE_EQ(a.conv_dsps()[i].path_delay_s(), b.conv_dsps()[i].path_delay_s());
    }
}

TEST(Engine, SafeVoltagesOrdered) {
    const AccelEngine engine = make_engine();
    // Conv datapath is the tightest: it faults at the highest voltage.
    EXPECT_GT(engine.conv_safe_voltage(), engine.fc_safe_voltage());
    EXPECT_EQ(engine.dsp_safe_voltage(), engine.conv_safe_voltage());
}

} // namespace
} // namespace deepstrike::accel
