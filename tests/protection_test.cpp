// Tests of the in-engine protection modes: TMR voting and the defensive
// clock throttle, plus the victim's structural netlist.
#include <gtest/gtest.h>

#include "accel/engine.hpp"
#include "accel/netlist_builder.hpp"
#include "fabric/drc.hpp"
#include "fabric/resources.hpp"
#include "test_helpers.hpp"

namespace deepstrike::accel {
namespace {

using deepstrike::testing::random_qimage;
using deepstrike::testing::random_qnetwork;
using deepstrike::testing::run_engine;

VoltageTrace glitch_trace(const AccelEngine& engine, const std::string& label,
                          double v) {
    VoltageTrace trace(engine.schedule().total_cycles * 2, 1.0);
    const LayerSegment& seg = engine.schedule().segment_for(label);
    for (std::size_t i = seg.start_cycle * 2; i < seg.end_cycle() * 2; ++i) {
        trace[i] = v;
    }
    return trace;
}

TEST(Tmr, SuppressesFaultsAtModerateDroop) {
    const quant::QNetwork w = random_qnetwork(1);
    AccelConfig plain = AccelConfig::pynq_z1();
    AccelConfig tmr = plain;
    tmr.tmr_protection = true;

    const AccelEngine unprotected(w, plain, 2021);
    const AccelEngine protected_engine(w, tmr, 2021);
    const QTensor img = random_qimage(2);

    const VoltageTrace trace = glitch_trace(unprotected, "CONV2", 0.961);
    Rng rng_a(3);
    Rng rng_b(3);
    const RunResult r_plain = run_engine(unprotected, img, &trace, rng_a);
    const RunResult r_tmr = run_engine(protected_engine, img, &trace, rng_b);

    ASSERT_GT(r_plain.faults_total.total(), 50u);
    // At moderate droop the per-replica fault probability p is small, so
    // majority voting suppresses faults roughly 3p^2/p = 3p-fold.
    EXPECT_LT(r_tmr.faults_total.total(), r_plain.faults_total.total() / 4);
}

TEST(Tmr, CannotSaveDeepGlitches) {
    // When every replica faults (p ~ 1), voting does not help — TMR is a
    // soft-error mitigation, not glitch immunity.
    const quant::QNetwork w = random_qnetwork(4);
    AccelConfig tmr = AccelConfig::pynq_z1();
    tmr.tmr_protection = true;
    const AccelEngine engine(w, tmr, 2021);
    const VoltageTrace trace = glitch_trace(engine, "CONV2", 0.90);
    Rng rng(5);
    const RunResult run = run_engine(engine, random_qimage(6), &trace, rng);
    EXPECT_GT(run.faults_total.total(), 1000u);
}

TEST(Tmr, CleanRunUnaffected) {
    const quant::QNetwork w = random_qnetwork(7);
    AccelConfig tmr = AccelConfig::pynq_z1();
    tmr.tmr_protection = true;
    const AccelEngine engine(w, tmr, 2021);
    const AccelEngine plain(w, AccelConfig::pynq_z1(), 2021);
    const QTensor img = random_qimage(8);
    Rng rng_a(1);
    Rng rng_b(1);
    EXPECT_EQ(run_engine(engine, img, nullptr, rng_a).logits,
              run_engine(plain, img, nullptr, rng_b).logits);
}

TEST(Throttle, MaskSuppressesFaultsInMaskedCyclesOnly) {
    const quant::QNetwork w = random_qnetwork(9);
    const AccelEngine engine(w, AccelConfig::pynq_z1(), 2021);
    const QTensor img = random_qimage(10);
    const VoltageTrace trace = glitch_trace(engine, "CONV2", 0.95);
    const LayerSegment& conv2 = engine.schedule().segment_for("CONV2");

    // Throttle the first half of CONV2 only.
    std::vector<bool> half_mask(engine.schedule().total_cycles, false);
    const std::size_t midpoint = conv2.start_cycle + conv2.cycles / 2;
    for (std::size_t c = conv2.start_cycle; c < midpoint; ++c) half_mask[c] = true;

    Rng rng_a(11);
    Rng rng_b(11);
    Rng rng_c(11);
    const RunResult unmasked = run_engine(engine, img, &trace, rng_a, nullptr);
    const RunResult half = run_engine(engine, img, &trace, rng_b, &half_mask);
    std::vector<bool> full_mask(engine.schedule().total_cycles, true);
    const RunResult full = run_engine(engine, img, &trace, rng_c, &full_mask);

    EXPECT_GT(unmasked.faults_total.total(), 0u);
    EXPECT_LT(half.faults_total.total(), unmasked.faults_total.total());
    EXPECT_GT(half.faults_total.total(), 0u);
    EXPECT_EQ(full.faults_total.total(), 0u);
    // Fully-throttled faulty trace is functionally clean.
    Rng rng_d(11);
    EXPECT_EQ(full.logits, run_engine(engine, img, nullptr, rng_d).logits);
}

TEST(AccelNetlist, DrcCleanAndPlausibleResources) {
    const quant::QNetwork net = random_qnetwork(12);
    const AccelConfig cfg = AccelConfig::pynq_z1();
    const fabric::Netlist nl = build_accelerator_netlist(net, cfg);

    EXPECT_EQ(fabric::run_drc(nl).count(fabric::DrcRule::CombinationalLoop), 0u);

    const fabric::ResourceUsage u = fabric::count_resources(nl);
    EXPECT_EQ(u.dsps, cfg.conv_dsp_count + cfg.fc_dsp_count);
    // LeNet-5 has ~131k 8-bit parameters -> ~24 weight BRAMs + tanh LUT.
    const std::size_t params = net.parameter_count();
    const std::size_t expected_brams = (params * 8 + 36 * 1024 - 1) / (36 * 1024) + 1;
    EXPECT_EQ(u.brams, expected_brams);
    EXPECT_GT(u.luts, 100u);
    EXPECT_GT(u.ffs, 100u);

    // The whole victim fits the PYNQ-Z1 with room for the attacker.
    const auto util = fabric::utilization(nl, fabric::DeviceModel::pynq_z1());
    EXPECT_TRUE(util.fits());
    EXPECT_LT(util.dsp_pct(), 50.0);
}

TEST(AccelNetlist, ScalesWithNetworkSize) {
    const AccelConfig cfg = AccelConfig::pynq_z1();
    const quant::QNetwork lenet = random_qnetwork(13);

    // A tiny MLP-like network needs fewer BRAMs.
    quant::QNetwork tiny;
    tiny.input_shape = Shape{1, 28, 28};
    Rng rng(14);
    tiny.layers = {{quant::QLayerKind::Dense, "FC1",
                    deepstrike::testing::random_qtensor(Shape{10, 784}, rng),
                    deepstrike::testing::random_qtensor(Shape{10}, rng),
                    quant::Activation::None}};

    const auto big = fabric::count_resources(build_accelerator_netlist(lenet, cfg));
    const auto small = fabric::count_resources(build_accelerator_netlist(tiny, cfg));
    EXPECT_GT(big.brams, small.brams);
}

} // namespace
} // namespace deepstrike::accel
