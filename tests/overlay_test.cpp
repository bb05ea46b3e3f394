// Randomized-property tests for the interval-gated fault overlay: the
// engine's inference path (AccelEngine::run_elided from the image's golden
// pass, testing::run_engine) must be byte-identical to the whole-segment
// per-op oracle (run_reference, tests/engine_reference.cpp) — same logits,
// same prediction, same fault counts — for any voltage trace, because
// both consume the fault RNG stream identically and duplication faults see
// the same pipeline state (seeded by index arithmetic at window entry on
// the fast path, carried op-by-op on the reference path).
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "accel/arch_profiles.hpp"
#include "accel/engine.hpp"
#include "accel/overlay.hpp"
#include "engine_reference.hpp"
#include "nn/zoo.hpp"
#include "test_helpers.hpp"
#include "util/divide.hpp"

namespace deepstrike::accel {
namespace {

using deepstrike::testing::bits_of;
using deepstrike::testing::expect_same_run;
using deepstrike::testing::random_qimage;
using deepstrike::testing::random_qnetwork;
using deepstrike::testing::run_engine;
using deepstrike::testing::run_reference;

AccelEngine make_engine(bool tmr = false, std::uint64_t weight_seed = 1,
                        std::uint64_t board_seed = 2021) {
    AccelConfig config = AccelConfig::pynq_z1();
    config.tmr_protection = tmr;
    return AccelEngine(random_qnetwork(weight_seed), config, board_seed);
}

VoltageTrace nominal_trace(const AccelEngine& engine) {
    return VoltageTrace(engine.schedule().total_cycles * 2, 1.0);
}

/// Trace with `n_windows` random droop windows of random depth/length
/// anywhere in the execution (may straddle segment boundaries).
VoltageTrace random_glitch_trace(const AccelEngine& engine, Rng& rng,
                                 std::size_t n_windows) {
    VoltageTrace trace = nominal_trace(engine);
    for (std::size_t w = 0; w < n_windows; ++w) {
        const auto len = static_cast<std::size_t>(rng.uniform_int(1, 40));
        const auto start = static_cast<std::size_t>(
            rng.uniform_int(0, static_cast<std::int64_t>(trace.size() - 1)));
        const double depth = rng.uniform(0.55, 0.97);
        for (std::size_t i = start; i < std::min(start + len, trace.size()); ++i) {
            trace[i] = depth;
        }
    }
    return trace;
}

TEST(Overlay, UnsafeWindowsMergeAndRespectHalfMask) {
    const AccelEngine engine = make_engine();
    const LayerSegment& seg = engine.schedule().segment_for("CONV2");
    VoltageTrace trace = nominal_trace(engine);

    // Three unsafe cycles: two adjacent (merged), one separate. The middle
    // one is unsafe only on the first DDR half sample.
    const std::size_t c0 = seg.start_cycle + 3;
    trace[c0 * 2] = 0.5;
    trace[(c0 + 1) * 2] = 0.5;
    trace[(c0 + 5) * 2 + 1] = 0.5;

    const auto both = unsafe_windows(seg, &trace, 0.9);
    ASSERT_EQ(both.size(), 2u);
    EXPECT_EQ(both[0].begin, c0);
    EXPECT_EQ(both[0].end, c0 + 2);
    EXPECT_EQ(both[1].begin, c0 + 5);
    EXPECT_EQ(both[1].end, c0 + 6);

    // half_mask=2 (second sample only, the pool comparator's capture) must
    // not see the first-half-only droops.
    const auto second_half = unsafe_windows(seg, &trace, 0.9, /*half_mask=*/2u);
    ASSERT_EQ(second_half.size(), 1u);
    EXPECT_EQ(second_half[0].begin, c0 + 5);

    // Safe threshold below the droop: no windows.
    EXPECT_TRUE(unsafe_windows(seg, &trace, 0.4).empty());
}

TEST(Overlay, PlanCoversAllLayersAndNominalTraceIsEmpty) {
    const AccelEngine engine = make_engine();
    const VoltageTrace trace = nominal_trace(engine);
    const OverlayPlan plan = engine.plan_overlay(&trace);
    ASSERT_EQ(plan.layers.size(), engine.network().layers.size());
    EXPECT_EQ(plan.trace_samples, trace.size());
    for (const SegmentOverlay& layer : plan.layers) EXPECT_FALSE(layer.any());

    const OverlayPlan none = engine.plan_overlay(nullptr);
    EXPECT_EQ(none.trace_samples, 0u);
    ASSERT_EQ(none.layers.size(), engine.network().layers.size());
}

/// Checks every overlay's factors against the delay model at the trace's
/// samples (nominal past its end): a conv/FC overlay at its layer's safe
/// voltage on both DDR halves, a pool overlay at the comparators' on the
/// second half only (its first is always -1). Adds the unsafe and safe
/// window samples seen to the counters.
void expect_plan_factors(const AccelEngine& engine, const VoltageTrace& trace,
                         std::size_t& unsafe_samples, std::size_t& safe_samples) {
    const OverlayPlan plan = engine.plan_overlay(&trace);
    const pdn::DelayModel& delay = engine.delay_model();
    for (std::size_t i = 0; i < plan.layers.size(); ++i) {
        const SegmentOverlay& overlay = plan.layers[i];
        const quant::QLayerKind kind = engine.network().layers[i].kind;
        const bool pool =
            kind != quant::QLayerKind::Conv && kind != quant::QLayerKind::Dense;
        const double safe_v = pool ? engine.pool_safe_voltage()
                              : kind == quant::QLayerKind::Conv ? engine.conv_safe_voltage()
                                                                : engine.fc_safe_voltage();
        std::size_t at = 0;
        for (const CycleWindow& w : overlay.unsafe) {
            for (std::size_t idx = w.begin * 2; idx < w.end * 2; ++idx, ++at) {
                ASSERT_LT(at, overlay.factors.size()) << "layer " << i;
                const double v = idx < trace.size() ? trace[idx] : delay.vdd;
                if (v < safe_v && !(pool && idx % 2 == 0)) {
                    EXPECT_EQ(bits_of(overlay.factors[at]), bits_of(delay.factor(v)))
                        << "layer " << i << " sample " << idx;
                    ++unsafe_samples;
                } else {
                    EXPECT_EQ(overlay.factors[at], -1.0) << "layer " << i << " sample " << idx;
                    ++safe_samples;
                }
            }
        }
        EXPECT_EQ(at, overlay.factors.size()) << "layer " << i;
    }
}

// The plan holds, for each window sample, the delay factor the delay
// model gives at the trace voltage, bit for bit, and -1 where the sample
// is at or above the safe voltage or is not a capture (a pool's first DDR
// half), including past a short trace's end. The walk on a short trace
// still matches the per-op oracle.
TEST(Overlay, PlanFactorsAreTheDelayModelsAtUnsafeSamples) {
    const AccelEngine engine = make_engine();
    Rng trace_rng(41);
    std::size_t unsafe_samples = 0;
    std::size_t safe_samples = 0;
    for (std::uint64_t trial = 0; trial < 8; ++trial) {
        const VoltageTrace trace = random_glitch_trace(engine, trace_rng, 2 + trial % 5);
        expect_plan_factors(engine, trace, unsafe_samples, safe_samples);
    }

    // A droop over the pool segment, deep enough for its comparators in
    // part: its window carries factors.
    const LayerSegment& pool = engine.schedule().segment_for("POOL1");
    VoltageTrace pool_trace = nominal_trace(engine);
    for (std::size_t i = pool.start_cycle * 2; i < pool.end_cycle() * 2; ++i) {
        pool_trace[i] = trace_rng.uniform(0.6, 0.9);
    }
    ASSERT_TRUE(engine.plan_overlay(&pool_trace).layers[pool.layer_index].any());
    const std::size_t unsafe_before = unsafe_samples;
    expect_plan_factors(engine, pool_trace, unsafe_samples, safe_samples);
    EXPECT_GT(unsafe_samples, unsafe_before);

    // A droop whose last unsafe cycle keeps only its first DDR sample: the
    // trace ends mid-cycle, so the second sample is nominal.
    const LayerSegment& conv2 = engine.schedule().segment_for("CONV2");
    const std::size_t c0 = conv2.start_cycle + 7;
    VoltageTrace short_trace = nominal_trace(engine);
    for (std::size_t i = c0 * 2; i < (c0 + 4) * 2; ++i) short_trace[i] = 0.6;
    short_trace.resize((c0 + 3) * 2 + 1);
    const std::size_t before = safe_samples;
    expect_plan_factors(engine, short_trace, unsafe_samples, safe_samples);
    EXPECT_GT(safe_samples, before);
    for (std::uint64_t trial = 0; trial < 3; ++trial) {
        const QTensor img = random_qimage(1300 + trial);
        Rng rng_fast(61 + trial);
        Rng rng_ref(61 + trial);
        expect_same_run(run_engine(engine, img, &short_trace, rng_fast),
                        run_reference(engine, img, &short_trace, rng_ref));
        EXPECT_EQ(rng_fast.state(), rng_ref.state()) << "trial " << trial;
    }
    EXPECT_GT(unsafe_samples, 100u);
    EXPECT_GT(safe_samples, 0u);
}

TEST(Overlay, GatedRunMatchesReferenceOnRandomTraces) {
    const AccelEngine engine = make_engine();
    Rng trace_rng(7);
    for (std::uint64_t trial = 0; trial < 12; ++trial) {
        const VoltageTrace trace =
            random_glitch_trace(engine, trace_rng, 1 + trial % 5);
        const QTensor img = random_qimage(300 + trial);
        Rng rng_fast(42 + trial);
        Rng rng_ref(42 + trial);
        const RunResult fast = run_engine(engine, img, &trace, rng_fast);
        const RunResult ref = run_reference(engine, img, &trace, rng_ref);
        expect_same_run(fast, ref);
        EXPECT_EQ(rng_fast.state(), rng_ref.state()) << "trial " << trial;
    }
}

// A droop over a pool segment of a trace that ends inside it, mid-cycle:
// the pool walk draws each comparator capture inside the window with the
// plan's factor and nothing past the trace's end, as the per-op oracle
// does, at depths where some comparators fault and some do not.
TEST(Overlay, GatedRunMatchesReferenceOnTraceEndingInPool) {
    const AccelEngine engine = make_engine();
    const LayerSegment& pool = engine.schedule().segment_for("POOL1");
    const std::size_t end_cycle = pool.start_cycle + pool.cycles / 2;
    std::size_t pool_faults = 0;
    for (const double depth : {0.62, 0.70, 0.74}) {
        VoltageTrace trace = nominal_trace(engine);
        for (std::size_t i = (pool.start_cycle - 3) * 2; i < end_cycle * 2 + 1; ++i) {
            trace[i] = depth;
        }
        trace.resize(end_cycle * 2 + 1);
        const OverlayPlan plan = engine.plan_overlay(&trace);
        const SegmentOverlay& overlay = plan.layers[pool.layer_index];
        ASSERT_TRUE(overlay.any()) << depth;
        EXPECT_EQ(overlay.unsafe.back().end, end_cycle) << depth;
        for (std::uint64_t trial = 0; trial < 4; ++trial) {
            const QTensor img = random_qimage(1700 + trial);
            Rng rng_fast(71 + trial);
            Rng rng_ref(71 + trial);
            const RunResult fast = run_engine(engine, img, &trace, rng_fast);
            expect_same_run(fast, run_reference(engine, img, &trace, rng_ref));
            EXPECT_TRUE(stream_equal(rng_fast, rng_ref)) << depth << " trial " << trial;
            pool_faults += fast.faults_for("POOL1").total();
        }
    }
    EXPECT_GT(pool_faults, 0u);
}

TEST(Overlay, GatedRunMatchesReferenceUnderTmr) {
    const AccelEngine engine = make_engine(/*tmr=*/true);
    Rng trace_rng(11);
    for (std::uint64_t trial = 0; trial < 6; ++trial) {
        const VoltageTrace trace =
            random_glitch_trace(engine, trace_rng, 2 + trial % 3);
        const QTensor img = random_qimage(500 + trial);
        Rng rng_fast(9 + trial);
        Rng rng_ref(9 + trial);
        expect_same_run(run_engine(engine, img, &trace, rng_fast),
                         run_reference(engine, img, &trace, rng_ref));
        EXPECT_EQ(rng_fast.state(), rng_ref.state()) << "trial " << trial;
    }
}

TEST(Overlay, GatedRunMatchesReferenceWithThrottleMask) {
    const AccelEngine engine = make_engine();
    Rng trace_rng(23);
    Rng mask_rng(29);
    for (std::uint64_t trial = 0; trial < 6; ++trial) {
        const VoltageTrace trace = random_glitch_trace(engine, trace_rng, 4);
        std::vector<bool> throttle(engine.schedule().total_cycles, false);
        for (std::size_t c = 0; c < throttle.size(); ++c) {
            throttle[c] = mask_rng.bernoulli(0.3);
        }
        const QTensor img = random_qimage(700 + trial);
        Rng rng_fast(3 + trial);
        Rng rng_ref(3 + trial);
        expect_same_run(run_engine(engine, img, &trace, rng_fast, &throttle),
                         run_reference(engine, img, &trace, rng_ref, &throttle));
        EXPECT_EQ(rng_fast.state(), rng_ref.state()) << "trial " << trial;
    }
}

// A droop confined to the middle of each DSP segment forces the fast path
// to enter per-op execution with elem_begin > 0, exercising the
// pipeline-seeding index arithmetic (a stale last_product from before the
// window must be reconstructed, not zeroed).
TEST(Overlay, MidSegmentWindowSeedsPipelineState) {
    const AccelEngine engine = make_engine();
    for (const char* label : {"CONV1", "CONV2", "FC1", "FC2"}) {
        const LayerSegment& seg = engine.schedule().segment_for(label);
        const std::size_t mid = seg.start_cycle + seg.cycles / 2;
        VoltageTrace trace = nominal_trace(engine);
        for (std::size_t c = mid; c < std::min(mid + 3, seg.end_cycle()); ++c) {
            trace[c * 2] = 0.6;
            trace[c * 2 + 1] = 0.6;
        }
        bool any_fault = false;
        for (std::uint64_t trial = 0; trial < 4; ++trial) {
            const QTensor img = random_qimage(900 + trial);
            Rng rng_fast(17 + trial);
            Rng rng_ref(17 + trial);
            const RunResult fast = run_engine(engine, img, &trace, rng_fast);
            const RunResult ref = run_reference(engine, img, &trace, rng_ref);
            expect_same_run(fast, ref);
            any_fault = any_fault || fast.faults_total.total() > 0;
        }
        // The equivalence must not be vacuous: a 0.6 V droop faults DSPs.
        EXPECT_TRUE(any_fault) << label;
    }
}

// Windows straddling a segment boundary (end of CONV2 into FC1's region)
// must gate each segment independently.
TEST(Overlay, BoundaryStraddlingWindowMatchesReference) {
    const AccelEngine engine = make_engine();
    const LayerSegment& conv2 = engine.schedule().segment_for("CONV2");
    VoltageTrace trace = nominal_trace(engine);
    for (std::size_t c = conv2.end_cycle() - 2; c < conv2.end_cycle() + 4; ++c) {
        trace[c * 2] = 0.58;
        trace[c * 2 + 1] = 0.58;
    }
    for (std::uint64_t trial = 0; trial < 4; ++trial) {
        const QTensor img = random_qimage(1100 + trial);
        Rng rng_fast(31 + trial);
        Rng rng_ref(31 + trial);
        expect_same_run(run_engine(engine, img, &trace, rng_fast),
                         run_reference(engine, img, &trace, rng_ref));
    }
}

TEST(Overlay, FaultsForUsesLayerIndex) {
    const AccelEngine engine = make_engine();
    Rng trace_rng(53);
    const VoltageTrace trace = random_glitch_trace(engine, trace_rng, 6);
    Rng rng(77);
    const RunResult run = run_engine(engine, random_qimage(1500), &trace, rng);
    ASSERT_EQ(run.layer_index.size(), run.faults_by_layer.size());
    for (const RunResult::LayerFaults& lf : run.faults_by_layer) {
        const FaultCounts counts = run.faults_for(lf.label);
        EXPECT_EQ(counts.duplication, lf.counts.duplication);
        EXPECT_EQ(counts.random, lf.counts.random);
    }
    EXPECT_EQ(run.faults_for("NO_SUCH_LAYER").total(), 0u);
}

// The fault walk maps each faulted op index to its output element, input
// and weight with 32-bit reciprocals (DivideU32), not per-fault division.
// At the largest op index of every conv and dense layer of every zoo
// victim the reciprocals must divide exactly, and a deep droop over each
// layer's last cycles, where nearly every op faults, must match the
// per-op oracle.
TEST(Overlay, LargestOpIndexOfEveryZooLayerMatchesReference) {
    for (const nn::ArchitectureInfo& info : nn::architectures()) {
        Rng weight_rng(2024);
        nn::Sequential model = nn::build_architecture(info.arch, weight_rng);
        const AccelEngine engine(
            quant::quantize_sequential(model, info.input_shape, {},
                                       quant::quant_format_for(info.arch)),
            accel_config_for(info.arch), 2021);
        const quant::QNetwork& net = engine.network();
        const std::vector<Shape> shapes = net.layer_output_shapes();
        for (std::size_t li = 0; li < net.layers.size(); ++li) {
            const quant::QLayer& layer = net.layers[li];
            const bool conv = layer.kind == quant::QLayerKind::Conv;
            if (!conv && layer.kind != quant::QLayerKind::Dense) continue;
            const std::string what = std::string(info.name) + " " + layer.label;
            const LayerSegment& seg = engine.schedule().segment_for_layer(li);
            const auto last = static_cast<std::uint32_t>(seg.total_ops - 1);
            ASSERT_EQ(std::size_t{last} + 1, seg.total_ops) << what;

            // Op g belongs to element g / per_elem; a conv element e to
            // channel e / plane.
            const std::uint32_t per_elem =
                static_cast<std::uint32_t>(layer.weight.size() / layer.weight.shape().dim(0));
            const DivideU32 by_elem(per_elem);
            for (const std::uint32_t g : {last, last - 1, last / 2, std::uint32_t{0}}) {
                EXPECT_EQ(by_elem.quotient(g), g / per_elem) << what << " op " << g;
                EXPECT_EQ(by_elem.remainder(g), g % per_elem) << what << " op " << g;
            }
            if (conv) {
                const auto plane = static_cast<std::uint32_t>(shapes[li].dim(1) *
                                                              shapes[li].dim(2));
                const std::uint32_t elem = last / per_elem;
                EXPECT_EQ(DivideU32(plane).quotient(elem), elem / plane) << what;
            }

            VoltageTrace trace(engine.schedule().total_cycles * 2, 1.0);
            for (std::size_t c = seg.end_cycle() - 3; c < seg.end_cycle(); ++c) {
                trace[2 * c] = 0.52;
                trace[2 * c + 1] = 0.52;
            }
            std::uint64_t faults = 0;
            for (std::uint64_t trial = 0; trial < 2; ++trial) {
                Rng img_rng(4000 + trial);
                QTensor img(info.input_shape);
                for (std::size_t i = 0; i < img.size(); ++i) {
                    img.at_unchecked(i) = fx::Q3_4::from_real(img_rng.uniform(0.0, 1.0));
                }
                Rng rng_fast(61 + trial);
                Rng rng_ref(61 + trial);
                const RunResult fast = run_engine(engine, img, &trace, rng_fast);
                expect_same_run(fast, run_reference(engine, img, &trace, rng_ref));
                // The oracle keeps a pair's second deviate outside the Rng,
                // so compare the generator state: both drew the same
                // uniforms.
                EXPECT_EQ(rng_fast.state(), rng_ref.state()) << what;
                faults += fast.faults_for(layer.label).total();
            }
            EXPECT_GT(faults, 0u) << what; // the droop reaches the last ops
        }
    }
}

} // namespace
} // namespace deepstrike::accel
