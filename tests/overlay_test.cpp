// Randomized-property tests for the interval-gated fault overlay: the
// engine's inference path (AccelEngine::run_block from the images' golden
// passes, on one image through testing::run_engine and on blocks of
// images that share a trace) must be byte-identical to the whole-segment
// per-op oracle (run_reference, tests/engine_reference.cpp) — same logits,
// same prediction, same fault counts — for any voltage trace, because
// both consume the fault RNG stream identically and duplication faults see
// the same pipeline state (seeded by index arithmetic at window entry on
// the fast path, carried op-by-op on the reference path).
#include <gtest/gtest.h>

#include <cstdint>
#include <span>
#include <vector>

#include "accel/arch_profiles.hpp"
#include "accel/engine.hpp"
#include "accel/overlay.hpp"
#include "engine_reference.hpp"
#include "nn/zoo.hpp"
#include "test_helpers.hpp"
#include "util/divide.hpp"
#include "util/error.hpp"
#include "util/simd.hpp"

namespace deepstrike::accel {
namespace {

using deepstrike::testing::bits_of;
using deepstrike::testing::expect_same_run;
using deepstrike::testing::layer_faults;
using deepstrike::testing::random_qimage;
using deepstrike::testing::random_qnetwork;
using deepstrike::testing::run_engine;
using deepstrike::testing::run_reference;
using deepstrike::testing::same_plan;
using deepstrike::testing::SimdGuard;

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

/// True when `rng` holds a Box–Muller pair whose second deviate is still
/// to be taken: a copy restarted from the same raw state holds none.
bool holds_pending_deviate(const Rng& rng) {
    Rng restarted = rng;
    restarted.set_state(rng.state());
    return !stream_equal(rng, restarted);
}

/// `trace` fed to a fresh OverlayPlanner one cycle at a time.
OverlayPlan plan_by_cycle(const AccelEngine& engine, const VoltageTrace& trace) {
    OverlayPlanner planner(engine);
    for (std::size_t i = 0; i + 1 < trace.size(); i += 2) {
        planner.add_cycle(trace[i], trace[i + 1]);
    }
    return planner.finish();
}

// The planner merges adjacent unsafe cycles into one window, a pool layer
// gates only its comparators' second DDR sample, and a sample exactly at
// the safe voltage is safe. plan_overlay of the same trace is the same
// plan.
TEST(Overlay, UnsafeWindowsMergeAndRespectHalfMask) {
    const AccelEngine engine = make_engine();
    const pdn::DelayModel& delay = engine.delay_model();
    const LayerSegment& conv2 = engine.schedule().segment_for("CONV2");
    const LayerSegment& pool = engine.schedule().segment_for("POOL1");
    VoltageTrace trace = nominal_trace(engine);

    // Three unsafe CONV2 cycles: two adjacent (merged), one separate. The
    // first two are unsafe only on the first DDR half sample, the third
    // only on the second. A fourth cycle sits exactly at the safe voltage.
    const double conv_low = engine.conv_safe_voltage() - 0.05;
    const std::size_t c0 = conv2.start_cycle + 3;
    trace[c0 * 2] = conv_low;
    trace[(c0 + 1) * 2] = conv_low;
    trace[(c0 + 5) * 2 + 1] = conv_low;
    trace[(c0 + 9) * 2] = engine.conv_safe_voltage();
    trace[(c0 + 9) * 2 + 1] = engine.conv_safe_voltage();

    // POOL1: a first-half-only droop the comparators never capture, and a
    // second-half droop two cycles later.
    const double pool_low = engine.pool_safe_voltage() - 0.05;
    const std::size_t p0 = pool.start_cycle + 1;
    trace[p0 * 2] = pool_low;
    trace[(p0 + 2) * 2 + 1] = pool_low;

    const OverlayPlan plan = plan_by_cycle(engine, trace);
    const SegmentOverlay& conv = plan.layers[conv2.layer_index];
    ASSERT_EQ(conv.unsafe.size(), 2u);
    EXPECT_EQ(conv.unsafe[0].begin, c0);
    EXPECT_EQ(conv.unsafe[0].end, c0 + 2);
    EXPECT_EQ(conv.unsafe[1].begin, c0 + 5);
    EXPECT_EQ(conv.unsafe[1].end, c0 + 6);
    const double f = delay.factor(conv_low);
    const std::vector<double> want_conv = {f, -1.0, f, -1.0, -1.0, f};
    ASSERT_EQ(conv.factors.size(), want_conv.size());
    for (std::size_t i = 0; i < want_conv.size(); ++i) {
        EXPECT_EQ(bits_of(conv.factors[i]), bits_of(want_conv[i])) << "conv sample " << i;
    }

    const SegmentOverlay& pooled = plan.layers[pool.layer_index];
    ASSERT_EQ(pooled.unsafe.size(), 1u);
    EXPECT_EQ(pooled.unsafe[0].begin, p0 + 2);
    EXPECT_EQ(pooled.unsafe[0].end, p0 + 3);
    ASSERT_EQ(pooled.factors.size(), 2u);
    EXPECT_EQ(pooled.factors[0], -1.0);
    EXPECT_EQ(bits_of(pooled.factors[1]), bits_of(delay.factor(pool_low)));

    for (std::size_t i = 0; i < plan.layers.size(); ++i) {
        if (i != conv2.layer_index && i != pool.layer_index) {
            EXPECT_FALSE(plan.layers[i].any()) << "layer " << i;
        }
    }

    EXPECT_TRUE(same_plan(engine.plan_overlay(&trace), plan));
}

TEST(Overlay, PlanCoversAllLayersAndNominalTraceIsEmpty) {
    const AccelEngine engine = make_engine();
    const VoltageTrace trace = nominal_trace(engine);
    const OverlayPlan plan = engine.plan_overlay(&trace);
    ASSERT_EQ(plan.layers.size(), engine.network().layers.size());
    for (const SegmentOverlay& layer : plan.layers) EXPECT_FALSE(layer.any());

    const OverlayPlan none = engine.plan_overlay(nullptr);
    ASSERT_EQ(none.layers.size(), engine.network().layers.size());
    for (const SegmentOverlay& layer : none.layers) EXPECT_FALSE(layer.any());
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
        EXPECT_TRUE(stream_equal(rng_fast, rng_ref)) << "trial " << trial;
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
        EXPECT_TRUE(stream_equal(rng_fast, rng_ref)) << "trial " << trial;
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
            pool_faults += fast.faults_by_layer[pool.layer_index].total();
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
        EXPECT_TRUE(stream_equal(rng_fast, rng_ref)) << "trial " << trial;
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
        EXPECT_TRUE(stream_equal(rng_fast, rng_ref)) << "trial " << trial;
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

// The fault walk maps each faulted op index to its output element, input
// and weight with 32-bit reciprocals (DivideU32), not per-fault division.
// At the largest op index of every conv and dense layer of every zoo
// victim the reciprocals must divide exactly, and a deep droop over each
// layer's last cycles, where nearly every op faults, must match the
// per-op oracle.
TEST(Overlay, LargestOpIndexOfEveryZooLayerMatchesReference) {
    bool odd_draws = false;
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
                EXPECT_TRUE(stream_equal(rng_fast, rng_ref)) << what;
                odd_draws = odd_draws || holds_pending_deviate(rng_fast);
                faults += fast.faults_by_layer[li].total();
            }
            EXPECT_GT(faults, 0u) << what; // the droop reaches the last ops
        }
    }
    // Some run drew an odd number of deviates (minicnn CONV1 draws 9 ops
    // per cycle over 3 drooped cycles), so the comparison covered a pair
    // whose second deviate is still pending.
    EXPECT_TRUE(odd_draws);
}

// ------------------------------------------------------------ lane blocks
//
// run_block draws the fault events of up to kWalkLanes images that share a
// trace with their streams stepped in lock-step, then applies each image's
// own events. Every lane must come out exactly as its image run alone
// through the per-op oracle on the same stream.

/// `extra` random droop windows plus one in each conv, pool and FC segment
/// (random start, length and depth; pool droops deep enough to fault the
/// relaxed comparators).
VoltageTrace layered_glitch_trace(const AccelEngine& engine, Rng& rng, std::size_t extra) {
    VoltageTrace trace = random_glitch_trace(engine, rng, extra);
    for (const LayerSegment& seg : engine.schedule().segments) {
        if (seg.kind == SegmentKind::Stall) continue;
        const auto len = static_cast<std::size_t>(rng.uniform_int(1, 12));
        const auto start = seg.start_cycle + static_cast<std::size_t>(rng.uniform_int(
                                                 0, static_cast<std::int64_t>(seg.cycles) - 1));
        const double depth = seg.kind == SegmentKind::Pool ? rng.uniform(0.55, 0.72)
                                                           : rng.uniform(0.55, 0.97);
        for (std::size_t c = start; c < std::min(start + len, seg.end_cycle()); ++c) {
            trace[2 * c] = depth;
            trace[2 * c + 1] = depth;
        }
    }
    return trace;
}

/// What a set of block runs covered.
struct BlockCoverage {
    std::size_t lanes = 0;
    std::size_t odd_ends = 0;     // streams left holding a pending deviate
    std::size_t lone_runs = 0;    // blocks of one
    std::size_t lone_odd_ends = 0;
    std::size_t lanes_apart = 0;  // blocks whose lanes drew different payload counts
    FaultCounts faults;
    std::size_t pool_faults = 0;
};

/// Runs one image per stream of `rngs` (images image_seed, image_seed + 1,
/// ...) as one block on `trace`, and each image alone through the per-op
/// oracle on a copy of its stream: the same logits, prediction and
/// per-layer counts, and stream_equal end streams.
void expect_block_matches_oracle(const AccelEngine& engine, const VoltageTrace& trace,
                                 std::vector<Rng> rngs, std::uint64_t image_seed,
                                 const std::vector<bool>* throttle, BlockCoverage& seen) {
    const OverlayPlan plan = engine.plan_overlay(&trace);
    const std::size_t n = rngs.size();
    std::vector<QTensor> images;
    std::vector<quant::QNetwork::ForwardTrace> golden;
    images.reserve(n);
    golden.reserve(n);
    std::vector<GoldenPass> passes;
    for (std::size_t j = 0; j < n; ++j) {
        images.push_back(random_qimage(image_seed + j));
        golden.push_back(engine.network().forward_trace(images.back()));
        passes.push_back({&images.back(), &golden.back().activations,
                          &golden.back().accumulators});
    }
    std::vector<Rng> oracle_rngs = rngs;
    const std::vector<RunResult> runs = engine.run_block(passes, rngs, plan, throttle);
    ASSERT_EQ(runs.size(), n);
    std::size_t min_random = ~std::size_t{0};
    std::size_t max_random = 0;
    for (std::size_t j = 0; j < n; ++j) {
        SCOPED_TRACE("lane " + std::to_string(j) + " of " + std::to_string(n));
        expect_same_run(runs[j], run_reference(engine, images[j], &trace, oracle_rngs[j],
                                               throttle));
        EXPECT_TRUE(stream_equal(rngs[j], oracle_rngs[j]));
        const bool odd = holds_pending_deviate(rngs[j]);
        seen.odd_ends += odd ? 1 : 0;
        seen.lone_runs += n == 1 ? 1 : 0;
        seen.lone_odd_ends += n == 1 && odd ? 1 : 0;
        seen.faults += runs[j].faults_total;
        seen.pool_faults += layer_faults(engine.network(), runs[j], "POOL1").total();
        min_random = std::min(min_random, runs[j].faults_total.random);
        max_random = std::max(max_random, runs[j].faults_total.random);
    }
    seen.lanes += n;
    seen.lanes_apart += min_random != max_random ? 1 : 0;
}

// Random traces with windows in every conv, pool and FC segment, one of
// them ending mid-pool, with and without a throttle mask, TMR on and off,
// blocks of 1 to kWalkLanes images, on both SIMD twins. With the default 8
// conv DSPs every drawing cycle takes an even number of deviates; 6 DSPs
// give CONV1 9 ops per cycle, so walks, blocks of one among them, also end
// mid-pair.
TEST(Overlay, BlockMatchesOracleLaneByLane) {
    const std::size_t block_sizes[] = {1, 3, 7, kWalkLanes, 2, 8};
    for (const simd::Mode mode : {simd::Mode::Auto, simd::Mode::Scalar}) {
        SimdGuard guard;
        simd::set_mode(mode);
        BlockCoverage seen;
        for (const std::size_t conv_dsps : {std::size_t{8}, std::size_t{6}}) {
            for (const bool tmr : {false, true}) {
                SCOPED_TRACE(std::string(simd::mode_name(mode)) + (tmr ? " tmr " : " ") +
                             std::to_string(conv_dsps) + " conv DSPs");
                AccelConfig config = AccelConfig::pynq_z1();
                config.tmr_protection = tmr;
                config.conv_dsp_count = conv_dsps;
                const AccelEngine engine(random_qnetwork(1), config, 2021);
                const LayerSegment& pool = engine.schedule().segment_for("POOL1");
                Rng trace_rng(101 + conv_dsps);
                Rng mask_rng(103);
                for (std::uint64_t trial = 0; trial < 12; ++trial) {
                    VoltageTrace trace = layered_glitch_trace(engine, trace_rng, trial % 3);
                    if (trial % 6 == 2) {
                        trace.resize((pool.start_cycle + pool.cycles / 2) * 2 + 1);
                    }
                    std::vector<bool> throttle;
                    if (trial % 4 == 3) {
                        throttle.resize(engine.schedule().total_cycles);
                        for (std::size_t c = 0; c < throttle.size(); ++c) {
                            throttle[c] = mask_rng.bernoulli(0.3);
                        }
                    }
                    const std::size_t n = block_sizes[trial % 6];
                    std::vector<Rng> rngs;
                    for (std::size_t j = 0; j < n; ++j) {
                        rngs.emplace_back(derive_seed(77, trial, j));
                    }
                    expect_block_matches_oracle(engine, trace, std::move(rngs), 40 * trial,
                                                throttle.empty() ? nullptr : &throttle, seen);
                }
                // One drooped CONV1 cycle draws 9 deviates with 6 conv DSPs
                // (27 under TMR) and 12 (36) with 8, so single-image runs
                // end at both parities.
                VoltageTrace one_cycle = nominal_trace(engine);
                const LayerSegment& conv1 = engine.schedule().segment_for("CONV1");
                const std::size_t c = conv1.start_cycle + conv1.cycles / 2;
                one_cycle[2 * c] = 0.6;
                one_cycle[2 * c + 1] = 0.6;
                std::vector<Rng> lone;
                lone.emplace_back(derive_seed(79, conv_dsps, tmr ? 1 : 0));
                expect_block_matches_oracle(engine, one_cycle, std::move(lone), 4000, nullptr,
                                            seen);
            }
        }
        // Not vacuous: both fault kinds, pool faults, streams ending at
        // both deviate parities, and lanes whose payload draws left their
        // raw streams at different positions.
        EXPECT_GT(seen.faults.duplication, 0u);
        EXPECT_GT(seen.faults.random, 0u);
        EXPECT_GT(seen.pool_faults, 0u);
        EXPECT_GT(seen.odd_ends, 0u);
        EXPECT_LT(seen.odd_ends, seen.lanes);
        EXPECT_GT(seen.lone_odd_ends, 0u);
        EXPECT_LT(seen.lone_odd_ends, seen.lone_runs);
        EXPECT_GT(seen.lanes_apart, 0u);
    }
}

// A lane whose new Box–Muller pair draws u1 == 0 redraws it from its own
// stream, as Rng::normal() does, while its neighbours keep theirs: a
// stream whose state has s[1] = 0 draws 0 next, so the first pair of the
// walk redraws in that lane alone.
TEST(Overlay, BlockLaneRedrawsZeroUniformAlone) {
    const AccelEngine engine = make_engine();
    const LayerSegment& conv2 = engine.schedule().segment_for("CONV2");
    VoltageTrace trace = nominal_trace(engine);
    for (std::size_t c = conv2.start_cycle + 5; c < conv2.start_cycle + 9; ++c) {
        trace[2 * c] = 0.6;
        trace[2 * c + 1] = 0.6;
    }
    for (const simd::Mode mode : {simd::Mode::Auto, simd::Mode::Scalar}) {
        SCOPED_TRACE(simd::mode_name(mode));
        SimdGuard guard;
        simd::set_mode(mode);
        BlockCoverage seen;
        for (const std::size_t n : {std::size_t{1}, std::size_t{5}, kWalkLanes}) {
            for (const std::size_t forced : {std::size_t{0}, n / 2, n - 1}) {
                std::vector<Rng> rngs;
                for (std::size_t j = 0; j < n; ++j) rngs.emplace_back(derive_seed(13, n, j));
                std::array<std::uint64_t, 4> state = rngs[forced].state();
                state[1] = 0;
                rngs[forced].set_state(state);
                Rng probe = rngs[forced];
                ASSERT_EQ(probe.next(), 0u);
                expect_block_matches_oracle(engine, trace, std::move(rngs), 900 + forced,
                                            nullptr, seen);
            }
        }
        EXPECT_GT(seen.faults.total(), 0u);
    }
}

// A block's streams step in lock-step, so they must all hold the same
// number of pending deviates; a block of none, or of more than kWalkLanes
// images, or with a stream per image missing, is a caller bug.
TEST(Overlay, BlockRejectsMismatchedStreams) {
    const AccelEngine engine = make_engine();
    const VoltageTrace trace = nominal_trace(engine);
    const OverlayPlan plan = engine.plan_overlay(&trace);
    const QTensor img = random_qimage(5);
    const quant::QNetwork::ForwardTrace golden = engine.network().forward_trace(img);
    const GoldenPass pass{&img, &golden.activations, &golden.accumulators};
    const std::vector<GoldenPass> passes(2, pass);
    std::vector<Rng> rngs = {Rng(1), Rng(2)};
    rngs[1].normal(); // one deviate of its pair still pending
    EXPECT_THROW(engine.run_block(passes, rngs, plan), ContractError);
    rngs[0].normal();
    EXPECT_NO_THROW(engine.run_block(passes, rngs, plan));
    EXPECT_THROW(engine.run_block(passes, std::span<Rng>(rngs.data(), 1), plan),
                 ContractError);
    const std::vector<GoldenPass> too_many(kWalkLanes + 1, pass);
    std::vector<Rng> many(kWalkLanes + 1);
    EXPECT_THROW(engine.run_block(too_many, many, plan), ContractError);
    EXPECT_THROW(engine.run_block({}, {}, plan), ContractError);
}

// A plan is indexed like the network's layers; one with an entry missing
// or left over (say, a plan built by an engine of another network) is a
// caller bug.
TEST(Overlay, BlockRejectsPlanWithoutOneEntryPerLayer) {
    const AccelEngine engine = make_engine();
    Rng trace_rng(19);
    const VoltageTrace trace = random_glitch_trace(engine, trace_rng, 4);
    const QTensor img = random_qimage(6);
    const quant::QNetwork::ForwardTrace golden = engine.network().forward_trace(img);
    const GoldenPass pass{&img, &golden.activations, &golden.accumulators};
    Rng rng(3);
    OverlayPlan plan = engine.plan_overlay(&trace);
    plan.layers.pop_back();
    EXPECT_THROW(engine.run_block({&pass, 1}, {&rng, 1}, plan), ContractError);
    plan.layers.resize(engine.network().layers.size() + 1);
    EXPECT_THROW(engine.run_block({&pass, 1}, {&rng, 1}, plan), ContractError);
}

} // namespace
} // namespace deepstrike::accel
