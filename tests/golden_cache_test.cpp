// Golden evaluation store: the network/dataset fingerprints the journals
// key on, and the elision equivalence property — the golden-elided engine
// path (AccelEngine::run_block, and run_elided, its block of one image)
// and every accuracy evaluation built on it must be byte-identical to the
// whole-segment per-op oracle (tests/engine_reference.cpp) for any voltage
// trace, at any thread count, including the fault RNG stream (elision
// never draws; the RNG is only consumed inside unsafe windows, which run
// unchanged).
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "accel/arch_profiles.hpp"
#include "accel/engine.hpp"
#include "engine_reference.hpp"
#include "nn/zoo.hpp"
#include "quant/kernels.hpp"
#include "sim/campaign.hpp"
#include "sim/golden_cache.hpp"
#include "test_helpers.hpp"
#include "util/error.hpp"
#include "util/parallel.hpp"
#include "util/simd.hpp"

namespace deepstrike::sim {
namespace {

using deepstrike::testing::bits_of;
using deepstrike::testing::expect_same_run;
using deepstrike::testing::expect_same_tensor;
using deepstrike::testing::expect_same_trace;
using deepstrike::testing::naive_trace;
using deepstrike::testing::random_qimage;
using deepstrike::testing::random_qnetwork;
using deepstrike::testing::run_reference;
using deepstrike::testing::SimdGuard;

accel::AccelEngine make_engine(std::uint64_t weight_seed = 1,
                               std::uint64_t board_seed = 2021) {
    return accel::AccelEngine(random_qnetwork(weight_seed),
                              accel::AccelConfig::pynq_z1(), board_seed);
}

accel::VoltageTrace nominal_trace(const accel::AccelEngine& engine) {
    return accel::VoltageTrace(engine.schedule().total_cycles * 2, 1.0);
}

/// Trace with `n_windows` random droop windows of random depth/length
/// anywhere in the execution (may straddle segment boundaries).
accel::VoltageTrace random_glitch_trace(const accel::AccelEngine& engine, Rng& rng,
                                        std::size_t n_windows) {
    accel::VoltageTrace trace = nominal_trace(engine);
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

TEST(ForwardActivations, LastEntryEqualsForward) {
    const quant::QNetwork network = random_qnetwork(5);
    const QTensor img = random_qimage(77);
    const std::vector<QTensor> acts = network.forward_trace(img).activations;
    ASSERT_EQ(acts.size(), network.layers.size());
    const QTensor direct = network.forward(img);
    ASSERT_TRUE(acts.back() == direct);
}

// Each forward_trace activation is its layer's kernel applied to the
// previous one, and accumulator arrays exist for exactly the
// parameterized (Conv/Dense) layers, one per output element, writing back
// to the activation.
TEST(ForwardTrace, MatchesActivationsWithAccumulatorsForParamLayers) {
    const quant::QNetwork network = random_qnetwork(5);
    const QTensor img = random_qimage(77);
    const quant::QNetwork::ForwardTrace trace = network.forward_trace(img);
    ASSERT_EQ(trace.activations.size(), network.layers.size());
    ASSERT_EQ(trace.accumulators.size(), network.layers.size());
    for (std::size_t l = 0; l < network.layers.size(); ++l) {
        const quant::QLayer& layer = network.layers[l];
        const QTensor& in = l == 0 ? img : trace.activations[l - 1];
        const QTensor& act = trace.activations[l];
        const std::vector<fx::Acc>& accs = trace.accumulators[l];
        switch (layer.kind) {
            case quant::QLayerKind::Conv:
                ASSERT_TRUE(act == quant::qconv2d(in, layer.weight, layer.bias,
                                                  layer.activation))
                    << "layer " << l;
                break;
            case quant::QLayerKind::Pool2:
                ASSERT_TRUE(act == quant::qmaxpool2(in)) << "layer " << l;
                break;
            case quant::QLayerKind::AvgPool2:
                ASSERT_TRUE(act == quant::qavgpool2(in)) << "layer " << l;
                break;
            case quant::QLayerKind::Dense:
                ASSERT_TRUE(act == quant::qdense(in, layer.weight, layer.bias,
                                                 layer.activation))
                    << "layer " << l;
                break;
        }
        const bool param = layer.kind == quant::QLayerKind::Conv ||
                           layer.kind == quant::QLayerKind::Dense;
        ASSERT_EQ(accs.size(), param ? act.size() : 0u) << "layer " << l;
        for (std::size_t p = 0; p < accs.size(); ++p) {
            ASSERT_EQ(act.at_unchecked(p).raw(),
                      quant::apply_activation(fx::Q3_4::from_accumulator(accs[p]),
                                              layer.activation)
                          .raw())
                << "layer " << l << " element " << p;
        }
    }
}

// forward_trace refuses an input not shaped like the network's input,
// even one with the right element count.
TEST(ForwardTrace, RejectsMismatchedInputShape) {
    const quant::QNetwork network = random_qnetwork(5);
    EXPECT_THROW(network.forward_trace(QTensor(Shape{1, 28, 27})), ContractError);
    EXPECT_THROW(network.forward_trace(QTensor(Shape{28, 28})), ContractError);
    EXPECT_THROW(network.forward_trace(QTensor(Shape{28 * 28})), ContractError);
}

// The golden store runs one forward_trace per image, each its own pool
// task. Every entry must equal that image's own forward_trace and the
// naive oracle pass (tests/test_helpers.hpp): quantized input,
// activations, accumulators and predicted label, at image counts around a
// 16-image boundary and thread counts 1, 4 and 8, on both SIMD twins.
TEST(GoldenStoreBuild, EveryEntryMatchesForwardTraceAndOracle) {
    SimdGuard guard;
    const quant::QNetwork network = random_qnetwork(17);
    const auto ds = data::make_datasets(21, 0, 40);
    std::vector<QTensor> images;
    std::vector<quant::QNetwork::ForwardTrace> oracle;
    for (std::size_t i = 0; i < ds.test.size(); ++i) {
        images.push_back(quant::quantize_image(ds.test.images[i]));
        oracle.push_back(naive_trace(network, images.back()));
    }
    for (const simd::Mode mode : {simd::Mode::Auto, simd::Mode::Scalar}) {
        simd::set_mode(mode);
        std::vector<quant::QNetwork::ForwardTrace> traces;
        for (const QTensor& img : images) traces.push_back(network.forward_trace(img));
        for (const std::size_t n : {1, 15, 16, 17, 40}) {
            for (const std::size_t threads : {1, 4, 8}) {
                set_global_thread_count(threads);
                const auto store = build_golden_store(network, ds.test, n);
                const std::string tag = std::string(simd::mode_name(mode)) + " images=" +
                                        std::to_string(n) +
                                        " threads=" + std::to_string(threads);
                ASSERT_EQ(store->size(), n) << tag;
                for (std::size_t i = 0; i < n; ++i) {
                    const GoldenEntry& entry = store->entries[i];
                    const std::string what = tag + " image " + std::to_string(i);
                    expect_same_tensor(entry.qimage, images[i], what + " input");
                    const quant::QNetwork::ForwardTrace got{entry.activations,
                                                            entry.accumulators};
                    expect_same_trace(got, traces[i], what + " vs forward_trace");
                    expect_same_trace(got, oracle[i], what + " vs oracle");
                    EXPECT_EQ(entry.predicted, argmax(oracle[i].activations.back())) << what;
                }
            }
        }
    }
    set_global_thread_count(0);
}

TEST(GoldenFingerprint, SensitiveToWeightsAndDataset) {
    const quant::QNetwork a = random_qnetwork(1);
    const quant::QNetwork a2 = random_qnetwork(1);
    const quant::QNetwork b = random_qnetwork(2);
    EXPECT_EQ(network_fingerprint(a), network_fingerprint(a2));
    EXPECT_NE(network_fingerprint(a), network_fingerprint(b));

    const auto ds1 = data::make_datasets(9, 1, 30);
    const auto ds1_again = data::make_datasets(9, 1, 30);
    const auto ds2 = data::make_datasets(10, 1, 30);
    EXPECT_EQ(dataset_fingerprint(ds1.test), dataset_fingerprint(ds1_again.test));
    EXPECT_NE(dataset_fingerprint(ds1.test), dataset_fingerprint(ds2.test));
}

TEST(RunElided, NominalTraceReusesEveryLayerAndDrawsNoRandomness) {
    const accel::AccelEngine engine = make_engine();
    const accel::VoltageTrace trace = nominal_trace(engine);
    const accel::OverlayPlan plan = engine.plan_overlay(&trace);
    const QTensor img = random_qimage(42);
    const quant::QNetwork::ForwardTrace fwd = engine.network().forward_trace(img);

    Rng rng(7);
    const auto before = rng.state();
    const accel::RunResult run =
        engine.run_elided(img, fwd.activations, fwd.accumulators, &trace, rng, plan);
    EXPECT_EQ(run.golden_layers_reused, engine.network().layers.size());
    EXPECT_EQ(run.faults_total.total(), 0u);
    ASSERT_TRUE(run.logits == fwd.activations.back());
    EXPECT_EQ(rng.state(), before); // stream untouched on the all-safe path
}

TEST(RunElided, MatchesRunOnRandomTracesIncludingRngStream) {
    const accel::AccelEngine engine = make_engine();
    Rng trace_rng(7);
    bool any_fault = false;
    for (std::uint64_t trial = 0; trial < 12; ++trial) {
        const accel::VoltageTrace trace =
            random_glitch_trace(engine, trace_rng, 1 + trial % 5);
        const accel::OverlayPlan plan = engine.plan_overlay(&trace);
        const QTensor img = random_qimage(300 + trial);
        const quant::QNetwork::ForwardTrace fwd =
            engine.network().forward_trace(img);
        Rng rng_elided(42 + trial);
        Rng rng_ref(42 + trial);
        const accel::RunResult elided = engine.run_elided(
            img, fwd.activations, fwd.accumulators, &trace, rng_elided, plan);
        const accel::RunResult ref = run_reference(engine, img, &trace, rng_ref);
        expect_same_run(elided, ref);
        EXPECT_TRUE(stream_equal(rng_elided, rng_ref)) << "trial " << trial;
        any_fault = any_fault || ref.faults_total.total() > 0;
    }
    // The equivalence must not be vacuous.
    EXPECT_TRUE(any_fault);
}

TEST(RunElided, MatchesRunWithThrottleMask) {
    const accel::AccelEngine engine = make_engine();
    Rng trace_rng(23);
    Rng mask_rng(29);
    for (std::uint64_t trial = 0; trial < 6; ++trial) {
        const accel::VoltageTrace trace = random_glitch_trace(engine, trace_rng, 4);
        const accel::OverlayPlan plan = engine.plan_overlay(&trace);
        std::vector<bool> throttle(engine.schedule().total_cycles, false);
        for (std::size_t c = 0; c < throttle.size(); ++c) {
            throttle[c] = mask_rng.bernoulli(0.3);
        }
        const QTensor img = random_qimage(700 + trial);
        const quant::QNetwork::ForwardTrace fwd =
            engine.network().forward_trace(img);
        Rng rng_elided(3 + trial);
        Rng rng_ref(3 + trial);
        const accel::RunResult elided = engine.run_elided(
            img, fwd.activations, fwd.accumulators, &trace, rng_elided, plan, &throttle);
        const accel::RunResult ref =
            run_reference(engine, img, &trace, rng_ref, &throttle);
        expect_same_run(elided, ref);
        EXPECT_TRUE(stream_equal(rng_elided, rng_ref));
    }
}

// A Conv/Dense accumulator array that does not cover its layer's output
// is a caller bug: run_elided rejects it before reading any of it.
TEST(RunElided, ShortAccumulatorVectorThrows) {
    const accel::AccelEngine engine = make_engine();
    Rng trace_rng(5);
    const accel::VoltageTrace trace = random_glitch_trace(engine, trace_rng, 4);
    const accel::OverlayPlan plan = engine.plan_overlay(&trace);
    const QTensor img = random_qimage(11);
    quant::QNetwork::ForwardTrace fwd = engine.network().forward_trace(img);
    ASSERT_EQ(engine.network().layers[0].kind, quant::QLayerKind::Conv);
    fwd.accumulators[0].pop_back();
    Rng rng(3);
    EXPECT_THROW(engine.run_elided(img, fwd.activations, fwd.accumulators, &trace, rng,
                                   plan),
                 ContractError);
    fwd.accumulators[0].clear();
    EXPECT_THROW(engine.run_elided(img, fwd.activations, fwd.accumulators, &trace, rng,
                                   plan),
                 ContractError);
}

void expect_results_equal(const AccuracyResult& a, const AccuracyResult& b) {
    EXPECT_EQ(bits_of(a.accuracy), bits_of(b.accuracy));
    EXPECT_EQ(a.images, b.images);
    EXPECT_EQ(a.faults.duplication, b.faults.duplication);
    EXPECT_EQ(a.faults.random, b.faults.random);
}

/// The per-op oracle's accuracy over the first `n` images, seeded as
/// evaluation seeds them: image i runs trace i % traces.size() on
/// Rng(derive_seed(seed, i)).
AccuracyResult reference_accuracy(const Platform& platform, const data::Dataset& ds,
                                  std::size_t n,
                                  const std::vector<accel::VoltageTrace>& traces,
                                  std::uint64_t seed,
                                  const std::vector<bool>* throttle = nullptr) {
    AccuracyResult result;
    result.images = n;
    std::size_t correct = 0;
    for (std::size_t i = 0; i < n; ++i) {
        Rng rng(derive_seed(seed, i));
        const accel::RunResult run =
            run_reference(platform.engine(), quant::quantize_image(ds.images[i]),
                          &traces[i % traces.size()], rng, throttle);
        correct += run.predicted == ds.labels[i] ? 1 : 0;
        result.faults += run.faults_total;
    }
    result.accuracy = static_cast<double>(correct) / static_cast<double>(n);
    return result;
}

// Every evaluation entry point must match the per-op oracle on every zoo
// victim (random-init weights), for random glitch traces mixed with a
// nominal one and under a random throttle mask, with and without a passed
// golden store, at thread counts 1 and 8.
TEST(GoldenCacheEval, CachedMatchesUncachedAcrossThreadCounts) {
    const auto ds = data::make_datasets(9, 1, 40);
    const std::size_t n_images = 24;
    for (const nn::ArchitectureInfo& info : nn::architectures()) {
        SCOPED_TRACE(info.name);
        Rng init_rng(2024);
        nn::Sequential model = nn::build_architecture(info.arch, init_rng);
        PlatformConfig config;
        config.accel = accel::accel_config_for(info.arch);
        const Platform platform(config, quant::quantize_sequential(
                                            model, info.input_shape, {},
                                            quant::quant_format_for(info.arch)));

        Rng trace_rng(13);
        std::vector<accel::VoltageTrace> traces;
        traces.push_back(random_glitch_trace(platform.engine(), trace_rng, 6));
        traces.push_back(random_glitch_trace(platform.engine(), trace_rng, 3));
        traces.push_back(nominal_trace(platform.engine())); // all-safe trace mix
        std::vector<bool> throttle(platform.engine().schedule().total_cycles, false);
        Rng mask_rng(31);
        for (std::size_t c = 0; c < throttle.size(); ++c) {
            throttle[c] = mask_rng.bernoulli(0.2);
        }
        const AccuracyResult want = reference_accuracy(platform, ds.test, n_images,
                                                       traces, 2468);
        const AccuracyResult want_defended = reference_accuracy(
            platform, ds.test, n_images, {traces[0]}, 2468, &throttle);
        EXPECT_GT(want.faults.total(), 0u); // the equivalence is not vacuous

        const auto golden =
            build_golden_store(platform.engine().network(), ds.test, n_images);
        const std::vector<const GoldenStore*> stores = {golden.get(), nullptr};
        for (std::size_t threads : {std::size_t{1}, std::size_t{8}}) {
            set_global_thread_count(threads);
            for (const GoldenStore* store : stores) {
                expect_results_equal(evaluate_accuracy_multi(platform, ds.test, n_images,
                                                             traces, 2468, nullptr, store),
                                     want);
                expect_results_equal(
                    evaluate_accuracy_defended(platform, ds.test, n_images, traces[0],
                                               throttle, 2468, nullptr, store),
                    want_defended);
            }
        }
        set_global_thread_count(0);
    }
}

// A passed store must cover every evaluated image: entries past its end
// do not exist, so evaluation refuses instead of reading them.
TEST(GoldenCacheEval, StoreNotCoveringTheImagesThrows) {
    Platform platform(PlatformConfig{}, random_qnetwork(61));
    const auto ds = data::make_datasets(9, 1, 20);
    const auto short_store = build_golden_store(platform.engine().network(), ds.test, 5);
    EXPECT_THROW(evaluate_accuracy(platform, ds.test, 8, nullptr, 2468, nullptr,
                                   short_store.get()),
                 ContractError);

    CampaignConfig cfg;
    cfg.strike_grid = {300};
    cfg.eval_images = 8;
    cfg.blind_offsets = 1;
    const CampaignPlan plan = plan_campaign(platform, ds.test, cfg);
    ASSERT_EQ(plan.eval_images, 8u);
    for (std::size_t idx = 0; idx < plan.record_count(); ++idx) {
        SweepRunner runner(platform, RunnerConfig{1});
        EXPECT_THROW(evaluate_campaign_record(platform, ds.test, plan, runner,
                                              short_store.get(), idx),
                     ContractError)
            << "record " << idx;
    }
}

/// The evaluation the oracle runs give for the first `n` images.
AccuracyResult oracle_accuracy(const std::vector<accel::RunResult>& runs,
                               const data::Dataset& ds, std::size_t n) {
    AccuracyResult result;
    result.images = n;
    std::size_t correct = 0;
    for (std::size_t i = 0; i < n; ++i) {
        correct += runs[i].predicted == ds.labels[i] ? 1 : 0;
        result.faults += runs[i].faults_total;
    }
    result.accuracy = static_cast<double>(correct) / static_cast<double>(n);
    return result;
}

// Evaluation runs the images of each trace in blocks of up to
// accel::kWalkLanes whose fault streams the engine draws in lock-step:
// image i on trace i % n and stream derive_seed(seed, i). For image counts
// that leave full and partial blocks (1, 7, 8, 9, 17, 40) over 1, 3 and 24
// traces (24 leaves blocks of one and two), at threads 1, 4 and 8 on both
// SIMD twins, the evaluation equals the per-op oracle run on each image
// alone, with and without a throttle mask; and each image's run in the
// block evaluation gives it equals the oracle's, logits, per-layer counts
// and end stream included.
TEST(GoldenCacheEval, BlocksMatchOracleAcrossImagesTracesThreadsAndTwins) {
    const Platform platform(PlatformConfig{}, random_qnetwork(61));
    const accel::AccelEngine& engine = platform.engine();
    const std::size_t max_images = 40;
    const auto ds = data::make_datasets(9, 1, max_images);
    const auto golden = build_golden_store(engine.network(), ds.test, max_images);
    const std::uint64_t seed = 2468;
    std::vector<bool> throttle(engine.schedule().total_cycles, false);
    Rng mask_rng(37);
    for (std::size_t c = 0; c < throttle.size(); ++c) throttle[c] = mask_rng.bernoulli(0.25);
    SimdGuard guard;
    for (const std::size_t n_traces : {std::size_t{1}, std::size_t{3}, std::size_t{24}}) {
        SCOPED_TRACE(std::to_string(n_traces) + " traces");
        Rng trace_rng(17 + n_traces);
        std::vector<accel::VoltageTrace> traces;
        std::vector<accel::OverlayPlan> plans;
        for (std::size_t t = 0; t < n_traces; ++t) {
            traces.push_back(t % 5 == 4 ? nominal_trace(engine)
                                        : random_glitch_trace(engine, trace_rng, 3 + t % 4));
            plans.push_back(engine.plan_overlay(&traces.back()));
        }
        // The oracle: each image alone on its own stream.
        std::vector<accel::RunResult> want;
        std::vector<Rng> want_rngs;
        std::vector<accel::RunResult> want_throttled;
        for (std::size_t i = 0; i < max_images; ++i) {
            Rng rng(derive_seed(seed, i));
            want.push_back(run_reference(engine, golden->entries[i].qimage,
                                         &traces[i % n_traces], rng));
            want_rngs.push_back(rng);
            if (n_traces == 1) {
                Rng throttled_rng(derive_seed(seed, i));
                want_throttled.push_back(run_reference(engine, golden->entries[i].qimage,
                                                       &traces[0], throttled_rng, &throttle));
            }
        }
        std::size_t faulted_images = 0;
        for (const accel::RunResult& run : want) {
            faulted_images += run.faults_total.total() > 0 ? 1 : 0;
        }
        EXPECT_GT(faulted_images, max_images / 2); // not vacuous

        for (const simd::Mode mode : {simd::Mode::Auto, simd::Mode::Scalar}) {
            SCOPED_TRACE(simd::mode_name(mode));
            simd::set_mode(mode);
            // Each block as evaluation forms it, image by image.
            for (std::size_t t = 0; t < n_traces; ++t) {
                for (std::size_t first = t; first < max_images;
                     first += accel::kWalkLanes * n_traces) {
                    std::vector<accel::GoldenPass> passes;
                    std::vector<Rng> rngs;
                    std::vector<std::size_t> index;
                    for (std::size_t i = first;
                         i < max_images && passes.size() < accel::kWalkLanes; i += n_traces) {
                        const GoldenEntry& entry = golden->entries[i];
                        passes.push_back({&entry.qimage, &entry.activations,
                                          &entry.accumulators});
                        rngs.emplace_back(derive_seed(seed, i));
                        index.push_back(i);
                    }
                    const std::vector<accel::RunResult> runs =
                        engine.run_block(passes, &traces[t], rngs, plans[t]);
                    for (std::size_t j = 0; j < runs.size(); ++j) {
                        SCOPED_TRACE("image " + std::to_string(index[j]));
                        expect_same_run(runs[j], want[index[j]]);
                        EXPECT_TRUE(stream_equal(rngs[j], want_rngs[index[j]]));
                    }
                }
            }
            for (const std::size_t threads : {1, 4, 8}) {
                set_global_thread_count(threads);
                for (const std::size_t n : {1, 7, 8, 9, 17, 40}) {
                    SCOPED_TRACE(std::to_string(n) + " images, " + std::to_string(threads) +
                                 " threads");
                    expect_results_equal(evaluate_accuracy_multi(platform, ds.test, n, traces,
                                                                 seed, &plans, golden.get()),
                                         oracle_accuracy(want, ds.test, n));
                    if (n_traces == 1) {
                        expect_results_equal(
                            evaluate_accuracy_defended(platform, ds.test, n, traces[0], throttle,
                                                       seed, &plans[0], golden.get()),
                            oracle_accuracy(want_throttled, ds.test, n));
                    }
                }
            }
        }
    }
    set_global_thread_count(0);
}

} // namespace
} // namespace deepstrike::sim
