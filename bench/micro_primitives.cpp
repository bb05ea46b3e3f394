// Microbenchmarks of the core simulation primitives (google-benchmark).
// These bound the wall-clock cost of the figure benches: one inference
// co-simulation is ~1M PDN steps + ~200k TDC samples, and one faulted
// accelerator run is ~365k DSP op evaluations.
//
// The binary also emits a machine-readable perf trajectory: after the run
// it writes BENCH_micro.json (override with DS_BENCH_JSON) mapping each
// benchmark name to ns/op and ops/s at the producing git revision, which
// CI consumes for regression smoke checks.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <utility>
#include <vector>

#include "accel/engine.hpp"
#include "attack/controller.hpp"
#include "attack/detector.hpp"
#include "attack/profiler.hpp"
#include "attack/search.hpp"
#include "data/synth_mnist.hpp"
#include "nn/trainer.hpp"
#include "nn/zoo.hpp"
#include "pdn/pdn.hpp"
#include "quant/qnetwork.hpp"
#include "sim/experiment.hpp"
#include "sim/golden_cache.hpp"
#include "sim/journal.hpp"
#include "sim/platform.hpp"
#include "sim/search.hpp"
#include "striker/striker.hpp"
#include "tdc/tdc.hpp"
#include "util/bitvec.hpp"
#include "util/json.hpp"
#include "util/parallel.hpp"

#ifndef DS_GIT_REV
#define DS_GIT_REV "unknown"
#endif

namespace ds = deepstrike;

namespace {

ds::quant::QNetwork bench_weights() {
    ds::Rng rng(4242);
    auto fill = [&rng](ds::Shape shape, double range) {
        ds::QTensor t(shape);
        for (std::size_t i = 0; i < t.size(); ++i) {
            t.at_unchecked(i) = ds::fx::Q3_4::from_real(rng.uniform(-range, range));
        }
        return t;
    };
    using ds::quant::Activation;
    using ds::quant::QLayerKind;
    ds::quant::QNetwork net;
    net.input_shape = ds::Shape{1, 28, 28};
    net.layers.emplace_back(QLayerKind::Conv, "CONV1", fill({6, 1, 5, 5}, 0.5),
                            fill({6}, 0.2), Activation::Tanh);
    net.layers.emplace_back(QLayerKind::Pool2, "POOL1", ds::QTensor(), ds::QTensor());
    net.layers.emplace_back(QLayerKind::Conv, "CONV2", fill({16, 6, 5, 5}, 0.4),
                            fill({16}, 0.2), Activation::Tanh);
    net.layers.emplace_back(QLayerKind::Dense, "FC1", fill({120, 1024}, 0.2),
                            fill({120}, 0.2), Activation::Tanh);
    net.layers.emplace_back(QLayerKind::Dense, "FC2", fill({10, 120}, 0.3),
                            fill({10}, 0.2), Activation::None);
    return net;
}

/// `count` seeded tensors of `shape` with Q3.4 values drawn uniformly
/// from [lo, hi], one Rng stream for all of them.
std::vector<ds::QTensor> random_qtensors(std::size_t count, const ds::Shape& shape,
                                         double lo, double hi, std::uint64_t seed) {
    ds::Rng rng(seed);
    std::vector<ds::QTensor> out;
    for (std::size_t n = 0; n < count; ++n) {
        ds::QTensor t(shape);
        for (std::size_t i = 0; i < t.size(); ++i) {
            t.at_unchecked(i) = ds::fx::Q3_4::from_real(rng.uniform(lo, hi));
        }
        out.push_back(std::move(t));
    }
    return out;
}

ds::QTensor bench_image() {
    return random_qtensors(1, ds::Shape{1, 28, 28}, 0.0, 1.0, 7).front();
}

// The layer and forward benches below cycle through 64 distinct inputs and
// time one input per iteration. A single repeated input lets the branch
// predictor learn its data, which hides data-dependent costs (pooling and
// writeback once measured 2-6x cheaper on one repeated input).
constexpr std::size_t kCycledInputs = 64;

std::vector<ds::QTensor> cycled_images() {
    return random_qtensors(kCycledInputs, ds::Shape{1, 28, 28}, 0.0, 1.0, 7);
}

void BM_PdnStep(benchmark::State& state) {
    ds::pdn::PdnModel model(ds::pdn::PdnParams::pynq_z1());
    model.reset(0.05);
    double load = 0.05;
    for (auto _ : state) {
        load = load < 0.3 ? load + 1e-4 : 0.05;
        benchmark::DoNotOptimize(model.step(load));
    }
}
BENCHMARK(BM_PdnStep);

void BM_TdcSample(benchmark::State& state) {
    const ds::pdn::DelayModel delay{};
    const ds::tdc::TdcSensor sensor(ds::tdc::TdcConfig::paper_config(), delay);
    ds::Rng rng(1);
    double v = 0.99;
    for (auto _ : state) {
        v = v < 0.999 ? v + 1e-6 : 0.99;
        benchmark::DoNotOptimize(sensor.sample(v, rng).readout);
    }
}
BENCHMARK(BM_TdcSample);

void BM_StrikerCurrent(benchmark::State& state) {
    const ds::pdn::DelayModel delay{};
    const ds::striker::StrikerBank bank(ds::striker::StrikerParams::end_to_end(), delay);
    double v = 0.95;
    for (auto _ : state) {
        v = v < 0.999 ? v + 1e-6 : 0.95;
        benchmark::DoNotOptimize(bank.current_a(v, true));
    }
}
BENCHMARK(BM_StrikerCurrent);

void BM_DspEvaluate(benchmark::State& state) {
    const ds::pdn::DelayModel delay{};
    ds::Rng construction(1);
    const ds::accel::DspSlice slice(0, ds::accel::DspTimingParams{}, construction);
    ds::Rng rng(2);
    const double v = 0.955; // in the fault-evaluation band
    for (auto _ : state) {
        benchmark::DoNotOptimize(slice.evaluate(v, delay, rng));
    }
}
BENCHMARK(BM_DspEvaluate);

// The per-op fault decision alone, as the engine's walk makes it: the
// delay factor of a capture sample in the fault band, read from the plan
// (here computed once outside the loop, so no pow() is timed).
void BM_DspEvaluateWithFactor(benchmark::State& state) {
    const ds::pdn::DelayModel delay{};
    ds::Rng construction(1);
    const ds::accel::DspSlice slice(0, ds::accel::DspTimingParams{}, construction);
    ds::Rng rng(2);
    const double factor = delay.factor(0.955); // in the fault-evaluation band
    for (auto _ : state) {
        benchmark::DoNotOptimize(slice.evaluate_with_factor(factor, rng));
    }
}
BENCHMARK(BM_DspEvaluateWithFactor);

// One standard-normal deviate, as the TDC sampler and the dataset noise
// draw them: a pair's two uniforms, log, sqrt and sincos every other call.
void BM_RngNormal(benchmark::State& state) {
    ds::Rng rng(3);
    for (auto _ : state) {
        benchmark::DoNotOptimize(rng.normal());
    }
}
BENCHMARK(BM_RngNormal);

void BM_DetectorSample(benchmark::State& state) {
    ds::attack::DnnStartDetector detector{ds::attack::DetectorConfig{}};
    const ds::pdn::DelayModel delay{};
    const ds::tdc::TdcSensor sensor(ds::tdc::TdcConfig::paper_config(), delay);
    ds::Rng rng(3);
    const ds::tdc::TdcSample sample = sensor.sample(0.996, rng);
    for (auto _ : state) {
        benchmark::DoNotOptimize(detector.on_sample(sample));
    }
}
BENCHMARK(BM_DetectorSample);

// CONV2-geometry conv layer (K = 6*5*5 = 150, 16 output channels on a
// 12x12 plane) through the im2col/GEMM engine (the packed-weight pmaddwd
// kernel on AVX2 hosts). CI gates it against its baseline.
void BM_Qconv2dGemm(benchmark::State& state) {
    const ds::quant::QNetwork net = bench_weights();
    const ds::quant::QLayer& conv2 = net.layer("CONV2");
    const std::vector<ds::QTensor> inputs =
        random_qtensors(kCycledInputs, ds::Shape{6, 12, 12}, -1.0, 1.0, 9);
    std::size_t i = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            ds::quant::qconv2d(inputs[i], conv2.weight, conv2.bias, conv2.activation));
        i = (i + 1) % kCycledInputs;
    }
}
BENCHMARK(BM_Qconv2dGemm);

// CONV1-geometry conv layer (one input channel, K = 25, 6 output channels
// on a 24x24 plane): the transposing epilogue's partial channel block and
// the block-copied k = 5 spans. CI gates it against its baseline.
void BM_QConv2dLayer(benchmark::State& state) {
    const ds::quant::QNetwork net = bench_weights();
    const ds::quant::QLayer& conv1 = net.layer("CONV1");
    const std::vector<ds::QTensor> images = cycled_images();
    std::size_t i = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            ds::quant::qconv2d(images[i], conv1.weight, conv1.bias,
                               ds::quant::Activation::Tanh));
        i = (i + 1) % kCycledInputs;
    }
}
BENCHMARK(BM_QConv2dLayer);

// FC1-geometry dense layer (1024 -> 120, 245 KB of int16 weights): the
// one-image dense kernel, four weight rows per input load. CI gates it
// against its baseline.
void BM_QdenseFc1(benchmark::State& state) {
    const ds::quant::QNetwork net = bench_weights();
    const ds::quant::QLayer& fc1 = net.layer("FC1");
    const std::vector<ds::QTensor> inputs =
        random_qtensors(kCycledInputs, ds::Shape{1024}, -1.0, 1.0, 11);
    std::size_t i = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            ds::quant::qdense(inputs[i], fc1.weight, fc1.bias, fc1.activation));
        i = (i + 1) % kCycledInputs;
    }
}
BENCHMARK(BM_QdenseFc1);

// One whole quantized forward (CONV1 through FC2); CI gates it so a
// regression in pooling, writeback or forward_from fails perf-smoke.
void BM_GoldenInference(benchmark::State& state) {
    const ds::quant::QNetwork net = bench_weights();
    const std::vector<ds::QTensor> images = cycled_images();
    std::size_t i = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(net.forward(images[i]));
        i = (i + 1) % kCycledInputs;
    }
}
BENCHMARK(BM_GoldenInference);

// One faulted inference through the engine's only entry, run_block on a
// block of one image, with the image's golden pass and the overlay plan
// built outside the loop as a golden store and a trace bundle provide them.
void BM_AccelFaultedInference(benchmark::State& state) {
    const ds::accel::AccelEngine engine(bench_weights(),
                                        ds::accel::AccelConfig::pynq_z1(), 2021);
    const ds::QTensor img = bench_image();
    // Glitch the whole CONV2 segment: worst-case slow path.
    ds::accel::VoltageTrace trace(engine.schedule().total_cycles * 2, 1.0);
    const auto& seg = engine.schedule().segment_for("CONV2");
    for (std::size_t i = seg.start_cycle * 2; i < seg.end_cycle() * 2; ++i) {
        trace[i] = 0.955;
    }
    const ds::accel::OverlayPlan plan = engine.plan_overlay(&trace);
    const ds::quant::QNetwork::ForwardTrace golden = engine.network().forward_trace(img);
    const ds::accel::GoldenPass pass{&img, &golden.activations, &golden.accumulators};
    ds::Rng rng(5);
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            engine.run_block({&pass, 1}, {&rng, 1}, plan).front().predicted);
    }
}
BENCHMARK(BM_AccelFaultedInference);

void BM_CosimFullInference(benchmark::State& state) {
    const ds::sim::Platform platform(ds::sim::PlatformConfig{}, bench_weights());
    for (auto _ : state) {
        ds::sim::NoAttackSource source;
        benchmark::DoNotOptimize(platform.simulate_inference(source).strike_cycles);
    }
}
BENCHMARK(BM_CosimFullInference);

// The co-sim tick loop, one full lane group (sim::kCosimLanes, 8) vs as
// many one-lane groups: both benches co-simulate the same 8 independent
// inferences, through 8 simulate_inference calls (each a one-lane group)
// vs one 8-lane SoA/SIMD group. Identical bytes out
// (tests/cosim_lanes_test.cpp); CI gates the same-run pair ratio at 0.6 so
// lane batching never silently decays to one-co-sim-at-a-time speed. The
// pair runs as alternating one-iteration repetitions (main below).

/// The gated co-sim pairs' platform, built once, so that their
/// one-iteration repetitions time the tick loop rather than follow a
/// fresh platform build each.
const ds::sim::Platform& cosim_pair_platform() {
    static const ds::sim::Platform platform(ds::sim::PlatformConfig{}, bench_weights());
    return platform;
}

void BM_CosimCycleOneLane(benchmark::State& state) {
    const ds::sim::Platform& platform = cosim_pair_platform();
    for (auto _ : state) {
        for (std::size_t l = 0; l < ds::sim::kCosimLanes; ++l) {
            ds::sim::NoAttackSource source;
            benchmark::DoNotOptimize(platform.simulate_inference(source).strike_cycles);
        }
    }
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations() * ds::sim::kCosimLanes *
                                  platform.engine().schedule().total_cycles));
}

void BM_CosimCycleLanes(benchmark::State& state) {
    const ds::sim::Platform& platform = cosim_pair_platform();
    for (auto _ : state) {
        std::vector<ds::sim::NoAttackSource> sources(ds::sim::kCosimLanes);
        std::vector<ds::sim::StrikeSource*> lanes;
        lanes.reserve(ds::sim::kCosimLanes);
        for (ds::sim::NoAttackSource& s : sources) lanes.push_back(&s);
        benchmark::DoNotOptimize(platform.simulate_inference_lanes(lanes).size());
    }
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations() * ds::sim::kCosimLanes *
                                  platform.engine().schedule().total_cycles));
}

// A blind scheme's trace fill, one 8-lane group of its replays (500
// strikes of 4 cycles, starts from sim::blind_replays), recorded two ways:
// each lane's overlay plan only, as SweepRunner::fill records it
// (CosimRecord::Plan), and the full sensor view. A blind source never
// listens, so the plan-only group draws no TDC sample, records no readout
// and allocates no capture trace; its plans equal plan_overlay of the
// capture voltages, which equal the sensor view's
// (tests/cosim_lanes_test.cpp). CI gates the same-run pair ratio at 0.6 so
// trace fills keep skipping the sensor; the pair runs as alternating
// one-iteration repetitions (main below).
void cosim_cycle_blind(benchmark::State& state, ds::sim::CosimRecord record) {
    const ds::sim::Platform& platform = cosim_pair_platform();
    ds::attack::AttackScheme scheme;
    scheme.strike_cycles = 4;
    scheme.num_strikes = 500;
    const std::vector<ds::sim::BlindReplay> replays =
        ds::sim::blind_replays(platform, scheme, ds::sim::kCosimLanes, 17);
    for (auto _ : state) {
        std::vector<ds::attack::BlindController> controllers;
        controllers.reserve(replays.size());
        std::vector<ds::sim::BlindSource> sources;
        sources.reserve(replays.size());
        std::vector<ds::sim::StrikeSource*> lanes;
        for (const ds::sim::BlindReplay& replay : replays) {
            controllers.emplace_back(scheme, replay.start_cycle);
            sources.emplace_back(controllers.back());
            lanes.push_back(&sources.back());
        }
        benchmark::DoNotOptimize(platform.simulate_inference_lanes(lanes, record).size());
    }
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations() * ds::sim::kCosimLanes *
                                  platform.engine().schedule().total_cycles));
}

void BM_CosimCycleBlindPlan(benchmark::State& state) {
    cosim_cycle_blind(state, ds::sim::CosimRecord::Plan);
}

void BM_CosimCycleBlindSensor(benchmark::State& state) {
    cosim_cycle_blind(state, ds::sim::CosimRecord::Sensor);
}

// Lane-count scaling: one group of W co-sims per iteration (W=1 is a
// one-lane group, padded to one 4-lane slot). Per-co-sim cost should fall
// as W grows; items processed = co-sims, so ops/s is directly comparable
// across W.
void BM_CosimLanesWidth(benchmark::State& state) {
    const auto width = static_cast<std::size_t>(state.range(0));
    const ds::sim::Platform platform(ds::sim::PlatformConfig{}, bench_weights());
    for (auto _ : state) {
        std::vector<ds::sim::NoAttackSource> sources(width);
        std::vector<ds::sim::StrikeSource*> lanes;
        lanes.reserve(width);
        for (ds::sim::NoAttackSource& s : sources) lanes.push_back(&s);
        benchmark::DoNotOptimize(platform.simulate_inference_lanes(lanes).size());
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations() * width));
}
BENCHMARK(BM_CosimLanesWidth)->Arg(1)->Arg(4)->Arg(8)->Unit(benchmark::kMillisecond);

// One guided campaign point end to end, the unit of work SweepRunner
// schedules: co-simulate the attack trace for a CONV2-targeting scheme,
// then evaluate 25 faulted images on it. Setup (profiling, planning, the
// 25-image golden store) runs once outside the timed loop, as it does once
// per campaign.
ds::attack::AttackScheme conv2_scheme(const ds::sim::Platform& platform,
                                      const ds::attack::DetectorConfig& detector,
                                      std::size_t strikes) {
    const ds::sim::ProfilingRun prof = ds::sim::run_profiling(platform, detector);
    // Pick the profiled segment that best overlaps CONV2's schedule window
    // (converted to TDC-sample coordinates via the trigger).
    const auto& conv2 = platform.engine().schedule().segment_for("CONV2");
    const double spc = platform.config().samples_per_cycle();
    const double c2_begin =
        static_cast<double>(prof.trigger_sample) +
        static_cast<double>(conv2.start_cycle) * spc;
    const double c2_end = static_cast<double>(prof.trigger_sample) +
                          static_cast<double>(conv2.end_cycle()) * spc;
    std::size_t best = 0;
    double best_overlap = -1e300;
    for (std::size_t i = 0; i < prof.profile.segments.size(); ++i) {
        const auto& seg = prof.profile.segments[i];
        const double overlap =
            std::min(static_cast<double>(seg.end_sample), c2_end) -
            std::max(static_cast<double>(seg.start_sample), c2_begin);
        if (overlap > best_overlap) {
            best_overlap = overlap;
            best = i;
        }
    }
    const ds::attack::ProfiledSegment& target = prof.profile.segments[best];
    const std::size_t n =
        std::min<std::size_t>(strikes, target.duration_samples() / 4);
    return ds::attack::plan_attack(target, prof.trigger_sample, spc, n);
}

/// The guided CONV2 campaign point the journaled pair times: co-simulation
/// of the strike trace, then a 25-image evaluation against a golden store.
/// Set up once and shared by both benchmarks of the pair, together with
/// the journal the journaled one appends to, so their interleaved
/// repetitions (main below) pay no set-up and append to one file.
struct GuidedPointRig {
    ds::sim::Platform platform{ds::sim::PlatformConfig{}, bench_weights()};
    ds::data::DatasetPair data = ds::data::make_datasets(11, 1, 25);
    ds::attack::DetectorConfig detector{};
    ds::attack::AttackScheme scheme = conv2_scheme(platform, detector, 2000);
    std::shared_ptr<const ds::sim::GoldenStore> golden =
        ds::sim::build_golden_store(platform.engine().network(), data.test, 25);
    std::unique_ptr<ds::sim::CheckpointJournal> journal =
        ds::sim::CheckpointJournal::create(kJournalPath, 0xBE7Cu, "bench");
    std::size_t appended = 0;

    static constexpr const char* kJournalPath = "BENCH_journal.jsonl";

    ~GuidedPointRig() {
        journal.reset();
        std::remove(kJournalPath);
    }

    double point() const {
        const ds::accel::VoltageTrace trace =
            ds::sim::guided_attack_trace(platform, detector, scheme);
        const ds::accel::OverlayPlan plan = platform.engine().plan_overlay(&trace);
        return ds::sim::evaluate_accuracy(platform, data.test, 25, {&plan, 1}, 99, nullptr,
                                          golden.get())
            .accuracy;
    }
};

/// The pair's rig; main destroys it after the run.
std::unique_ptr<GuidedPointRig>& guided_point_rig_slot() {
    static std::unique_ptr<GuidedPointRig> rig;
    return rig;
}

/// The pair's rig, built on first use.
GuidedPointRig& guided_point_rig() {
    std::unique_ptr<GuidedPointRig>& rig = guided_point_rig_slot();
    if (!rig) rig = std::make_unique<GuidedPointRig>();
    return *rig;
}

void BM_GuidedCampaignPoint(benchmark::State& state) {
    const GuidedPointRig& rig = guided_point_rig();
    for (auto _ : state) benchmark::DoNotOptimize(rig.point());
}

// The same campaign point with checkpoint journaling active, bounding the
// hot-path cost of crash safety. append() writes one line on the calling
// thread and fsyncs once per 8 records, so a point pays one write() and an
// eighth of an fsync, and this should track BM_GuidedCampaignPoint within
// noise (CI gates the pair ratio).
void BM_GuidedCampaignPointJournaled(benchmark::State& state) {
    GuidedPointRig& rig = guided_point_rig();
    for (auto _ : state) {
        const double accuracy = rig.point();
        ds::Json payload = ds::Json::object();
        payload.set("kind", "point");
        payload.set("accuracy", accuracy);
        rig.journal->append(++rig.appended, std::move(payload));
        benchmark::DoNotOptimize(accuracy);
    }
}

// The accuracy-evaluation inner loop alone (trace + plan hoisted outside,
// as SweepRunner's bundle store provides them): 200 images against one
// guided CONV2 strike trace, through a golden store built once outside the
// timed loop — exactly as a campaign builds it once and amortizes it over
// every sweep point (docs/architecture.md "Hot paths").
void BM_EvaluateAccuracyMultiCached(benchmark::State& state) {
    const ds::sim::Platform platform(ds::sim::PlatformConfig{}, bench_weights());
    const ds::data::DatasetPair data = ds::data::make_datasets(11, 1, 200);
    const ds::attack::DetectorConfig detector{};
    const ds::attack::AttackScheme scheme = conv2_scheme(platform, detector, 200);
    const ds::accel::VoltageTrace trace =
        ds::sim::guided_attack_trace(platform, detector, scheme);
    const ds::accel::OverlayPlan plan = platform.engine().plan_overlay(&trace);
    const auto golden =
        ds::sim::build_golden_store(platform.engine().network(), data.test, 200);
    for (auto _ : state) {
        const ds::sim::AccuracyResult res = ds::sim::evaluate_accuracy(
            platform, data.test, 200, {&plan, 1}, 99, nullptr, golden.get());
        benchmark::DoNotOptimize(res.accuracy);
    }
}
BENCHMARK(BM_EvaluateAccuracyMultiCached)->Unit(benchmark::kMillisecond);

// The fault walk's lanes: the same 8 images evaluated on the overlay plan
// of one guided CONV2 strike trace, whose images the engine draws as one
// 8-lane block, and on 8 copies of that plan, one image each, so every
// image is a block of one (as strike-scan's blind points are). Image i
// runs plan i % 8 on stream derive_seed(seed, i) either way, so both give
// the same bytes (tests/golden_cache_test.cpp); each repetition evaluates
// 8 fault seeds.
// CI gates the same-run pair ratio, and the lone-image bench against its
// baseline so a lone image cannot get slower unseen. Set up once and
// shared by both benches of the pair, whose alternating one-iteration
// repetitions main registers.
struct FaultWalkRig {
    static constexpr std::size_t kImages = 8;
    static constexpr std::uint64_t kSeeds = 8;

    ds::sim::Platform platform{ds::sim::PlatformConfig{}, bench_weights()};
    ds::data::DatasetPair data = ds::data::make_datasets(11, 1, kImages);
    std::shared_ptr<const ds::sim::GoldenStore> golden =
        ds::sim::build_golden_store(platform.engine().network(), data.test, kImages);
    std::vector<ds::accel::OverlayPlan> one_plan;
    std::vector<ds::accel::OverlayPlan> plan_copies;

    FaultWalkRig() {
        const ds::attack::DetectorConfig detector{};
        const ds::accel::VoltageTrace trace = ds::sim::guided_attack_trace(
            platform, detector, conv2_scheme(platform, detector, 2000));
        one_plan.push_back(platform.engine().plan_overlay(&trace));
        plan_copies.assign(kImages, one_plan.front());
    }

    std::size_t evaluate(const std::vector<ds::accel::OverlayPlan>& plans) const {
        std::size_t faults = 0;
        for (std::uint64_t seed = 0; seed < kSeeds; ++seed) {
            faults += ds::sim::evaluate_accuracy(platform, data.test, kImages, plans,
                                                 99 + seed, nullptr, golden.get())
                          .faults.total();
        }
        return faults;
    }
};

const FaultWalkRig& fault_walk_rig() {
    static const FaultWalkRig rig;
    return rig;
}

void BM_FaultWalkBlock(benchmark::State& state) {
    const FaultWalkRig& rig = fault_walk_rig();
    for (auto _ : state) benchmark::DoNotOptimize(rig.evaluate(rig.one_plan));
}

void BM_FaultWalkLone(benchmark::State& state) {
    const FaultWalkRig& rig = fault_walk_rig();
    for (auto _ : state) {
        benchmark::DoNotOptimize(rig.evaluate(rig.plan_copies));
    }
}

// Golden-store construction over 200 images: one forward_trace per image,
// each its own pool task, one GEMM per conv/dense layer per image.
// Campaigns pay this once up front; CI gates it against its baseline. The
// two stores built before the current one stay alive until it is built:
// freed at once, a whole store would hand the heap's top back to the
// system, and every build would then time faulting its pages in again,
// more or less of them depending on what ran before it in the process.
void BM_GoldenStoreBuild(benchmark::State& state) {
    const ds::sim::Platform platform(ds::sim::PlatformConfig{}, bench_weights());
    const ds::data::DatasetPair data = ds::data::make_datasets(11, 1, 200);
    std::shared_ptr<const ds::sim::GoldenStore> older;
    std::shared_ptr<const ds::sim::GoldenStore> previous;
    for (auto _ : state) {
        auto store = ds::sim::build_golden_store(platform.engine().network(), data.test, 200);
        benchmark::DoNotOptimize(store.get());
        older = std::exchange(previous, std::move(store));
    }
}
BENCHMARK(BM_GoldenStoreBuild)->Unit(benchmark::kMillisecond);

// Eval-heavy campaign point (200 images instead of 25): co-simulation,
// overlay planning and evaluation against a golden store built once
// outside the timed loop, as a campaign builds it.
void BM_GuidedCampaignPointEval200Cached(benchmark::State& state) {
    const ds::sim::Platform platform(ds::sim::PlatformConfig{}, bench_weights());
    const ds::data::DatasetPair data = ds::data::make_datasets(11, 1, 200);
    const ds::attack::DetectorConfig detector{};
    const ds::attack::AttackScheme scheme = conv2_scheme(platform, detector, 200);
    const auto golden =
        ds::sim::build_golden_store(platform.engine().network(), data.test, 200);
    for (auto _ : state) {
        const ds::accel::VoltageTrace trace =
            ds::sim::guided_attack_trace(platform, detector, scheme);
        const ds::accel::OverlayPlan plan = platform.engine().plan_overlay(&trace);
        const ds::sim::AccuracyResult res = ds::sim::evaluate_accuracy(
            platform, data.test, 200, {&plan, 1}, 99, nullptr, golden.get());
        benchmark::DoNotOptimize(res.accuracy);
    }
}
BENCHMARK(BM_GuidedCampaignPointEval200Cached)->Unit(benchmark::kMillisecond);

// One generation of the weight-fault search (nightly `search-convergence`
// lane): a DES population of 16 candidates scored through the sim-backed
// fitness — faults patched into pooled working copies, 64 images each
// resumed from the deepest stored fault prefix, memoized by candidate. The
// driver's budget admits exactly the init population plus one evolved
// generation, so ns/op bounds the per-generation cost a fixed-budget
// search pays ~(budget/population) times. Setup cost (the golden prefix
// stores) is inside the loop on purpose: it is paid once per search run,
// and the pair with the pure-driver bench below isolates it.
void BM_SearchGeneration(benchmark::State& state) {
    const ds::quant::QNetwork net = bench_weights();
    const ds::data::DatasetPair data = ds::data::make_datasets(11, 1, 64);
    ds::sim::WeightFaultSearchConfig config;
    config.spec.max_faults = 4;
    config.spec.population = 16;
    config.spec.budget = 32; // init + one generation
    config.spec.seed = 5;
    config.eval_images = 64;
    config.threads = 1;
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            ds::sim::run_weight_fault_search(net, data.test, config).best_drop);
    }
}
BENCHMARK(BM_SearchGeneration)->Unit(benchmark::kMillisecond);

// A whole Deep-Dup search on the bench network: three P-DES stages of 16
// candidates on 64 images, each stalling out after 3 non-improving
// generations, 18 generations and 288 evaluations in all (the budget is
// not reached). Its champion duplicates a CONV2 beat (index 951), and
// P-DES carries a stage's champion into every member of the next, so 176
// of its 260 fresh candidates resume from fault prefixes that earlier
// generations stored: reuse that BM_SearchGeneration's two generations
// cannot see. CI gates it.
void BM_SearchStage(benchmark::State& state) {
    const ds::quant::QNetwork net = bench_weights();
    const ds::data::DatasetPair data = ds::data::make_datasets(11, 1, 64);
    ds::sim::WeightFaultSearchConfig config;
    config.spec.max_faults = 3;
    config.spec.population = 16;
    config.spec.budget = 2000;
    config.spec.seed = 7;
    config.spec.stall_generations = 3;
    config.eval_images = 64;
    config.threads = 1;
    for (auto _ : state) {
        const ds::sim::SearchReport report =
            ds::sim::run_weight_fault_search(net, data.test, config);
        if (report.stages < 3) state.SkipWithError("the search never reached its last stage");
        benchmark::DoNotOptimize(report.best_drop);
    }
}
BENCHMARK(BM_SearchStage)->Unit(benchmark::kMillisecond);

// The search driver alone — same generation shape against a free synthetic
// fitness, bounding the bookkeeping overhead (population evolution, RNG
// derivation, convergence records) that rides on every generation above.
void BM_SearchDriverOverhead(benchmark::State& state) {
    ds::attack::SearchSpec spec;
    spec.space = 126630; // LeNet-5 stream geometry
    spec.max_faults = 4;
    spec.population = 16;
    spec.budget = 32;
    spec.seed = 5;
    const ds::attack::BatchFitness fitness =
        [](const std::vector<ds::attack::FaultSet>& batch) {
            std::vector<double> values(batch.size());
            for (std::size_t i = 0; i < batch.size(); ++i) {
                values[i] = batch[i].empty()
                                ? 0.0
                                : static_cast<double>(batch[i].front() % 97);
            }
            return values;
        };
    for (auto _ : state) {
        ds::attack::SearchDriver driver(spec, fitness);
        benchmark::DoNotOptimize(driver.run().best_fitness);
    }
}
BENCHMARK(BM_SearchDriverOverhead);

// Victim set-up: scoring the float model (nn::evaluate_accuracy through
// Sequential::predict) and rendering the synthetic test split. Every run
// of a paper workload loads its victim through both.
void BM_FloatEvaluateAccuracy(benchmark::State& state) {
    ds::Rng rng(7);
    const ds::nn::Sequential model =
        ds::nn::build_architecture(ds::nn::Architecture::LeNet5, rng);
    const ds::data::DatasetPair data = ds::data::make_datasets(11, 0, 200);
    for (auto _ : state) {
        benchmark::DoNotOptimize(ds::nn::evaluate_accuracy(model, data.test));
    }
}
BENCHMARK(BM_FloatEvaluateAccuracy)->Unit(benchmark::kMillisecond);

void BM_MakeDatasets(benchmark::State& state) {
    for (auto _ : state) {
        benchmark::DoNotOptimize(ds::data::make_datasets(42, 0, 1000).test.size());
    }
}
BENCHMARK(BM_MakeDatasets)->Unit(benchmark::kMillisecond);

void BM_BitVecPopcount(benchmark::State& state) {
    ds::Rng rng(6);
    ds::BitVec v(4096);
    for (std::size_t i = 0; i < v.size(); ++i) v.set(i, rng.bernoulli(0.5));
    for (auto _ : state) {
        benchmark::DoNotOptimize(v.popcount());
    }
}
BENCHMARK(BM_BitVecPopcount);

// Console output plus collection of every completed run for the JSON
// trajectory file. Runs of one name (the interleaved repetitions that main
// registers) collect into one entry.
class JsonCollector : public benchmark::ConsoleReporter {
public:
    struct Entry {
        std::string name;
        std::vector<double> samples; // ns/op of each run, in run order
        std::int64_t iterations = 0; // over all runs
    };
    std::vector<Entry> entries;

    void ReportRuns(const std::vector<Run>& reports) override {
        for (const Run& run : reports) {
            if (run.iterations <= 0 || run.error_occurred) continue;
            // One name for every repetition of a pair, whose fixed
            // iteration count would otherwise suffix it.
            benchmark::BenchmarkName key = run.run_name;
            key.iterations.clear();
            const std::string name = key.str();
            auto it = std::find_if(entries.begin(), entries.end(),
                                   [&](const Entry& e) { return e.name == name; });
            if (it == entries.end()) it = entries.insert(entries.end(), Entry{name, {}, 0});
            const double iters = static_cast<double>(run.iterations);
            it->samples.push_back(run.real_accumulated_time / iters * 1e9);
            it->iterations += run.iterations;
        }
        ConsoleReporter::ReportRuns(reports);
    }
};

/// Registers `reps` alternating one-iteration repetitions of a same-run
/// pair, so host load lands on both benchmarks alike; the collector keeps
/// each one's median and every repetition in run order, and
/// tools/check_bench_regression.py --pair takes the median of the
/// neighbouring repetitions' ratios.
void register_pair(const char* first, void (*first_fn)(benchmark::State&),
                   const char* second, void (*second_fn)(benchmark::State&), int reps) {
    for (int r = 0; r < reps; ++r) {
        benchmark::RegisterBenchmark(first, first_fn)
            ->Unit(benchmark::kMillisecond)
            ->Iterations(1);
        benchmark::RegisterBenchmark(second, second_fn)
            ->Unit(benchmark::kMillisecond)
            ->Iterations(1);
    }
}

} // namespace

int main(int argc, char** argv) {
    benchmark::Initialize(&argc, argv);
    if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;

    // These benches bound the *serial* cost of one unit of sweep work;
    // pin the pool to one worker so measurements are pool-width-independent.
    ds::set_global_thread_count(1);

    // The same-run pairs CI gates run as alternating one-iteration
    // repetitions (register_pair).
    register_pair("BM_GuidedCampaignPoint", BM_GuidedCampaignPoint,
                  "BM_GuidedCampaignPointJournaled", BM_GuidedCampaignPointJournaled, 41);
    register_pair("BM_FaultWalkBlock", BM_FaultWalkBlock, "BM_FaultWalkLone",
                  BM_FaultWalkLone, 41);
    register_pair("BM_CosimCycleLanes", BM_CosimCycleLanes, "BM_CosimCycleOneLane",
                  BM_CosimCycleOneLane, 15);
    register_pair("BM_CosimCycleBlindPlan", BM_CosimCycleBlindPlan,
                  "BM_CosimCycleBlindSensor", BM_CosimCycleBlindSensor, 15);

    JsonCollector reporter;
    benchmark::RunSpecifiedBenchmarks(&reporter);
    guided_point_rig_slot().reset();

    ds::Json root = ds::Json::object();
    root.set("git_rev", DS_GIT_REV);
    root.set("bench", "micro_primitives");
    ds::Json marks = ds::Json::object();
    for (const JsonCollector::Entry& e : reporter.entries) {
        // A repeated benchmark reports the median of its repetitions and
        // lists every repetition's ns/op in run order.
        std::vector<double> sorted = e.samples;
        std::sort(sorted.begin(), sorted.end());
        const std::size_t n = sorted.size();
        const double ns = n % 2 == 1 ? sorted[n / 2] : 0.5 * (sorted[n / 2 - 1] + sorted[n / 2]);
        ds::Json m = ds::Json::object();
        m.set("ns_per_op", ns);
        m.set("ops_per_second", ns > 0.0 ? 1e9 / ns : 0.0);
        m.set("iterations", e.iterations);
        if (n > 1) {
            ds::Json samples = ds::Json::array();
            for (double sample : e.samples) samples.push(sample);
            m.set("samples", std::move(samples));
        }
        marks.set(e.name, std::move(m));
    }
    root.set("benchmarks", std::move(marks));

    const char* path = std::getenv("DS_BENCH_JSON");
    std::ofstream out(path != nullptr ? path : "BENCH_micro.json");
    out << root.dump(2) << "\n";
    return 0;
}
