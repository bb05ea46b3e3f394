// Co-simulation invariants (the lane engine, sim/cosim_lanes.cpp).
//
// The lane engine is the only co-sim tick loop, one lane group of 1 to
// sim::kCosimLanes sources per call, and it rests on one contract: how
// co-sims are grouped, the worker thread count or forcing the scalar SIMD
// twin may change wall-clock, but never a single byte of any result.
// These tests pin that contract at the campaign-report level (every zoo
// victim) and at the raw CosimResult level: the same sources split into
// groups of several sizes (cosim_in_groups) are compared bitwise against a
// test-local oracle that steps one co-sim one tick at a time on the
// public substrate models, including compaction exit and re-entry around
// mid-run strikes and partially filled 4-lane slots, and every
// capture-only lane against its Sensor-mode twin.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <deque>
#include <memory>
#include <numeric>
#include <span>
#include <string>
#include <vector>

#include "accel/arch_profiles.hpp"
#include "accel/schedule.hpp"
#include "attack/controller.hpp"
#include "nn/zoo.hpp"
#include "pdn/pdn.hpp"
#include "quant/qnetwork.hpp"
#include "sim/campaign.hpp"
#include "test_helpers.hpp"
#include "util/error.hpp"
#include "util/metrics.hpp"
#include "util/simd.hpp"

namespace deepstrike {
namespace {

using testing::FixedSource;
using testing::SimdGuard;

quant::QNetwork untrained_network(nn::Architecture arch) {
    Rng rng(2024);
    nn::Sequential model = nn::build_architecture(arch, rng);
    const nn::ArchitectureInfo& info = nn::architecture_info(arch);
    return quant::quantize_sequential(model, info.input_shape, {},
                                      quant::quant_format_for(arch));
}

sim::PlatformConfig platform_config(nn::Architecture arch) {
    sim::PlatformConfig cfg;
    cfg.accel = accel::accel_config_for(arch);
    return cfg;
}

sim::CampaignConfig tiny_config(std::size_t threads, std::size_t blind_offsets = 3) {
    sim::CampaignConfig cfg;
    cfg.strike_grid = {300, 900};
    cfg.eval_images = 12;
    // >1 offset so the blind points exercise lane-batched replay groups.
    cfg.blind_offsets = blind_offsets;
    cfg.threads = threads;
    return cfg;
}

/// The per-tick oracle: one co-sim stepped one scalar double at a time on
/// the public substrate models — pdn::PdnModel, TdcSensor::sample_into,
/// StrikerBank::current_a and the accelerator's activity current — with
/// the configured TDC sample and DSP capture ticks matched in order. It
/// records what a Sensor co-sim records.
sim::CosimResult oracle_cosim(const sim::Platform& platform, sim::StrikeSource& source) {
    const sim::PlatformConfig& cfg = platform.config();
    const std::size_t total_cycles = platform.engine().schedule().total_cycles;
    const std::size_t tpc = cfg.ticks_per_cycle;
    const std::size_t n_caps = cfg.dsp_capture_ticks.size();
    const std::vector<double> activity =
        accel::activity_current_trace(platform.engine().schedule(), cfg.accel);

    pdn::PdnModel pdn_model(cfg.pdn);
    pdn_model.reset(platform.idle_current_a());
    Rng tdc_rng(cfg.tdc_noise_seed);

    sim::CosimResult result;
    result.strike_bits = BitVec(total_cycles);
    result.capture_v.assign(total_cycles * n_caps, cfg.pdn.vdd);

    double v = pdn_model.voltage();
    tdc::TdcSample sample;
    for (std::size_t cycle = 0; cycle < total_cycles; ++cycle) {
        const bool strike = source.strike_bit(cycle);
        if (strike) {
            ++result.strike_cycles;
            result.strike_bits.set(cycle, true);
        }
        const double i_victim = cfg.accel.i_platform_idle_a + activity[cycle];
        std::size_t sample_idx = 0;
        std::size_t capture_idx = 0;
        for (std::size_t tick = 0; tick < tpc; ++tick) {
            const double i_total =
                strike ? i_victim + platform.striker_bank().current_a(v, true) : i_victim;
            v = pdn_model.step(i_total);
            if (sample_idx < cfg.tdc_sample_ticks.size() &&
                tick == cfg.tdc_sample_ticks[sample_idx]) {
                platform.sensor().sample_into(v, tdc_rng, sample);
                result.tdc_readouts.push_back(sample.readout);
                source.on_tdc_sample(sample);
                ++sample_idx;
            }
            if (capture_idx < n_caps && tick == cfg.dsp_capture_ticks[capture_idx]) {
                result.capture_v[cycle * n_caps + capture_idx] = v;
                ++capture_idx;
            }
        }
    }
    return result;
}

/// Co-simulates `sources` in lane groups of `width` (the last one may be
/// smaller), one simulate_inference_lanes call per group, and returns the
/// results in source order.
std::vector<sim::CosimResult> cosim_in_groups(const sim::Platform& platform,
                                              std::span<sim::StrikeSource* const> sources,
                                              std::size_t width, sim::CosimRecord record) {
    std::vector<sim::CosimResult> out;
    for (std::size_t begin = 0; begin < sources.size(); begin += width) {
        for (sim::CosimResult& r : platform.simulate_inference_lanes(
                 sources.subspan(begin, std::min(width, sources.size() - begin)), record)) {
            out.push_back(std::move(r));
        }
    }
    return out;
}

/// Bitwise (not value) comparison: -0.0 vs 0.0 or a rounding flip anywhere
/// must fail the test even where operator== would pass.
bool bits_equal(const std::vector<double>& a, const std::vector<double>& b) {
    return a.size() == b.size() &&
           (a.empty() ||
            std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

void expect_cosim_identical(const sim::CosimResult& lane,
                            const sim::CosimResult& ref,
                            const std::string& label) {
    EXPECT_TRUE(bits_equal(lane.capture_v, ref.capture_v))
        << label << ": capture_v diverged";
    EXPECT_EQ(lane.tdc_readouts, ref.tdc_readouts)
        << label << ": tdc_readouts diverged";
    EXPECT_EQ(lane.strike_cycles, ref.strike_cycles)
        << label << ": strike_cycles diverged";
    EXPECT_TRUE(lane.strike_bits == ref.strike_bits)
        << label << ": strike_bits diverged";
}

class CosimLanesCampaign : public ::testing::TestWithParam<nn::Architecture> {};

TEST_P(CosimLanesCampaign, ReportBytesInvariantAcrossThreadsAndTwin) {
    SimdGuard guard;
    const nn::Architecture arch = GetParam();
    const char* name = nn::architecture_name(arch);
    sim::Platform platform(platform_config(arch), untrained_network(arch));
    const data::Dataset test = data::make_datasets(9, 1, 20).test;

    // Reference: single-threaded, so the runner's lane groups run one
    // after another.
    const sim::CampaignReport base =
        sim::run_campaign(platform, test, tiny_config(1));
    EXPECT_TRUE(base.detector_fired);
    EXPECT_FALSE(base.points.empty());
    const std::string bytes = base.to_json().dump();

    EXPECT_EQ(bytes,
              sim::run_campaign(platform, test, tiny_config(8)).to_json().dump())
        << "threads=8 diverged from threads=1 for " << name;

    // Portable scalar twin of every lane kernel (the DS_FORCE_SCALAR=1
    // configuration).
    simd::set_mode(simd::Mode::Scalar);
    EXPECT_EQ(bytes,
              sim::run_campaign(platform, test, tiny_config(8)).to_json().dump())
        << "scalar SIMD twin diverged for " << name;
    simd::set_mode(guard.saved);

    // Ten offsets: each blind bundle spans a full and a partial group,
    // packed by descending start cycle.
    const std::string wide = sim::run_campaign(platform, test, tiny_config(1, 10)).to_json().dump();
    EXPECT_EQ(wide, sim::run_campaign(platform, test, tiny_config(8, 10)).to_json().dump())
        << "a blind bundle spanning two groups diverged for " << name;
}

INSTANTIATE_TEST_SUITE_P(AllZooVictims, CosimLanesCampaign,
                         ::testing::Values(nn::Architecture::LeNet5,
                                           nn::Architecture::MiniCnn,
                                           nn::Architecture::Mlp,
                                           nn::Architecture::Bnn),
                         [](const ::testing::TestParamInfo<nn::Architecture>& info) {
                             return std::string(nn::architecture_name(info.param));
                         });

/// Builds a strike schedule covering [first, last) fabric cycles (clamped
/// to the schedule length).
BitVec strike_window(std::size_t total_cycles, std::size_t first,
                     std::size_t last) {
    BitVec bits(total_cycles);
    for (std::size_t c = first; c < last && c < total_cycles; ++c) {
        bits.set(c, true);
    }
    return bits;
}

TEST(CosimLanesDirect, LaneResultsMatchScalarTickLoopBitwise) {
    SimdGuard guard;
    sim::Platform platform(platform_config(nn::Architecture::MiniCnn),
                           untrained_network(nn::Architecture::MiniCnn));
    const std::size_t total = platform.engine().schedule().total_cycles;
    ASSERT_GT(total, 400u);

    // Five deliberately unaligned schedules: an idle lane (never leaves the
    // fixed point), strikes that force compaction exit + re-entry mid-run,
    // a strike at cycle 0 (no settled state to reuse) and one against the
    // end of the schedule. Groups of 4 put the first four in one full
    // 4-lane slot and leave the fifth as a one-lane group; groups of 1 run
    // every schedule alone in a padded slot.
    std::vector<BitVec> schedules;
    schedules.push_back(BitVec(total)); // idle
    schedules.push_back(strike_window(total, 50, 60));
    schedules.push_back(strike_window(total, total / 2, total / 2 + 200));
    schedules.push_back(strike_window(total, total - 30, total - 10));
    BitVec two_bursts = strike_window(total, 0, 10);
    for (std::size_t c = 300; c < 310; ++c) two_bursts.set(c, true);
    schedules.push_back(std::move(two_bursts));

    std::vector<sim::CosimResult> refs;
    for (const BitVec& bits : schedules) {
        FixedSource src(bits);
        refs.push_back(oracle_cosim(platform, src));
    }

    // `order` lists schedule indices in lane order.
    auto run_lanes = [&](const std::vector<std::size_t>& order, std::size_t width) {
        std::vector<FixedSource> sources;
        sources.reserve(order.size());
        for (std::size_t s : order) sources.emplace_back(schedules[s]);
        std::vector<sim::StrikeSource*> lanes;
        for (FixedSource& src : sources) lanes.push_back(&src);
        return cosim_in_groups(platform, lanes, width, sim::CosimRecord::Sensor);
    };

    // Groups of 8 hold all five in one group with a partial 4-lane slot.
    // The reversed order puts every schedule in another lane position, as
    // the runner's packing does (a lane's result must not depend on it).
    std::vector<std::size_t> forward(schedules.size());
    for (std::size_t i = 0; i < forward.size(); ++i) forward[i] = i;
    const std::vector<std::size_t> reversed(forward.rbegin(), forward.rend());
    for (const simd::Mode mode : {simd::Mode::Auto, simd::Mode::Scalar}) {
        simd::set_mode(mode);
        for (const std::size_t width : {std::size_t{1}, std::size_t{4}, std::size_t{8}}) {
            for (const std::vector<std::size_t>& order : {forward, reversed}) {
                const std::vector<sim::CosimResult> lanes = run_lanes(order, width);
                ASSERT_EQ(lanes.size(), refs.size());
                for (std::size_t k = 0; k < order.size(); ++k) {
                    expect_cosim_identical(
                        lanes[k], refs[order[k]],
                        std::string(simd::mode_name(mode)) + " twin, width " +
                            std::to_string(width) + ", lane " + std::to_string(k) +
                            ", schedule " + std::to_string(order[k]));
                }
            }
        }
    }

    // A single co-sim is a one-lane group.
    FixedSource src(schedules[2]);
    expect_cosim_identical(platform.simulate_inference(src), refs[2], "simulate_inference");
}

// One call co-simulates one lane group: 1 to kCosimLanes non-null sources.
TEST(CosimLanesDirect, OneGroupHoldsOneToEightSources) {
    sim::Platform platform(platform_config(nn::Architecture::Mlp),
                           untrained_network(nn::Architecture::Mlp));
    ASSERT_EQ(sim::kCosimLanes, 8u);
    std::vector<sim::NoAttackSource> sources(sim::kCosimLanes + 1);
    std::vector<sim::StrikeSource*> lanes;
    for (sim::NoAttackSource& s : sources) lanes.push_back(&s);
    const std::span<sim::StrikeSource* const> all(lanes);

    EXPECT_THROW(platform.simulate_inference_lanes(all.first(0)), ContractError);
    EXPECT_THROW(platform.simulate_inference_lanes(all), ContractError);
    const std::vector<sim::CosimResult> full =
        platform.simulate_inference_lanes(all.first(sim::kCosimLanes), sim::CosimRecord::Captures);
    EXPECT_EQ(full.size(), sim::kCosimLanes);
    lanes[3] = nullptr;
    EXPECT_THROW(platform.simulate_inference_lanes(all.first(sim::kCosimLanes)), ContractError);
}

/// One lane's strike source, described so that every co-sim gets a fresh
/// one: a guided controller (auto-rearming or not), a blind replay or a
/// fixed schedule.
struct LaneSpec {
    enum class Kind { Guided, Blind, Fixed };
    Kind kind = Kind::Fixed;
    attack::AttackScheme scheme;     // Guided, Blind
    attack::DetectorConfig detector; // Guided
    std::size_t start_cycle = 0;     // Blind
    BitVec bits;                     // Fixed
};

/// Fresh sources for `specs`, in lane order `order`.
class LaneSources {
public:
    LaneSources(const std::vector<LaneSpec>& specs, const std::vector<std::size_t>& order) {
        for (const std::size_t s : order) {
            const LaneSpec& spec = specs[s];
            attack::AttackController* controller = nullptr;
            switch (spec.kind) {
                case LaneSpec::Kind::Guided:
                    controller = &guided_.emplace_back(spec.detector, spec.scheme);
                    owned_.push_back(std::make_unique<sim::GuidedSource>(*controller));
                    break;
                case LaneSpec::Kind::Blind:
                    blind_.emplace_back(spec.scheme, spec.start_cycle);
                    owned_.push_back(std::make_unique<sim::BlindSource>(blind_.back()));
                    break;
                case LaneSpec::Kind::Fixed:
                    owned_.push_back(std::make_unique<FixedSource>(spec.bits));
                    break;
            }
            lanes.push_back(owned_.back().get());
            controllers.push_back(controller);
        }
    }

    std::vector<sim::StrikeSource*> lanes;
    /// Lane k's guided controller, or null.
    std::vector<const attack::AttackController*> controllers;

private:
    std::deque<attack::AttackController> guided_;
    std::deque<attack::BlindController> blind_;
    std::vector<std::unique_ptr<sim::StrikeSource>> owned_;
};

/// Nine seeded random sources of every kind: three guided controllers,
/// two auto-rearming guided controllers (they listen to the end), two
/// blind replays and two fixed schedules. Nine lanes split into groups of
/// 8 leave a one-lane remainder group.
std::vector<LaneSpec> random_lane_specs(std::size_t total_cycles, std::uint64_t seed) {
    Rng rng(seed);
    const auto pick = [&](std::int64_t lo, std::int64_t hi) {
        return static_cast<std::size_t>(rng.uniform_int(lo, hi));
    };
    const auto scheme = [&] {
        attack::AttackScheme s;
        s.attack_delay_cycles = pick(0, 300);
        s.strike_cycles = pick(1, 6);
        s.gap_cycles = pick(0, 40);
        s.num_strikes = pick(1, 60);
        return s;
    };
    std::vector<LaneSpec> specs;
    for (int i = 0; i < 5; ++i) {
        LaneSpec spec;
        spec.kind = LaneSpec::Kind::Guided;
        spec.scheme = scheme();
        spec.detector.auto_rearm = i >= 3;
        spec.detector.rearm_samples = 32;
        specs.push_back(spec);
    }
    for (int i = 0; i < 2; ++i) {
        LaneSpec spec;
        spec.kind = LaneSpec::Kind::Blind;
        spec.scheme = scheme();
        spec.start_cycle = pick(0, static_cast<std::int64_t>(total_cycles / 2));
        specs.push_back(spec);
    }
    for (int i = 0; i < 2; ++i) {
        LaneSpec spec;
        spec.kind = LaneSpec::Kind::Fixed;
        const std::size_t first = pick(0, static_cast<std::int64_t>(total_cycles - 50));
        spec.bits = strike_window(total_cycles, first, first + pick(1, 50));
        specs.push_back(spec);
    }
    return specs;
}

TEST(CosimLanesDirect, CapturesMatchSensorBitwise) {
    SimdGuard guard;
    sim::Platform platform(platform_config(nn::Architecture::MiniCnn),
                           untrained_network(nn::Architecture::MiniCnn));
    const std::size_t total = platform.engine().schedule().total_cycles;
    const std::vector<LaneSpec> specs = random_lane_specs(total, 77);

    std::vector<std::size_t> forward(specs.size());
    std::iota(forward.begin(), forward.end(), std::size_t{0});
    const std::vector<std::size_t> reversed(forward.rbegin(), forward.rend());

    // Reference: the per-tick oracle, one fresh source each.
    std::vector<sim::CosimResult> refs;
    {
        LaneSources ref_sources(specs, forward);
        for (sim::StrikeSource* source : ref_sources.lanes) {
            refs.push_back(oracle_cosim(platform, *source));
        }
    }
    for (std::size_t s = 0; s < specs.size(); ++s) {
        // Every lane strikes, the guided ones after their detectors fire:
        // the comparison is not vacuous.
        EXPECT_GT(refs[s].strike_cycles, 0u) << "source " << s;
    }

    for (const simd::Mode mode : {simd::Mode::Auto, simd::Mode::Scalar}) {
        simd::set_mode(mode);
        for (const std::size_t width : {std::size_t{1}, std::size_t{4}, std::size_t{8}}) {
            for (const std::vector<std::size_t>& order : {forward, reversed}) {
                LaneSources sensor_sources(specs, order);
                LaneSources capture_sources(specs, order);
                const std::vector<sim::CosimResult> sensor = cosim_in_groups(
                    platform, sensor_sources.lanes, width, sim::CosimRecord::Sensor);
                const std::vector<sim::CosimResult> captures = cosim_in_groups(
                    platform, capture_sources.lanes, width, sim::CosimRecord::Captures);
                ASSERT_EQ(captures.size(), specs.size());
                for (std::size_t k = 0; k < order.size(); ++k) {
                    const std::string label =
                        std::string(simd::mode_name(mode)) + " twin, width " +
                        std::to_string(width) + ", lane " + std::to_string(k) +
                        ", source " + std::to_string(order[k]);
                    expect_cosim_identical(sensor[k], refs[order[k]], label + " (sensor)");
                    const sim::CosimResult& cap = captures[k];
                    EXPECT_TRUE(bits_equal(cap.capture_v, refs[order[k]].capture_v))
                        << label << ": capture_v diverged";
                    EXPECT_TRUE(cap.strike_bits == refs[order[k]].strike_bits)
                        << label << ": strike_bits diverged";
                    EXPECT_EQ(cap.strike_cycles, refs[order[k]].strike_cycles)
                        << label << ": strike_cycles diverged";
                    EXPECT_TRUE(cap.tdc_readouts.empty()) << label;
                }
            }
        }
    }
}

TEST(CosimLanesDirect, CaptureDrawCountsAreWidthAndOrderInvariant) {
    SimdGuard guard;
    const bool metrics_were_on = metrics::enabled();
    sim::Platform platform(platform_config(nn::Architecture::MiniCnn),
                           untrained_network(nn::Architecture::MiniCnn));
    const std::size_t total = platform.engine().schedule().total_cycles;
    const std::size_t samples_per_run = total * platform.config().tdc_sample_ticks.size();
    const std::vector<LaneSpec> specs = random_lane_specs(total, 78);
    std::vector<std::size_t> forward(specs.size());
    std::iota(forward.begin(), forward.end(), std::size_t{0});
    const std::vector<std::size_t> reversed(forward.rbegin(), forward.rend());

    metrics::set_enabled(true);
    // tdc.samples and tdc.memo_hits of one capture-only run, and the draws
    // its sources' listening implies: a guided lane draws up to and
    // including the sample its detector fires on, an auto-rearming one
    // every sample, blind and fixed lanes none.
    struct Draws {
        std::uint64_t samples = 0;
        std::uint64_t memo_hits = 0;
        std::uint64_t listened = 0;
    };
    const auto draws = [&](sim::CosimRecord record, std::size_t width,
                           const std::vector<std::size_t>& order) {
        LaneSources sources(specs, order);
        metrics::reset();
        cosim_in_groups(platform, sources.lanes, width, record);
        Draws d;
        d.samples = metrics::counter("tdc.samples").total();
        d.memo_hits = metrics::counter("tdc.memo_hits").total();
        for (const attack::AttackController* controller : sources.controllers) {
            if (controller == nullptr) continue;
            d.listened += controller->triggered() && !controller->listens()
                              ? controller->trigger_sample() + 1
                              : samples_per_run;
        }
        return d;
    };

    const Draws base = draws(sim::CosimRecord::Captures, 1, forward);
    EXPECT_EQ(base.samples, base.listened);
    EXPECT_GT(base.memo_hits, 0u);
    // Fewer draws than the sensor view, which draws every sample on every lane.
    const Draws sensor = draws(sim::CosimRecord::Sensor, 8, forward);
    EXPECT_EQ(sensor.samples, specs.size() * samples_per_run);
    EXPECT_LT(base.samples, sensor.samples / 2);
    for (const simd::Mode mode : {simd::Mode::Auto, simd::Mode::Scalar}) {
        simd::set_mode(mode);
        for (const std::size_t width : {std::size_t{1}, std::size_t{3}, std::size_t{8}}) {
            for (const std::vector<std::size_t>& order : {forward, reversed}) {
                const Draws d = draws(sim::CosimRecord::Captures, width, order);
                const std::string label = std::string(simd::mode_name(mode)) +
                                          " twin, width " + std::to_string(width) +
                                          (order == forward ? ", forward" : ", reversed");
                EXPECT_EQ(d.samples, base.samples) << label;
                EXPECT_EQ(d.memo_hits, base.memo_hits) << label;
                EXPECT_EQ(d.listened, base.listened) << label;
            }
        }
    }
    metrics::reset();
    metrics::set_enabled(metrics_were_on);
}

} // namespace
} // namespace deepstrike
