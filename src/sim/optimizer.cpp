#include "sim/optimizer.hpp"

#include <algorithm>
#include <numeric>

#include "sim/runner.hpp"
#include "util/error.hpp"

namespace deepstrike::sim {

std::size_t OptimizedPlan::total_strikes() const {
    std::size_t n = 0;
    for (const SegmentAllocation& a : allocations) n += a.strikes;
    return n;
}

AccuracyResult evaluate_bits_attack(const Platform& platform,
                                    const data::Dataset& test_set,
                                    std::size_t n_images, const BitVec& scheme_bits,
                                    const attack::DetectorConfig& detector,
                                    std::uint64_t fault_seed) {
    attack::AttackController controller(detector, scheme_bits);
    GuidedSource source(controller);
    const CosimResult cosim = platform.simulate_inference(source, CosimRecord::Plan);
    return evaluate_accuracy(platform, test_set, n_images, {&cosim.plan, 1}, fault_seed);
}

namespace {

/// Merges a per-segment scheme into the combined bit vector (bitwise OR at
/// the shared trigger-relative timebase).
void merge_scheme(BitVec& combined, const attack::AttackScheme& scheme) {
    const BitVec bits = scheme.to_bits();
    if (bits.size() > combined.size()) combined.resize(bits.size());
    for (std::size_t i = 0; i < bits.size(); ++i) {
        if (bits.get(i)) combined.set(i, true);
    }
}

} // namespace

OptimizedPlan optimize_strike_allocation(const Platform& platform,
                                         const data::Dataset& test_set,
                                         const ProfilingRun& profiling,
                                         const OptimizerConfig& config) {
    expects(config.total_budget > 0, "optimizer: positive budget");
    expects(config.pilot_strikes > 0, "optimizer: positive pilot strikes");
    expects(profiling.detector_fired, "optimizer: profiling must have triggered");
    expects(!profiling.profile.segments.empty(), "optimizer: segments required");

    const double spc = platform.config().samples_per_cycle();

    OptimizedPlan plan;
    // Every pilot below evaluates the same image slice against the same
    // weights; one golden store covers the clean baseline and all pilots.
    const std::shared_ptr<const GoldenStore> golden = build_golden_store(
        platform.engine().network(), test_set, config.pilot_images);
    const AccuracyResult clean = evaluate_accuracy(
        platform, test_set, config.pilot_images, {}, config.fault_seed, nullptr, golden.get());
    plan.pilot_clean = clean.accuracy;

    // Pilot: estimate per-strike damage for every segment that can take a
    // strike. One prefetch co-simulates every pilot scheme into its overlay
    // plan.
    std::vector<std::size_t> capacity;
    std::vector<attack::AttackScheme> pilots; // segments with capacity, in order
    for (std::size_t si = 0; si < profiling.profile.segments.size(); ++si) {
        const attack::ProfiledSegment& seg = profiling.profile.segments[si];
        const std::size_t cap = seg.duration_samples() / 4; // gap >= 1
        capacity.push_back(cap);

        SegmentAllocation alloc;
        alloc.segment_index = si;
        plan.allocations.push_back(alloc);
        if (cap == 0) continue;
        pilots.push_back(attack::plan_attack(seg, profiling.trigger_sample, spc,
                                             std::min(config.pilot_strikes, cap)));
    }
    SweepRunner runner(platform);
    runner.prefetch_guided(config.detector, pilots);
    auto pilot = pilots.begin();
    for (SegmentAllocation& alloc : plan.allocations) {
        if (capacity[alloc.segment_index] == 0) continue;
        const auto bundle = runner.guided_bundle(config.detector, *pilot);
        const AccuracyResult res =
            evaluate_accuracy(platform, test_set, config.pilot_images, {&bundle->plan, 1},
                              config.fault_seed, nullptr, golden.get());
        alloc.pilot_drop_per_strike = std::max(0.0, clean.accuracy - res.accuracy) /
                                      static_cast<double>(pilot->num_strikes);
        ++pilot;
    }

    // Proportional allocation with per-segment capacity, then greedy
    // redistribution of leftover budget to the best uncapped segments.
    double total_weight = 0.0;
    for (const auto& a : plan.allocations) total_weight += a.pilot_drop_per_strike;

    std::size_t remaining = config.total_budget;
    if (total_weight > 0.0) {
        for (auto& a : plan.allocations) {
            const double share = a.pilot_drop_per_strike / total_weight;
            a.strikes = std::min<std::size_t>(
                capacity[a.segment_index],
                static_cast<std::size_t>(share * static_cast<double>(config.total_budget)));
            remaining -= std::min(remaining, a.strikes);
        }
        // Spend leftovers on segments by damage rate, capacity permitting.
        std::vector<std::size_t> order(plan.allocations.size());
        std::iota(order.begin(), order.end(), 0);
        std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
            return plan.allocations[a].pilot_drop_per_strike >
                   plan.allocations[b].pilot_drop_per_strike;
        });
        for (std::size_t idx : order) {
            if (remaining == 0) break;
            auto& a = plan.allocations[idx];
            if (a.pilot_drop_per_strike <= 0.0) continue; // evidence first
            const std::size_t room = capacity[a.segment_index] - a.strikes;
            const std::size_t extra = std::min(room, remaining);
            a.strikes += extra;
            remaining -= extra;
        }
    }

    if (remaining > 0) {
        // Segments whose pilot drop was below the measurement floor (or no
        // segment measured at all): fall back on the paper's domain prior —
        // convolution layers first, then FC, never pooling.
        auto prior = [&](std::size_t idx) {
            switch (profiling.profile.segments[idx].guess) {
                case attack::LayerClass::Convolution: return 2;
                case attack::LayerClass::FullyConnected: return 1;
                default: return 0;
            }
        };
        std::vector<std::size_t> order(plan.allocations.size());
        std::iota(order.begin(), order.end(), 0);
        std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
            if (prior(a) != prior(b)) return prior(a) > prior(b);
            return capacity[a] > capacity[b];
        });
        for (std::size_t idx : order) {
            if (remaining == 0) break;
            if (prior(idx) == 0) continue;
            auto& a = plan.allocations[idx];
            const std::size_t room = capacity[a.segment_index] - a.strikes;
            const std::size_t extra = std::min(room, remaining);
            a.strikes += extra;
            remaining -= extra;
        }
    }

    // Compile the combined signal-RAM image.
    for (const auto& a : plan.allocations) {
        if (a.strikes == 0) continue;
        const attack::AttackScheme scheme =
            attack::plan_attack(profiling.profile.segments[a.segment_index],
                                profiling.trigger_sample, spc, a.strikes);
        merge_scheme(plan.scheme_bits, scheme);
    }
    return plan;
}

} // namespace deepstrike::sim
