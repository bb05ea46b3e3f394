// Cycle-level functional model of the DNN accelerator with fault
// injection, generic over quant::QNetwork.
//
// Execution follows the static Schedule: every MAC is assigned to a
// (cycle, DSP, DDR half-cycle) slot in a deterministic op stream. When the
// supplied voltage trace dips low enough that a DSP slice *could* miss
// timing, each in-flight op is evaluated against the slice's fault model:
//   duplication fault -> the op contributes the previous product captured
//                        on the same physical DSP (its own product is lost)
//   random fault      -> the op contributes garbage from the product register
// Cycles at safe voltage take a fast path that is bit-exact with the
// QNetwork golden model (a property the tests enforce).
//
// Execution starts from the image's golden pass (quant::QNetwork::
// forward_trace, kept per image in a sim::GoldenStore) and is
// interval-gated (see accel/overlay.hpp): layers without an unsafe window
// reuse their golden activation while their input is still golden, op
// ranges mapped to safe cycles keep their golden accumulators, and only
// ops inside unsafe [cycle_begin, cycle_end) windows take the per-op fault
// path. The fault RNG is only drawn when an op's capture voltage is below
// the safe threshold, so the gated path consumes the exact same RNG stream
// as a whole-segment per-op walk.
//
// The fault walk is split in two. Whether an op faults, and what a random
// fault puts in its place, depends only on the overlay plan, the throttle
// mask and the image's fault stream, never on the image's data. So the
// *draw* runs first and records each image's fault events (op, kind,
// payload; for pools, the faulted window and its winner) for a block of
// up to kWalkLanes images that share a trace, with their xoshiro streams
// stepped in lock-step in SoA lanes. Then each image *applies* its own
// events layer by layer: duplication and random deltas on its golden or
// recomputed accumulators (a duplication's stale DSP register is recovered
// by op-stream index arithmetic), pool winners, per-layer fault counts.
// Every result, fault-RNG stream included, is byte-identical to the
// whole-segment per-op oracle in tests/engine_reference.cpp run on each
// image alone (tests/overlay_test.cpp, tests/golden_cache_test.cpp).
#pragma once

#include <algorithm>
#include <cstdint>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "accel/config.hpp"
#include "accel/dsp.hpp"
#include "accel/overlay.hpp"
#include "accel/schedule.hpp"
#include "quant/qnetwork.hpp"

namespace deepstrike::accel {

/// Images one fault walk draws in lock-step (AccelEngine::run_block).
inline constexpr std::size_t kWalkLanes = 8;

/// One image's golden pass, as AccelEngine::run_block reads it:
/// `layers` holds one post-activation tensor per layer, `accs` the
/// pre-writeback accumulators of every Conv/Dense layer (empty for pools).
struct GoldenPass {
    const QTensor* image = nullptr;
    const std::vector<QTensor>* layers = nullptr;
    const std::vector<std::vector<fx::Acc>>* accs = nullptr;
};

struct FaultCounts {
    std::size_t duplication = 0;
    std::size_t random = 0;

    std::size_t total() const { return duplication + random; }
    FaultCounts& operator+=(const FaultCounts& other) {
        duplication += other.duplication;
        random += other.random;
        return *this;
    }
};

struct RunResult {
    QTensor logits;
    std::size_t predicted = 0;
    FaultCounts faults_total;

    struct LayerFaults {
        std::string label;
        FaultCounts counts;
    };
    /// One entry per network layer, in execution order.
    std::vector<LayerFaults> faults_by_layer;

    /// Layers whose compute was answered entirely by a cached golden
    /// activation (diagnostics, never serialized into reports).
    std::size_t golden_layers_reused = 0;

    /// Label -> index into faults_by_layer, built once by the engine so
    /// per-label queries don't re-scan the layer list.
    std::unordered_map<std::string, std::size_t> layer_index;

    /// Faults attributed to the layer with the given label (zero counts if
    /// the label is unknown). Uses the prebuilt index; hand-assembled
    /// results without one fall back to a linear scan.
    FaultCounts faults_for(const std::string& label) const;
};

class AccelEngine {
public:
    /// `variation_seed` fixes the per-slice process variation (one physical
    /// chip); all engines built from the same seed model the same board.
    AccelEngine(quant::QNetwork network, const AccelConfig& config,
                std::uint64_t variation_seed);

    const Schedule& schedule() const { return schedule_; }
    const AccelConfig& config() const { return config_; }
    const quant::QNetwork& network() const { return network_; }
    const pdn::DelayModel& delay_model() const { return delay_; }

    /// Highest voltage at which any conv/FC DSP op could fault; the
    /// dominant fast-path gate.
    double dsp_safe_voltage() const { return std::max(conv_safe_v_, fc_safe_v_); }
    double conv_safe_voltage() const { return conv_safe_v_; }
    double fc_safe_voltage() const { return fc_safe_v_; }
    double pool_safe_voltage() const { return pool_safe_v_; }

    /// Precomputes the per-layer unsafe-interval overlay for `voltage`
    /// (nullptr = nominal: every layer safe), with the delay factor of
    /// every capture sample inside a window. The plan depends only on the
    /// (trace, schedule, safe voltages, delay model) tuple — one plan
    /// serves every image evaluated on the trace, and it is the only
    /// engine step that reads the trace.
    OverlayPlan plan_overlay(const VoltageTrace* voltage) const;

    /// Runs one inference per image of `images` (1 to kWalkLanes) on one
    /// trace, image j on fault stream fault_rngs[j]. It answers as much of
    /// each forward pass as possible from the image's golden pass:
    ///   - a layer with no unsafe window is skipped outright while the
    ///     activation entering it is still golden (the RNG is only drawn
    ///     inside windows, so the stream is untouched);
    ///   - a windowed conv/FC layer whose input is still golden applies its
    ///     fault events to the cached accumulators instead of recomputing
    ///     them, and one that drew no fault keeps its golden activation;
    ///   - once a layer actually faults, the remaining layers recompute
    ///     their accumulators from the perturbed activation.
    /// The fault events come from one draw for the whole block (see the
    /// file comment): the streams step in lock-step, every op step draws
    /// one deviate per lane (three under TMR), and only lanes that table
    /// bounds do not settle as fault-free leave the vector path (AVX2
    /// twin behind simd::active(), portable twin otherwise; a block of one
    /// runs the portable single-lane form). So every stream must hold the
    /// same number of pending Box–Muller deviates (ContractError
    /// otherwise), as fresh streams do. Each result and each stream's end
    /// state equal those of the whole-segment per-op oracle run on the
    /// image alone (tests/engine_reference.cpp), at either twin.
    /// `voltage` may be nullptr (nominal, fault-free) or shorter than the
    /// schedule (remaining cycles assume nominal); `plan` must be
    /// plan_overlay(voltage), whose windows and delay factors are all the
    /// walk reads (`voltage` itself only checks the plan's sample count).
    /// `throttle` optionally marks fabric cycles where a defensive clock
    /// throttle is active: DSP ops in those cycles run at half rate and
    /// cannot miss timing at attack-scale droops (see src/defense). Throws
    /// ContractError when a Conv/Dense accumulator array does not hold one
    /// entry per output element. RunResult::golden_layers_reused counts
    /// the skipped layers.
    std::vector<RunResult> run_block(std::span<const GoldenPass> images,
                                     const VoltageTrace* voltage,
                                     std::span<Rng> fault_rngs, const OverlayPlan& plan,
                                     const std::vector<bool>* throttle = nullptr) const;

    /// run_block on a block of one image (the tests' and benches' single
    /// inference). `fault_rng` ends stream_equal to the per-op oracle's.
    RunResult run_elided(const QTensor& image,
                         const std::vector<QTensor>& golden_layers,
                         const std::vector<std::vector<fx::Acc>>& golden_accs,
                         const VoltageTrace* voltage, Rng& fault_rng,
                         const OverlayPlan& plan,
                         const std::vector<bool>* throttle = nullptr) const;

    const std::vector<DspSlice>& conv_dsps() const { return conv_dsps_; }
    const std::vector<DspSlice>& fc_dsps() const { return fc_dsps_; }
    /// The pool comparators' relaxed-timing path (one shared model).
    const DspSlice& pool_logic() const { return pool_logic_; }

private:
    quant::QNetwork network_;
    AccelConfig config_;
    Schedule schedule_;
    pdn::DelayModel delay_;
    std::vector<DspSlice> conv_dsps_;
    std::vector<DspSlice> fc_dsps_;
    DspSlice pool_logic_; // relaxed-timing comparator path (shared model)
    double conv_safe_v_;
    double fc_safe_v_;
    double pool_safe_v_;
};

} // namespace deepstrike::accel
