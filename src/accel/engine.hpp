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
// path, with stale DSP output registers recovered on demand by direct
// op-stream index arithmetic so duplication faults stay bit-exact. The
// fault RNG is only drawn when an op's capture voltage is below the safe
// threshold, so the gated path consumes the exact same RNG stream as a
// whole-segment per-op walk — byte-identical results, which
// tests/overlay_test.cpp enforces across randomized traces against the
// per-op oracle in tests/engine_reference.cpp.
#pragma once

#include <algorithm>
#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "accel/config.hpp"
#include "accel/dsp.hpp"
#include "accel/overlay.hpp"
#include "accel/schedule.hpp"
#include "quant/qnetwork.hpp"
#include "util/divide.hpp"

namespace deepstrike::accel {

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

    /// Runs one inference, the engine's only inference entry. It answers
    /// as much of the forward pass as possible from the image's golden
    /// pass (quant::QNetwork::forward_trace): `golden_layers` holds one
    /// post-activation tensor per layer, `golden_accs` the pre-writeback
    /// accumulators of every Conv/Dense layer (empty for pools).
    ///   - a layer with no unsafe window is skipped outright while the
    ///     activation entering it is still golden (the RNG is only drawn
    ///     inside windows, so the stream is untouched);
    ///   - a windowed conv/FC layer whose input is still golden runs its
    ///     fault walk on the cached accumulators instead of recomputing
    ///     them;
    ///   - once a layer actually faults, the remaining layers recompute
    ///     their accumulators from the perturbed activation.
    /// `voltage` may be nullptr (nominal, fault-free) or shorter than the
    /// schedule (remaining cycles assume nominal); `plan` must be
    /// plan_overlay(voltage), whose windows and delay factors are all the
    /// walk reads (`voltage` itself only checks the plan's sample count).
    /// `fault_rng` drives fault-model draws; it is
    /// only consumed during under-voltage cycles, so fault-free runs are
    /// rng-independent. `throttle` optionally marks fabric cycles where a
    /// defensive clock throttle is active: DSP ops in those cycles run at
    /// half rate and cannot miss timing at attack-scale droops (see
    /// src/defense). The result is byte-identical to the whole-segment
    /// per-op oracle (tests/engine_reference.cpp), fault-RNG stream
    /// included. Throws ContractError when a Conv/Dense accumulator array
    /// does not hold one entry per output element.
    /// RunResult::golden_layers_reused counts the skipped layers.
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
    // --- interval-gated fast path (engine.cpp) ---
    /// Layer i of run_elided: a conv/FC layer takes its fault-free
    /// accumulators from `golden_accs`, or from one im2col/GEMM pass when
    /// that is null, then run_conv/run_fc.
    QTensor run_layer(std::size_t i, const QTensor& input, const SegmentOverlay& overlay,
                      Rng& rng, const std::vector<bool>* throttle, FaultCounts& counts,
                      const std::vector<fx::Acc>* golden_accs) const;

    /// Faulted execution of a conv layer from `golden_accs`, the layer's
    /// fault-free accumulators on `input` (one per output element, bias
    /// folded): walk_windows patches a copy, then every element writes
    /// back.
    QTensor run_conv(const QTensor& input, const quant::QLayer& layer,
                     const LayerSegment& seg, const SegmentOverlay& overlay, Rng& rng,
                     const std::vector<bool>* throttle, FaultCounts& counts,
                     const std::vector<fx::Acc>& golden_accs) const;
    /// FC counterpart of run_conv.
    QTensor run_fc(const QTensor& input, const quant::QLayer& layer,
                   const LayerSegment& seg, const SegmentOverlay& overlay, Rng& rng,
                   const std::vector<bool>* throttle, FaultCounts& counts,
                   const std::vector<fx::Acc>& golden_accs) const;
    /// Pool layer of run_layer: golden pooling when the overlay has no unsafe
    /// window, else a per-comparator walk of the whole segment that draws
    /// each window capture with its delay factor from the plan.
    QTensor run_pool(const QTensor& input, const quant::QLayer& layer,
                     const LayerSegment& seg, const SegmentOverlay& overlay, Rng& rng,
                     const std::vector<bool>* throttle, FaultCounts& counts) const;

    /// The golden-plus-deltas fault walk shared by run_conv and run_fc.
    /// Visits only the ops inside the overlay's unsafe windows, in
    /// ascending op order; each op under the safe voltage draws the fault
    /// model with its sample's delay factor from the plan, exactly as a
    /// whole-segment per-op walk does (tests/engine_reference.cpp) and,
    /// when it faults, adds the integer delta (faulted contribution minus
    /// `true_product_at(op)`) to its element's entry of `accs`, entry
    /// `per_elem.quotient(op)`. Duplication faults recover the stale DSP
    /// register by op-stream index arithmetic instead of carrying a
    /// pipeline array. The callers check that every op index of the layer
    /// fits 32 bits (ContractError otherwise) and map ops to elements,
    /// inputs and weights by precomputed reciprocals (DivideU32), not by a
    /// division per fault.
    template <typename TrueProduct>
    void walk_windows(const SegmentOverlay& overlay, const LayerSegment& seg,
                      const DivideU32& per_elem, std::size_t n_ops,
                      const std::vector<DspSlice>& dsps, double path_scale,
                      const std::vector<bool>* throttle, Rng& rng,
                      FaultCounts& counts, std::vector<fx::Acc>& accs,
                      const TrueProduct& true_product_at) const;

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
