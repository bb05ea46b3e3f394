// Interval-gated fault overlay.
//
// Strikes push the die voltage below a layer's safe threshold only in
// narrow cycle windows, but deciding golden-vs-per-op execution per whole
// segment forces an entire layer through the slow per-op fault path the
// moment a single cycle is glitched. The overlay plan precomputes, once
// per (VoltageTrace, Schedule) pair, the per-segment list of unsafe
// [cycle_begin, cycle_end) intervals at each layer's safe voltage. The
// engine then runs the golden quantized kernels for op ranges mapped to
// safe cycles and enters the per-op fault path only inside unsafe windows.
//
// Because one co-simulated trace serves every image of a campaign point
// (data-independent power, see sim/platform.hpp), the plan is the natural
// per-point precomputation: compute it next to the trace and share it
// across all evaluated images instead of re-scanning the trace per layer
// per image. For the same reason the plan also carries the delay factor of
// every capture sample inside a window, so the fault walks read only the
// plan, never the trace or the delay model.
#pragma once

#include <cstddef>
#include <vector>

#include "accel/schedule.hpp"

namespace deepstrike::accel {

/// Die voltage at each DSP capture edge during one inference: two samples
/// per fabric cycle (index = cycle * 2 + ddr_half). Produced by the
/// co-simulator. Ops captured on the first DDR edge of a strike cycle see
/// a shallower droop than ops captured at the pulse bottom — this
/// intra-cycle spread is a large part of why the observed fault rates are
/// smooth functions of attack intensity.
using VoltageTrace = std::vector<double>;

/// Half-open interval of absolute fabric cycles with at least one capture
/// sample below the safe voltage.
struct CycleWindow {
    std::size_t begin = 0;
    std::size_t end = 0;
};

/// Unsafe intervals of one schedule segment at its layer's safe voltage.
struct SegmentOverlay {
    std::vector<CycleWindow> unsafe;
    /// The delay factor (pdn::DelayModel::factor) of each capture sample
    /// of the unsafe windows, or -1 where the sample is at or above the
    /// safe voltage and its ops draw nothing. Two entries per window cycle
    /// (DDR halves 0 and 1), windows in order; in a pool segment the first
    /// half is always -1, as comparators capture only at cycle end. The
    /// fault walks read an op's factor here instead of evaluating the
    /// delay model for every image.
    std::vector<double> factors;

    bool any() const { return !unsafe.empty(); }
};

/// Per-layer unsafe-interval index for one (VoltageTrace, Schedule) pair.
/// Built by AccelEngine::plan_overlay; valid only for traces of the
/// recorded sample count against the same engine.
struct OverlayPlan {
    /// Indexed like quant::QNetwork::layers / Schedule::segment_for_layer.
    std::vector<SegmentOverlay> layers;
    /// Sample count of the trace the plan was computed for (0 = nominal).
    std::size_t trace_samples = 0;

    /// True when any layer has an unsafe window. A plan with none cannot
    /// fault (the RNG is only drawn inside windows), so an inference on it
    /// is fully answered by the golden activations — the fault-free
    /// short-circuit in sim::evaluate_accuracy_multi.
    bool any_unsafe() const;

    /// Index of the first layer with an unsafe window; layers.size() when
    /// every layer is safe. Layers before it are fault-free by
    /// construction, so the engine can start from a cached golden
    /// activation instead of recomputing the prefix.
    std::size_t first_unsafe_layer() const;
};

/// Scans `voltage` across `seg` and returns the merged unsafe windows at
/// threshold `safe_v`. `half_mask` selects which DDR capture samples gate
/// a cycle (bit 0 = first half, bit 1 = second half); DSP datapaths
/// capture on both edges, the pool comparator only at cycle end. Samples
/// beyond the end of the trace count as nominal (safe), mirroring the
/// engine's capture_voltage fallback.
std::vector<CycleWindow> unsafe_windows(const LayerSegment& seg,
                                        const VoltageTrace* voltage, double safe_v,
                                        unsigned half_mask = 3u);

} // namespace deepstrike::accel
