// Interval-gated fault overlay.
//
// Strikes push the die voltage below a layer's safe threshold only in
// narrow cycle windows, but deciding golden-vs-per-op execution per whole
// segment forces an entire layer through the slow per-op fault path the
// moment a single cycle is glitched. The overlay plan records, once per
// attack configuration, the per-segment list of unsafe [cycle_begin,
// cycle_end) intervals at each layer's safe voltage. The engine then runs
// the golden quantized kernels for op ranges mapped to safe cycles and
// enters the per-op fault path only inside unsafe windows.
//
// Because one co-simulated trace serves every image of a campaign point
// (data-independent power, see sim/platform.hpp), the plan is the natural
// per-point precomputation, shared across all evaluated images instead of
// re-scanning the trace per layer per image. For the same reason the plan
// also carries the delay factor of every capture sample inside a window,
// so the fault walks read only the plan, never the trace or the delay
// model: evaluation (sim::evaluate_accuracy) and AccelEngine::run_block
// take plans, not traces.
//
// One OverlayPlanner builds every plan from capture voltages fed one
// fabric cycle at a time, in cycle order. AccelEngine::plan_overlay feeds
// it from a whole trace; the co-sim tick loop feeds one per lane as it
// captures (sim::CosimRecord::Plan), so a trace fill never holds the
// trace.
#pragma once

#include <cstddef>
#include <vector>

#include "accel/schedule.hpp"
#include "pdn/delay.hpp"

namespace deepstrike::accel {

class AccelEngine;

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
/// Built by an OverlayPlanner; valid only against the engine it planned
/// for.
struct OverlayPlan {
    /// Indexed like quant::QNetwork::layers / Schedule::segment_for_layer.
    std::vector<SegmentOverlay> layers;

    /// True when any layer has an unsafe window. A plan with none cannot
    /// fault (the RNG is only drawn inside windows), so an inference on it
    /// is fully answered by the golden activations — the fault-free
    /// short-circuit in sim::evaluate_accuracy.
    bool any_unsafe() const;
};

/// Builds one OverlayPlan from the DSP capture voltages of one inference,
/// fed one fabric cycle at a time from cycle 0. A cycle in a layer's
/// segment is unsafe when a capture sample its layer gates is below the
/// layer's safe voltage: conv and FC layers gate both DDR samples at the
/// engine's conv/FC safe voltage, pool comparators only the second (they
/// capture once per cycle, at its end) at the pool safe voltage. Unsafe
/// cycles of a layer that follow each other merge into one window, and
/// each window cycle adds its two samples' delay factors to the layer's
/// SegmentOverlay::factors (-1 for a sample its layer does not gate or that
/// is at or above the safe voltage).
class OverlayPlanner {
public:
    /// Plans against `engine`'s schedule, safe voltages and delay model.
    explicit OverlayPlanner(const AccelEngine& engine);

    /// Feeds the next fabric cycle's capture voltages: DDR half 0, then 1.
    void add_cycle(double first, double second) {
        // Most cycles are above every safe voltage and gate nothing.
        if (first >= max_safe_v_ && second >= max_safe_v_) {
            ++cycle_;
            return;
        }
        add_low_cycle(first, second);
    }

    /// The plan of the cycles fed so far (cycles never fed are nominal, so
    /// safe). Counts overlay.plans, overlay.unsafe_windows and
    /// overlay.window_cycles once. Call once.
    OverlayPlan finish();

private:
    /// A layer's segment and what gates it.
    struct Gate {
        std::size_t begin = 0;
        std::size_t end = 0;
        std::size_t layer = 0;
        double safe_v = 0.0;
        bool gates_first = true; // false for pool comparators
    };

    void add_low_cycle(double first, double second);

    pdn::DelayModel delay_;
    std::vector<Gate> gates_; // in cycle order, disjoint
    double max_safe_v_ = 0.0;
    std::size_t cycle_ = 0;
    std::size_t gate_ = 0; // the first gate not ended before cycle_
    OverlayPlan plan_;
};

} // namespace deepstrike::accel
