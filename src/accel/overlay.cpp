#include "accel/overlay.hpp"

#include <algorithm>

#include "accel/engine.hpp"
#include "util/error.hpp"
#include "util/metrics.hpp"

namespace deepstrike::accel {

bool OverlayPlan::any_unsafe() const {
    for (const SegmentOverlay& layer : layers) {
        if (layer.any()) return true;
    }
    return false;
}

std::size_t OverlayPlan::first_unsafe_layer() const {
    for (std::size_t i = 0; i < layers.size(); ++i) {
        if (layers[i].any()) return i;
    }
    return layers.size();
}

OverlayPlanner::OverlayPlanner(const AccelEngine& engine) : delay_(engine.delay_model()) {
    const quant::QNetwork& network = engine.network();
    plan_.layers.resize(network.layers.size());
    gates_.reserve(network.layers.size());
    for (std::size_t i = 0; i < network.layers.size(); ++i) {
        const LayerSegment& seg = engine.schedule().segment_for_layer(i);
        Gate gate{seg.start_cycle, seg.end_cycle(), i, 0.0, true};
        switch (network.layers[i].kind) {
            case quant::QLayerKind::Conv: gate.safe_v = engine.conv_safe_voltage(); break;
            case quant::QLayerKind::Pool2:
            case quant::QLayerKind::AvgPool2:
                // Pool comparators are registered on the fabric clock: one
                // capture per cycle, at the second DDR sample (cycle end).
                gate.safe_v = engine.pool_safe_voltage();
                gate.gates_first = false;
                break;
            case quant::QLayerKind::Dense: gate.safe_v = engine.fc_safe_voltage(); break;
        }
        max_safe_v_ = std::max(max_safe_v_, gate.safe_v);
        gates_.push_back(gate);
    }
    std::sort(gates_.begin(), gates_.end(),
              [](const Gate& a, const Gate& b) { return a.begin < b.begin; });
    for (std::size_t g = 1; g < gates_.size(); ++g) {
        expects(gates_[g - 1].end <= gates_[g].begin,
                "OverlayPlanner: layer segments must not overlap");
    }
}

void OverlayPlanner::add_low_cycle(double first, double second) {
    const std::size_t cycle = cycle_++;
    while (gate_ < gates_.size() && gates_[gate_].end <= cycle) ++gate_;
    if (gate_ == gates_.size() || cycle < gates_[gate_].begin) return;
    const Gate& gate = gates_[gate_];
    const bool first_low = gate.gates_first && first < gate.safe_v;
    const bool second_low = second < gate.safe_v;
    if (!first_low && !second_low) return;
    SegmentOverlay& overlay = plan_.layers[gate.layer];
    if (!overlay.unsafe.empty() && overlay.unsafe.back().end == cycle) {
        ++overlay.unsafe.back().end;
    } else {
        overlay.unsafe.push_back({cycle, cycle + 1});
    }
    overlay.factors.push_back(first_low ? delay_.factor(first) : -1.0);
    overlay.factors.push_back(second_low ? delay_.factor(second) : -1.0);
}

OverlayPlan OverlayPlanner::finish() {
    if (metrics::enabled()) {
        std::uint64_t windows = 0;
        std::uint64_t window_cycles = 0;
        for (const SegmentOverlay& overlay : plan_.layers) {
            for (const CycleWindow& w : overlay.unsafe) {
                ++windows;
                window_cycles += w.end - w.begin;
            }
        }
        metrics::counter("overlay.plans", "plans",
                         "per-(trace,schedule) unsafe-window plans built")
            .add();
        metrics::counter("overlay.unsafe_windows", "windows",
                         "merged unsafe cycle windows across all plans")
            .add(windows);
        metrics::counter("overlay.window_cycles", "cycles",
                         "fabric cycles covered by unsafe windows")
            .add(window_cycles);
    }
    return std::move(plan_);
}

} // namespace deepstrike::accel
