// Static execution schedule of one inference.
//
// Layer execution order, cycle counts and per-cycle op issue are fixed by
// the architecture and the (public) layer geometry — they do NOT depend on
// the image content. This data-independence is what makes the TDC side
// channel useful to the attacker (the voltage profile is the same for
// every input) and is also what lets the simulator compute one voltage
// trace per attack configuration and reuse it across the whole test set.
//
// The schedule is generic over quant::QNetwork: each parameterized layer
// becomes one computational segment, separated by DMA/configuration stall
// segments.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "accel/config.hpp"
#include "quant/qnetwork.hpp"

namespace deepstrike::accel {

enum class SegmentKind : std::uint8_t {
    Stall, // DMA / configuration gap between layers
    Conv,  // DSP PE array, DDR timing
    Pool,  // LUT comparator logic, relaxed timing
    Dense, // DSP FC datapath, DDR with more sign-off slack
};

/// True for segments whose arithmetic runs on (fault-prone) DSP slices.
bool segment_uses_dsp(SegmentKind kind);

inline constexpr std::size_t kNoLayer = static_cast<std::size_t>(-1);

struct LayerSegment {
    SegmentKind kind = SegmentKind::Stall;
    std::string label;                 // layer label ("CONV2"); empty for stalls
    std::size_t layer_index = kNoLayer; // index into QNetwork::layers
    std::size_t start_cycle = 0;       // first fabric cycle of the segment
    std::size_t cycles = 0;            // duration in fabric cycles
    std::size_t total_ops = 0;         // MACs (or comparator ops)
    std::size_t ops_per_cycle = 0;

    std::size_t end_cycle() const { return start_cycle + cycles; }
};

struct Schedule {
    std::vector<LayerSegment> segments;
    std::size_t total_cycles = 0;

    /// The segment covering `cycle`, or nullptr past the end.
    const LayerSegment* segment_at(std::size_t cycle) const;

    /// The computational segment for a layer label (throws if absent).
    const LayerSegment& segment_for(const std::string& label) const;

    /// The computational segment of layer `index` (throws if absent).
    const LayerSegment& segment_for_layer(std::size_t index) const;

    std::string to_string(double fabric_clock_hz) const;
};

/// Builds the schedule for an arbitrary quantized network.
Schedule build_schedule(const quant::QNetwork& network, const AccelConfig& config);

/// Convenience: the paper's LeNet-5 schedule (geometry only; weights are
/// irrelevant to scheduling). Labels CONV1/POOL1/CONV2/FC1/FC2.
Schedule build_lenet_schedule(const AccelConfig& config);

/// Per-fabric-cycle current draw of the victim accelerator while executing
/// (data-independent; index = cycle). Includes static but not platform idle.
std::vector<double> activity_current_trace(const Schedule& schedule,
                                           const AccelConfig& config);

} // namespace deepstrike::accel
