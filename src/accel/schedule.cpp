#include "accel/schedule.hpp"

#include <algorithm>
#include <sstream>

#include "util/error.hpp"

namespace deepstrike::accel {

bool segment_uses_dsp(SegmentKind kind) {
    return kind == SegmentKind::Conv || kind == SegmentKind::Dense;
}

const LayerSegment* Schedule::segment_at(std::size_t cycle) const {
    for (const LayerSegment& s : segments) {
        if (cycle >= s.start_cycle && cycle < s.end_cycle()) return &s;
    }
    return nullptr;
}

const LayerSegment& Schedule::segment_for(const std::string& label) const {
    for (const LayerSegment& s : segments) {
        if (s.kind != SegmentKind::Stall && s.label == label) return s;
    }
    throw ContractError("Schedule::segment_for: no segment labelled '" + label + "'");
}

const LayerSegment& Schedule::segment_for_layer(std::size_t index) const {
    for (const LayerSegment& s : segments) {
        if (s.layer_index == index) return s;
    }
    throw ContractError("Schedule::segment_for_layer: no such layer");
}

std::string Schedule::to_string(double fabric_clock_hz) const {
    std::ostringstream os;
    os << "schedule (" << total_cycles << " cycles, "
       << 1e6 * static_cast<double>(total_cycles) / fabric_clock_hz << " us):\n";
    for (const LayerSegment& s : segments) {
        os << "  " << (s.kind == SegmentKind::Stall ? "stall" : s.label.c_str())
           << ": cycles [" << s.start_cycle << ", " << s.end_cycle()
           << ") ops=" << s.total_ops << " ops/cycle=" << s.ops_per_cycle << '\n';
    }
    return os.str();
}

namespace {

LayerSegment make_stall(std::size_t& cursor, std::size_t cycles) {
    LayerSegment s;
    s.kind = SegmentKind::Stall;
    s.start_cycle = cursor;
    s.cycles = cycles;
    cursor += cycles;
    return s;
}

SegmentKind kind_of(quant::QLayerKind kind) {
    switch (kind) {
        case quant::QLayerKind::Conv: return SegmentKind::Conv;
        case quant::QLayerKind::Pool2:
        case quant::QLayerKind::AvgPool2:
            return SegmentKind::Pool;
        case quant::QLayerKind::Dense: return SegmentKind::Dense;
    }
    return SegmentKind::Stall;
}

} // namespace

Schedule build_schedule(const quant::QNetwork& network, const AccelConfig& config) {
    const std::vector<Shape> shapes = network.layer_output_shapes();

    Schedule sched;
    std::size_t cursor = 0;
    Shape in_shape = network.input_shape;
    for (std::size_t i = 0; i < network.layers.size(); ++i) {
        const quant::QLayer& layer = network.layers[i];
        sched.segments.push_back(make_stall(cursor, config.inter_layer_stall_cycles));

        // Dense layers consume the flattened activation.
        Shape effective_in = in_shape;
        if (layer.kind == quant::QLayerKind::Dense && effective_in.rank() != 1) {
            effective_in = Shape{effective_in.elements()};
        }

        LayerSegment seg;
        seg.kind = kind_of(layer.kind);
        seg.label = layer.label;
        seg.layer_index = i;
        seg.start_cycle = cursor;
        seg.total_ops = layer.op_count(effective_in);
        seg.ops_per_cycle = config.ops_per_cycle(layer);
        seg.cycles = (seg.total_ops + seg.ops_per_cycle - 1) / seg.ops_per_cycle;
        cursor += seg.cycles;
        sched.segments.push_back(std::move(seg));

        in_shape = shapes[i];
    }
    sched.segments.push_back(make_stall(
        cursor, config.result_fetch_latency_cycles + config.inter_layer_stall_cycles));
    sched.total_cycles = cursor;
    return sched;
}

Schedule build_lenet_schedule(const AccelConfig& config) {
    // Geometry-only LeNet-5 (zero weights): scheduling depends on shapes,
    // not values.
    using quant::Activation;
    using quant::QLayerKind;
    quant::QNetwork net;
    net.input_shape = Shape{1, 28, 28};
    net.layers = {
        {QLayerKind::Conv, "CONV1", QTensor(Shape{6, 1, 5, 5}), QTensor(Shape{6}),
         Activation::Tanh},
        {QLayerKind::Pool2, "POOL1", {}, {}, Activation::None},
        {QLayerKind::Conv, "CONV2", QTensor(Shape{16, 6, 5, 5}), QTensor(Shape{16}),
         Activation::Tanh},
        {QLayerKind::Dense, "FC1", QTensor(Shape{120, 1024}), QTensor(Shape{120}),
         Activation::Tanh},
        {QLayerKind::Dense, "FC2", QTensor(Shape{10, 120}), QTensor(Shape{10}),
         Activation::None},
    };
    return build_schedule(net, config);
}

std::vector<double> activity_current_trace(const Schedule& schedule,
                                           const AccelConfig& config) {
    std::vector<double> trace(schedule.total_cycles, config.i_accel_static_a);
    for (const LayerSegment& s : schedule.segments) {
        for (std::size_t cycle = s.start_cycle; cycle < s.end_cycle(); ++cycle) {
            double i = 0.0;
            switch (s.kind) {
                case SegmentKind::Conv:
                    // The whole PE array is clocked during conv layers even
                    // when issue slots are underutilized (single-channel
                    // conv1), so the power signature is array-level.
                    i = config.i_mac_unit_a *
                        static_cast<double>(config.macs_per_cycle_conv());
                    break;
                case SegmentKind::Dense: {
                    const std::size_t done = (cycle - s.start_cycle) * s.ops_per_cycle;
                    const std::size_t issued =
                        std::min(s.ops_per_cycle, s.total_ops - done);
                    i = config.i_mac_unit_a * static_cast<double>(issued) +
                        config.i_fc_stream_a;
                    break;
                }
                case SegmentKind::Pool: {
                    const std::size_t done = (cycle - s.start_cycle) * s.ops_per_cycle;
                    const std::size_t issued =
                        std::min(s.ops_per_cycle, s.total_ops - done);
                    i = config.i_pool_unit_a * static_cast<double>(issued);
                    break;
                }
                case SegmentKind::Stall:
                    break;
            }
            // Pipeline fill/drain ramp at segment edges: avoids exciting
            // the PDN resonance with a hard current step (which only the
            // striker does, on purpose).
            const std::size_t ramp = config.activity_ramp_cycles;
            if (ramp > 0 && s.kind != SegmentKind::Stall) {
                const std::size_t into = cycle - s.start_cycle;
                const std::size_t left = s.end_cycle() - cycle; // >= 1
                double scale = 1.0;
                if (into < ramp) {
                    scale = static_cast<double>(into + 1) / static_cast<double>(ramp);
                }
                if (left < ramp) {
                    scale = std::min(
                        scale, static_cast<double>(left) / static_cast<double>(ramp));
                }
                i *= scale;
            }
            trace[cycle] += i;
        }
    }
    return trace;
}

} // namespace deepstrike::accel
