#include "accel/engine.hpp"

#include <algorithm>
#include <limits>
#include <utility>

#include "quant/gemm.hpp"
#include "util/error.hpp"
#include "util/metrics.hpp"

namespace deepstrike::accel {

using fx::Q3_4;

FaultCounts RunResult::faults_for(const std::string& label) const {
    if (!layer_index.empty()) {
        const auto it = layer_index.find(label);
        if (it == layer_index.end()) return {};
        return faults_by_layer[it->second].counts;
    }
    for (const LayerFaults& lf : faults_by_layer) {
        if (lf.label == label) return lf.counts;
    }
    return {};
}

namespace {

DspSlice make_pool_slice(const AccelConfig& config, std::uint64_t variation_seed) {
    // The pool comparator path gets its own variation stream so the DSP
    // draws below stay stable if the pool model changes.
    Rng pool_rng(variation_seed ^ 0x706f6f6cULL);
    return DspSlice(0xFFFF, config.logic_timing, pool_rng);
}

/// One registry visit per inference (never per op): golden-vs-faulted op
/// accounting derives from the static schedule and the overlay plan, so
/// totals are identical at any thread count. `ops_executed` charges only
/// the layers actually computed (run_elided skips still-golden ones).
void count_inference(const Schedule& schedule, const OverlayPlan& plan,
                     std::uint64_t ops_executed, const FaultCounts& faults) {
    if (!metrics::enabled()) return;
    std::uint64_t ops_unsafe = 0;
    for (std::size_t i = 0; i < plan.layers.size(); ++i) {
        const LayerSegment& seg = schedule.segment_for_layer(i);
        for (const CycleWindow& w : plan.layers[i].unsafe) {
            const std::size_t b = w.begin - seg.start_cycle;
            const std::size_t e = w.end - seg.start_cycle;
            ops_unsafe += std::min(e * seg.ops_per_cycle, seg.total_ops) -
                          std::min(b * seg.ops_per_cycle, seg.total_ops);
        }
    }
    metrics::counter("accel.inferences", "inferences",
                     "accelerator inference runs (faulted + clean)")
        .add();
    metrics::counter("accel.ops_total", "ops", "scheduled MAC/comparator ops executed")
        .add(ops_executed);
    metrics::counter("accel.ops_unsafe", "ops",
                     "ops inside unsafe voltage windows (per-op fault path)")
        .add(ops_unsafe);
    metrics::counter("accel.faults_duplication", "faults",
                     "DSP duplication faults injected")
        .add(faults.duplication);
    metrics::counter("accel.faults_random", "faults", "DSP random faults injected")
        .add(faults.random);
}

void record_layer(RunResult& result, const std::string& label,
                  const FaultCounts& counts) {
    result.faults_total += counts;
    result.layer_index.emplace(label, result.faults_by_layer.size());
    result.faults_by_layer.push_back({label, counts});
}

bool throttled(const std::vector<bool>* throttle, std::size_t cycle) {
    return throttle != nullptr && cycle < throttle->size() && (*throttle)[cycle];
}

/// Evaluates one op from its precomputed delay factor, optionally with
/// triple-modular-redundancy voting: under TMR an op only faults when at
/// least two of three independent evaluations fault, and the surviving
/// fault kind is the majority kind. All three evaluations see the same
/// capture voltage, hence the same factor.
FaultKind evaluate_op_with_factor(const DspSlice& slice, double factor, Rng& rng,
                                  double path_scale, bool tmr) {
    if (!tmr) return slice.evaluate_with_factor(factor, rng, path_scale);
    int dup = 0;
    int rnd = 0;
    for (int r = 0; r < 3; ++r) {
        switch (slice.evaluate_with_factor(factor, rng, path_scale)) {
            case FaultKind::Duplication: ++dup; break;
            case FaultKind::Random: ++rnd; break;
            case FaultKind::None: break;
        }
    }
    if (dup + rnd < 2) return FaultKind::None;
    return dup >= rnd ? FaultKind::Duplication : FaultKind::Random;
}

/// SegmentOverlay::factors of a segment: the delay factor of each capture
/// sample of `windows` in `voltage`, -1 where the sample is at or above
/// `safe_v` or its DDR half is not in `half_mask` (as in unsafe_windows).
/// Samples past the trace's end are nominal, as in unsafe_windows.
std::vector<double> window_factors(const std::vector<CycleWindow>& windows,
                                   const VoltageTrace& voltage, double safe_v,
                                   const pdn::DelayModel& delay,
                                   unsigned half_mask = 3u) {
    std::size_t samples = 0;
    for (const CycleWindow& w : windows) samples += 2 * (w.end - w.begin);
    std::vector<double> factors;
    factors.reserve(samples);
    for (const CycleWindow& w : windows) {
        for (std::size_t idx = w.begin * 2; idx < w.end * 2; ++idx) {
            const double v = idx < voltage.size() ? voltage[idx] : delay.vdd;
            const bool captures = (half_mask & (1u << (idx & 1))) != 0;
            factors.push_back(captures && v < safe_v ? delay.factor(v) : -1.0);
        }
    }
    return factors;
}

} // namespace

AccelEngine::AccelEngine(quant::QNetwork network, const AccelConfig& config,
                         std::uint64_t variation_seed)
    : network_(std::move(network)),
      config_(config),
      schedule_(build_schedule(network_, config)),
      pool_logic_(make_pool_slice(config, variation_seed)) {
    Rng variation_rng(variation_seed);
    conv_dsps_.reserve(config.conv_dsp_count);
    for (std::size_t i = 0; i < config.conv_dsp_count; ++i) {
        conv_dsps_.emplace_back(static_cast<std::uint32_t>(i), config.dsp_timing,
                                variation_rng);
    }
    fc_dsps_.reserve(config.fc_dsp_count);
    for (std::size_t i = 0; i < config.fc_dsp_count; ++i) {
        fc_dsps_.emplace_back(static_cast<std::uint32_t>(1000 + i), config.fc_timing,
                              variation_rng);
    }

    conv_safe_v_ = 0.0;
    for (const DspSlice& d : conv_dsps_) {
        conv_safe_v_ = std::max(conv_safe_v_, d.safe_voltage(delay_));
    }
    fc_safe_v_ = 0.0;
    for (const DspSlice& d : fc_dsps_) {
        fc_safe_v_ = std::max(fc_safe_v_, d.safe_voltage(delay_));
    }
    pool_safe_v_ = pool_logic_.safe_voltage(delay_);
}

OverlayPlan AccelEngine::plan_overlay(const VoltageTrace* voltage) const {
    OverlayPlan plan;
    plan.trace_samples = voltage == nullptr ? 0 : voltage->size();
    plan.layers.resize(network_.layers.size());
    if (voltage == nullptr) return plan;
    for (std::size_t i = 0; i < network_.layers.size(); ++i) {
        const LayerSegment& seg = schedule_.segment_for_layer(i);
        SegmentOverlay& overlay = plan.layers[i];
        switch (network_.layers[i].kind) {
            case quant::QLayerKind::Conv:
                overlay.unsafe = unsafe_windows(seg, voltage, conv_safe_v_);
                overlay.factors =
                    window_factors(overlay.unsafe, *voltage, conv_safe_v_, delay_);
                break;
            case quant::QLayerKind::Pool2:
            case quant::QLayerKind::AvgPool2:
                // Pool comparators are registered on the fabric clock: one
                // capture per cycle, at the second DDR sample (cycle end).
                overlay.unsafe =
                    unsafe_windows(seg, voltage, pool_safe_v_, /*half_mask=*/2u);
                overlay.factors = window_factors(overlay.unsafe, *voltage, pool_safe_v_,
                                                 delay_, /*half_mask=*/2u);
                break;
            case quant::QLayerKind::Dense:
                overlay.unsafe = unsafe_windows(seg, voltage, fc_safe_v_);
                overlay.factors =
                    window_factors(overlay.unsafe, *voltage, fc_safe_v_, delay_);
                break;
        }
    }
    if (metrics::enabled()) {
        std::uint64_t windows = 0;
        std::uint64_t window_cycles = 0;
        for (const SegmentOverlay& overlay : plan.layers) {
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
    return plan;
}

// Golden-plus-deltas evaluation. The fault model's RNG consumption is
// image-independent: an op draws exactly when its DDR-half sample is under
// the safe voltage and its cycle is unthrottled, and none of that depends
// on the image data. So instead of threading every op through a gated
// loop, start from the layer's fault-free accumulators, walk only the
// unsafe-window ops in ascending op order — drawing the RNG exactly as the
// sequential per-op path would — and patch the owning element's
// accumulator with the integer delta. Integer sums are exact under
// reassociation, so the result is byte-identical to the reference per-op
// evaluation. The walk reads each op's delay factor from the plan
// (SegmentOverlay::factors, -1 = safe sample) and never the trace.
template <typename TrueProduct>
void AccelEngine::walk_windows(const SegmentOverlay& overlay, const LayerSegment& seg,
                               const DivideU32& per_elem, std::size_t n_ops,
                               const std::vector<DspSlice>& dsps, double path_scale,
                               const std::vector<bool>* throttle, Rng& rng,
                               FaultCounts& counts, std::vector<fx::Acc>& accs,
                               const TrueProduct& true_product_at) const {
    const std::size_t mpc = seg.ops_per_cycle;
    const bool tmr = config_.tmr_protection;

    // A duplication fault captures the last product issued on the same DSP
    // slice. Slice d owns positions 2d / 2d+1 of every cycle, so that
    // predecessor's op index is pure arithmetic: the pair partner earlier in
    // the same cycle (odd positions), or the slice's last position in the
    // previous cycle (even positions). A per-op walk records the true
    // product of every op unconditionally, so the predecessor's *true*
    // product is exactly what the stale output register holds; no pipeline
    // array needs to be carried or seeded. First-cycle slices with no
    // predecessor hold the reset value 0.
    const auto stale_product_at = [&](std::size_t g, std::size_t pos) -> fx::Acc {
        if (pos & 1) return true_product_at(g - 1);
        if (g < mpc) return 0;
        const std::size_t last_pos = pos + 1 < mpc ? pos + 1 : pos;
        return true_product_at(g - pos + last_pos - mpc);
    };

    const double* fac = overlay.factors.data();
    for (const CycleWindow& win : overlay.unsafe) {
        for (std::size_t cycle = win.begin; cycle < win.end; ++cycle, fac += 2) {
            if (throttled(throttle, cycle)) continue;
            const std::size_t base = (cycle - seg.start_cycle) * mpc;
            const std::size_t end = std::min(base + mpc, n_ops);
            for (std::size_t g = base; g < end; ++g) {
                const std::size_t pos = g - base;
                const double factor = fac[pos & 1];
                if (factor < 0.0) continue;
                switch (evaluate_op_with_factor(dsps[pos >> 1], factor, rng, path_scale,
                                                tmr)) {
                    case FaultKind::None:
                        break;
                    case FaultKind::Duplication:
                        accs[per_elem.quotient(static_cast<std::uint32_t>(g))] +=
                            stale_product_at(g, pos) - true_product_at(g);
                        ++counts.duplication;
                        break;
                    case FaultKind::Random:
                        accs[per_elem.quotient(static_cast<std::uint32_t>(g))] +=
                            DspSlice::random_fault_value(rng) - true_product_at(g);
                        ++counts.random;
                        break;
                }
            }
        }
    }
}

QTensor AccelEngine::run_conv(const QTensor& input, const quant::QLayer& layer,
                              const LayerSegment& seg, const SegmentOverlay& overlay,
                              Rng& rng, const std::vector<bool>* throttle,
                              FaultCounts& counts,
                              const std::vector<fx::Acc>& golden_accs) const {
    const QTensor& w = layer.weight;
    const std::size_t in_c = input.shape().dim(0);
    const std::size_t in_h = input.shape().dim(1);
    const std::size_t in_w = input.shape().dim(2);
    const std::size_t out_c = w.shape().dim(0);
    const std::size_t k = w.shape().dim(2);
    const std::size_t kk = k * k;
    const std::size_t out_h = in_h - k + 1;
    const std::size_t out_w = in_w - k + 1;
    const std::size_t plane = out_h * out_w;
    const std::size_t opp = in_c * kk; // ops per output element
    const std::size_t n_elems = out_c * plane;
    QTensor out(Shape{out_c, out_h, out_w});
    if (!overlay.any()) {
        quant::gemm::write_back(golden_accs.data(), n_elems, layer.activation, out);
        return out;
    }

    // Op g = pixel * opp + tap, with pixel = oc * plane + r * out_w + c and
    // tap = (ic * k + kr) * k + kc, multiplies input element
    // (ic * in_h + r + kr) * in_w + c + kc, which splits into a per-pixel
    // offset r * in_w + c plus a per-tap offset (ic * in_h + kr) * in_w +
    // kc, by weight element oc * opp + tap.
    thread_local std::vector<std::size_t> pixel_offset;
    thread_local std::vector<std::size_t> tap_offset;
    pixel_offset.resize(plane);
    for (std::size_t r = 0; r < out_h; ++r) {
        for (std::size_t c = 0; c < out_w; ++c) pixel_offset[r * out_w + c] = r * in_w + c;
    }
    tap_offset.resize(opp);
    for (std::size_t ic = 0; ic < in_c; ++ic) {
        for (std::size_t kr = 0; kr < k; ++kr) {
            for (std::size_t kc = 0; kc < k; ++kc) {
                tap_offset[(ic * k + kr) * k + kc] = (ic * in_h + kr) * in_w + kc;
            }
        }
    }
    const Q3_4* in_data = input.data();
    const Q3_4* w_data = w.data();
    const std::size_t n_ops = n_elems * opp;
    expects(n_ops <= std::numeric_limits<std::uint32_t>::max(),
            "AccelEngine: every op index and divisor of a layer fits 32 bits");
    const DivideU32 per_pixel(static_cast<std::uint32_t>(opp));
    const DivideU32 per_channel(static_cast<std::uint32_t>(plane));
    const auto true_product_at = [&](std::size_t g) {
        const std::uint32_t pixel = per_pixel.quotient(static_cast<std::uint32_t>(g));
        const std::size_t tap = g - std::size_t{pixel} * opp;
        const std::uint32_t oc = per_channel.quotient(pixel);
        return static_cast<fx::Acc>(
                   in_data[pixel_offset[pixel - std::size_t{oc} * plane] +
                           tap_offset[tap]]
                       .raw()) *
               w_data[oc * opp + tap].raw();
    };
    thread_local std::vector<fx::Acc> accs;
    accs.assign(golden_accs.begin(), golden_accs.end());
    walk_windows(overlay, seg, per_pixel, n_ops, conv_dsps_, config_.path_derate(layer),
                 throttle, rng, counts, accs, true_product_at);
    quant::gemm::write_back(accs.data(), n_elems, layer.activation, out);
    return out;
}

QTensor AccelEngine::run_fc(const QTensor& input, const quant::QLayer& layer,
                            const LayerSegment& seg, const SegmentOverlay& overlay,
                            Rng& rng, const std::vector<bool>* throttle,
                            FaultCounts& counts,
                            const std::vector<fx::Acc>& golden_accs) const {
    const std::size_t out_n = layer.weight.shape().dim(0);
    const std::size_t in_n = layer.weight.shape().dim(1);
    QTensor out(Shape{out_n});
    if (!overlay.any()) {
        quant::gemm::write_back(golden_accs.data(), out_n, layer.activation, out);
        return out;
    }

    const Q3_4* in_data = input.data();
    const Q3_4* w_data = layer.weight.data();
    const std::size_t n_ops = out_n * in_n;
    expects(n_ops <= std::numeric_limits<std::uint32_t>::max(),
            "AccelEngine: every op index and divisor of a layer fits 32 bits");
    const DivideU32 per_output(static_cast<std::uint32_t>(in_n));
    const auto true_product_at = [&](std::size_t g) {
        return static_cast<fx::Acc>(
                   in_data[per_output.remainder(static_cast<std::uint32_t>(g))].raw()) *
               w_data[g].raw();
    };
    thread_local std::vector<fx::Acc> accs;
    accs.assign(golden_accs.begin(), golden_accs.end());
    walk_windows(overlay, seg, per_output, n_ops, fc_dsps_, 1.0, throttle, rng, counts,
                 accs, true_product_at);
    quant::gemm::write_back(accs.data(), out_n, layer.activation, out);
    return out;
}

QTensor AccelEngine::run_pool(const QTensor& input, const quant::QLayer& layer,
                              const LayerSegment& seg, const SegmentOverlay& overlay,
                              Rng& rng, const std::vector<bool>* throttle,
                              FaultCounts& counts) const {
    const bool average = layer.kind == quant::QLayerKind::AvgPool2;
    if (!overlay.any()) return average ? quant::qavgpool2(input) : quant::qmaxpool2(input);
    // Pool segments are tiny (a few thousand comparator ops); when a window
    // touches one, walking every comparator op of the segment is already
    // cheap.
    const std::size_t ch = input.shape().dim(0);
    const std::size_t oh = input.shape().dim(1) / 2;
    const std::size_t ow = input.shape().dim(2) / 2;
    QTensor out(Shape{ch, oh, ow});

    // The delay factor of a comparator capture in `cycle` (ascending over
    // the walk), -1 when it draws nothing: the plan's entry for the
    // cycle's second DDR sample (comparators capture at cycle end) inside
    // a window, and none outside one.
    auto win = overlay.unsafe.begin();
    const double* win_factors = overlay.factors.data();
    const auto capture_factor = [&](std::size_t cycle) {
        while (win != overlay.unsafe.end() && win->end <= cycle) {
            win_factors += 2 * (win->end - win->begin);
            ++win;
        }
        if (win == overlay.unsafe.end() || cycle < win->begin) return -1.0;
        return win_factors[2 * (cycle - win->begin) + 1];
    };

    std::size_t g = 0;
    const std::size_t opc = seg.ops_per_cycle;
    for (std::size_t c = 0; c < ch; ++c) {
        for (std::size_t r = 0; r < oh; ++r) {
            for (std::size_t wdx = 0; wdx < ow; ++wdx) {
                Q3_4 window[4] = {input.at(c, 2 * r, 2 * wdx),
                                  input.at(c, 2 * r, 2 * wdx + 1),
                                  input.at(c, 2 * r + 1, 2 * wdx),
                                  input.at(c, 2 * r + 1, 2 * wdx + 1)};
                bool faulted = false;
                for (std::size_t cmp = 0; cmp < 4; ++cmp) {
                    const std::size_t cycle = seg.start_cycle + g / opc;
                    const double factor = capture_factor(cycle);
                    if (factor >= 0.0 && !throttled(throttle, cycle) &&
                        pool_logic_.evaluate_with_factor(factor, rng) != FaultKind::None) {
                        faulted = true;
                        ++counts.random;
                    }
                    ++g;
                }
                if (faulted) {
                    // Comparator/adder mis-operated: an arbitrary window
                    // element (possibly the right one) wins.
                    out.at(c, r, wdx) = window[rng.uniform_int(0, 3)];
                } else {
                    out.at(c, r, wdx) = quant::pool_window(average, window[0], window[1],
                                                           window[2], window[3]);
                }
            }
        }
    }
    return out;
}

QTensor AccelEngine::run_layer(std::size_t i, const QTensor& input,
                               const SegmentOverlay& overlay, Rng& rng,
                               const std::vector<bool>* throttle, FaultCounts& counts,
                               const std::vector<fx::Acc>* golden_accs) const {
    const quant::QLayer& layer = network_.layers[i];
    const LayerSegment& seg = schedule_.segment_for_layer(i);
    // Without cached golden accumulators, a conv/dense layer takes its
    // fault-free accumulators from one im2col/GEMM pass. A dense layer
    // consumes a rank-3 input as is: the implicit flatten is a shape
    // change, never a data change.
    thread_local std::vector<fx::Acc> accs;
    switch (layer.kind) {
        case quant::QLayerKind::Conv:
            if (golden_accs == nullptr) {
                quant::gemm::conv2d_accs(input, layer.weight, layer.bias, accs);
                golden_accs = &accs;
            }
            return run_conv(input, layer, seg, overlay, rng, throttle, counts,
                            *golden_accs);
        case quant::QLayerKind::Pool2:
        case quant::QLayerKind::AvgPool2:
            return run_pool(input, layer, seg, overlay, rng, throttle, counts);
        case quant::QLayerKind::Dense:
            if (golden_accs == nullptr) {
                quant::gemm::dense_accs(input, layer.weight, layer.bias, accs);
                golden_accs = &accs;
            }
            return run_fc(input, layer, seg, overlay, rng, throttle, counts,
                          *golden_accs);
    }
    throw ContractError("AccelEngine: unknown layer kind");
}

RunResult AccelEngine::run_elided(
    const QTensor& image, const std::vector<QTensor>& golden_layers,
    const std::vector<std::vector<fx::Acc>>& golden_accs, const VoltageTrace* voltage,
    Rng& fault_rng, const OverlayPlan& plan, const std::vector<bool>* throttle) const {
    const std::size_t n_layers = network_.layers.size();
    expects(image.shape() == network_.input_shape, "AccelEngine::run_elided: input shape");
    expects(golden_layers.size() == n_layers,
            "AccelEngine::run_elided: one golden activation per layer");
    expects(golden_accs.size() == n_layers,
            "AccelEngine::run_elided: one accumulator array per layer");
    for (std::size_t i = 0; i < n_layers; ++i) {
        const quant::QLayerKind kind = network_.layers[i].kind;
        if (kind == quant::QLayerKind::Conv || kind == quant::QLayerKind::Dense) {
            expects(golden_accs[i].size() == golden_layers[i].size(),
                    "AccelEngine::run_elided: one golden accumulator per "
                    "Conv/Dense output");
        }
    }
    expects(plan.layers.size() == n_layers &&
                plan.trace_samples == (voltage == nullptr ? 0 : voltage->size()),
            "AccelEngine::run_elided: overlay plan does not match trace/network");

    RunResult result;
    result.faults_by_layer.reserve(n_layers);
    result.layer_index.reserve(n_layers);

    // While `diverged` is false the activation entering layer i is byte-
    // equal to golden_layers[i - 1] (the image for i == 0): safe layers are
    // skipped outright, and a windowed layer runs its fault walk on the
    // cached golden accumulators instead of recomputing them; one that
    // draws zero faults writes back golden bytes (zero integer deltas), so
    // the invariant survives it. The first fault flips `diverged`, and the
    // remaining layers recompute their accumulators from the perturbed
    // activation.
    bool diverged = false;
    QTensor x; // the perturbed activation, valid once diverged
    std::uint64_t ops_executed = 0;
    for (std::size_t i = 0; i < n_layers; ++i) {
        const SegmentOverlay& overlay = plan.layers[i];
        FaultCounts counts;
        if (!diverged && !overlay.any()) {
            ++result.golden_layers_reused;
        } else {
            const QTensor& in = diverged ? x : i == 0 ? image : golden_layers[i - 1];
            QTensor out = run_layer(i, in, overlay, fault_rng, throttle, counts,
                                    diverged ? nullptr : &golden_accs[i]);
            ops_executed += schedule_.segment_for_layer(i).total_ops;
            if (diverged || counts.total() != 0) {
                diverged = true;
                x = std::move(out);
            }
        }
        record_layer(result, network_.layers[i].label, counts);
    }

    result.logits = diverged ? std::move(x) : golden_layers.back();
    result.predicted = argmax(result.logits);
    count_inference(schedule_, plan, ops_executed, result.faults_total);
    return result;
}

} // namespace deepstrike::accel
