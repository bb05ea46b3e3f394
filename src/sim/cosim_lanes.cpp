#include "sim/cosim_lanes.hpp"

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <numeric>

#include "sim/platform.hpp"
#include "util/aligned.hpp"
#include "util/error.hpp"
#include "util/metrics.hpp"
#include "util/simd.hpp"
#include "util/trace.hpp"

#if defined(__x86_64__) || defined(__i386__)
#include <immintrin.h>
#define DS_LANES_X86 1
#else
#define DS_LANES_X86 0
#endif

namespace deepstrike::sim {

namespace {

constexpr std::size_t kDefaultLaneWidth = 8;
constexpr std::size_t kMaxLaneWidth = 64;

std::atomic<std::size_t>& lane_width_cell() {
    static std::atomic<std::size_t> cell{kDefaultLaneWidth};
    return cell;
}

// ---- PDN slot kernels ---------------------------------------------------
//
// One semi-implicit Euler step of PdnModel::step for a 4-lane SoA slot.
// Returns the per-lane fixed-point mask (bit k set when lane k's step left
// both state variables bit-unchanged — the same predicate PdnModel uses to
// arm its skip). Both twins replay PdnModel::step's expression chain
// verbatim:
//   i_l += dt * ((vdd - v) - r*i_l) / L
//   v   += dt * (i_l - load) / C
//   v    = clamp(v, 0, vdd*1.25)
// with divisions kept as divisions and no FMA contraction, so the twins
// and PdnModel agree bit for bit.

inline bool pdn_step_lane_scalar(double& v, double& il, double load,
                                 const pdn::PdnParams& p) {
    const double prev_v = v;
    const double prev_il = il;
    const double dt = p.dt_s;
    il += dt * (p.vdd - v - p.r_ohm * il) / p.l_henry;
    v += dt * (il - load) / p.c_farad;
    v = std::clamp(v, 0.0, p.vdd * 1.25);
    return v == prev_v && il == prev_il;
}

std::uint32_t pdn_step_slot_scalar(double* v, double* il, const double* load,
                                   const pdn::PdnParams& p) {
    std::uint32_t mask = 0;
    for (std::size_t k = 0; k < 4; ++k) {
        if (pdn_step_lane_scalar(v[k], il[k], load[k], p)) mask |= 1u << k;
    }
    return mask;
}

#if DS_LANES_X86 && defined(__GNUC__)
__attribute__((target("avx2"))) std::uint32_t
pdn_step_slot_avx2(double* v, double* il, const double* load,
                   const pdn::PdnParams& p) {
    const __m256d vdd = _mm256_set1_pd(p.vdd);
    const __m256d r = _mm256_set1_pd(p.r_ohm);
    const __m256d dt = _mm256_set1_pd(p.dt_s);
    const __m256d inv_zero = _mm256_setzero_pd();
    const __m256d v_hi = _mm256_set1_pd(p.vdd * 1.25);

    const __m256d pv = _mm256_load_pd(v);
    const __m256d pil = _mm256_load_pd(il);
    const __m256d t =
        _mm256_sub_pd(_mm256_sub_pd(vdd, pv), _mm256_mul_pd(r, pil));
    const __m256d nil = _mm256_add_pd(
        pil, _mm256_div_pd(_mm256_mul_pd(dt, t), _mm256_set1_pd(p.l_henry)));
    __m256d nv = _mm256_add_pd(
        pv, _mm256_div_pd(_mm256_mul_pd(dt, _mm256_sub_pd(nil, _mm256_load_pd(load))),
                          _mm256_set1_pd(p.c_farad)));
    // max(min(x, hi), 0) equals std::clamp(x, 0, hi) for the non-NaN
    // voltages this integrator produces.
    nv = _mm256_max_pd(_mm256_min_pd(nv, v_hi), inv_zero);
    _mm256_store_pd(v, nv);
    _mm256_store_pd(il, nil);
    const __m256d same = _mm256_and_pd(_mm256_cmp_pd(nv, pv, _CMP_EQ_OQ),
                                       _mm256_cmp_pd(nil, pil, _CMP_EQ_OQ));
    return static_cast<std::uint32_t>(_mm256_movemask_pd(same));
}
#endif

using StepSlotFn = std::uint32_t (*)(double*, double*, const double*,
                                     const pdn::PdnParams&);

StepSlotFn select_step_slot() {
#if DS_LANES_X86 && defined(__GNUC__)
    if (simd::active()) return pdn_step_slot_avx2;
#endif
    return pdn_step_slot_scalar;
}

} // namespace

std::size_t cosim_lane_width() {
    return lane_width_cell().load(std::memory_order_relaxed);
}

void set_cosim_lane_width(std::size_t width) {
    lane_width_cell().store(std::clamp<std::size_t>(width, 1, kMaxLaneWidth),
                            std::memory_order_relaxed);
}

std::vector<CosimResult> Platform::run_lane_group(std::span<StrikeSource* const> sources,
                                                  CosimRecord record) const {
    trace::Span span("cosim.lanes", "cosim");
    const PlatformConfig& cfg = config_;
    const std::size_t n = sources.size();
    const std::size_t total_cycles = engine_.schedule().total_cycles;
    const std::size_t tpc = cfg.ticks_per_cycle;
    const std::size_t n_caps = cfg.dsp_capture_ticks.size();
    const bool sensor = record != CosimRecord::Captures;
    const bool ticks = record == CosimRecord::Ticks;
    // Pad to whole 4-lane slots; pads mirror an idle (never-striking) lane
    // and are never observed.
    const std::size_t padded = (n + 3) / 4 * 4;
    const std::size_t slots = padded / 4;

    // SoA lane state. Initial condition is PdnModel::reset(idle): every
    // lane starts at the same DC operating point.
    const double i_idle = idle_current_a();
    const double v_dc = cfg.pdn.vdd - cfg.pdn.r_ohm * i_idle;
    util::AlignedBuffer<double> v(padded);
    util::AlignedBuffer<double> il(padded);
    util::AlignedBuffer<double> load(padded);
    v.fill(v_dc);
    il.fill(i_idle);
    // Per-lane fixed-point tracking mirrors PdnModel's steady_/steady_load_
    // (reset() leaves steady_ false, so steady_load's initial value is
    // never consulted).
    std::vector<std::uint8_t> steady(padded, 0);
    std::vector<double> steady_load(padded, 0.0);
    std::vector<std::uint8_t> strike(n, 0);
    std::vector<std::uint64_t> steps_skipped(n, 0);
    std::vector<double> min_v(sensor ? n : 0, 0.0);

    std::vector<CosimResult> results(n);
    for (std::size_t l = 0; l < n; ++l) {
        CosimResult& res = results[l];
        res.strike_bits = BitVec(total_cycles);
        res.capture_v.assign(total_cycles * n_caps, cfg.pdn.vdd);
        if (sensor) {
            res.min_v_per_cycle.assign(total_cycles, cfg.pdn.vdd);
            res.tdc_readouts.reserve(total_cycles * cfg.tdc_sample_ticks.size());
        }
        if (ticks) res.tick_voltage.reserve(total_cycles * tpc);
    }

    // Per-lane TDC noise streams: every lane starts from the one
    // configured seed and advances draw-for-draw.
    std::vector<Rng> rng;
    rng.reserve(n);
    for (std::size_t l = 0; l < n; ++l) rng.emplace_back(cfg.tdc_noise_seed);
    std::vector<tdc::TdcSample> scratch(n);
    tdc::TdcLaneSampler sampler(sensor_, n);
    // The lanes that draw TDC samples, in lane order: all of them in a
    // Sensor co-sim. A capture-only co-sim drops a lane for good once its
    // source stops listening (the StrikeSource::listens contract), so no
    // later sample is drawn that could not change a strike bit.
    std::vector<std::size_t> drawing(n);
    std::iota(drawing.begin(), drawing.end(), std::size_t{0});

    const StepSlotFn step_slot = select_step_slot();
    const TickAction* actions = tick_actions_.data();
    std::uint64_t compactions = 0;

    // The per-tick events at the lanes' post-step voltages: the tick
    // voltage, a TDC draw, a DSP capture edge.
    const auto tick_events = [&](std::size_t cycle, std::size_t tick) {
        if (ticks) {
            for (std::size_t l = 0; l < n; ++l) results[l].tick_voltage.push_back(v[l]);
        }
        const TickAction act = actions[tick];
        if (act.tdc_slot >= 0) {
            if (!sensor) {
                std::erase_if(drawing,
                              [&](std::size_t l) { return !sources[l]->listens(); });
            }
            sampler.sample_lanes(v.data(), rng.data(), scratch.data(), drawing);
            for (const std::size_t l : drawing) {
                if (sensor) results[l].tdc_readouts.push_back(scratch[l].readout);
                sources[l]->on_tdc_sample(scratch[l]);
            }
        }
        if (act.capture_slot >= 0) {
            const std::size_t at = cycle * n_caps + static_cast<std::size_t>(act.capture_slot);
            for (std::size_t l = 0; l < n; ++l) results[l].capture_v[at] = v[l];
        }
    };

    for (std::size_t cycle = 0; cycle < total_cycles; ++cycle) {
        bool any_strike = false;
        for (std::size_t l = 0; l < n; ++l) {
            const bool s = sources[l]->strike_bit(cycle);
            strike[l] = s ? 1 : 0;
            if (s) {
                any_strike = true;
                ++results[l].strike_cycles;
                results[l].strike_bits.set(cycle, true);
            }
        }
        const double i_victim = cfg.accel.i_platform_idle_a + activity_[cycle];

        // Cycle fast path: no lane strikes and every live lane already sits
        // at its floating-point fixed point under this cycle's load — the
        // whole cycle of PDN arithmetic is the identity, so only the
        // per-tick events (TDC draws, capture edges) run. This is the
        // dominant shape of idle stretches.
        bool all_steady = !any_strike;
        if (all_steady) {
            for (std::size_t l = 0; l < n; ++l) {
                if (steady[l] == 0 || i_victim != steady_load[l]) {
                    all_steady = false;
                    break;
                }
            }
        }
        if (all_steady) {
            compactions += slots * tpc;
            for (std::size_t l = 0; l < n; ++l) steps_skipped[l] += tpc;
            for (std::size_t tick = 0; tick < tpc; ++tick) tick_events(cycle, tick);
            if (sensor) {
                for (std::size_t l = 0; l < n; ++l) results[l].min_v_per_cycle[cycle] = v[l];
            }
            continue;
        }

        if (sensor) {
            for (std::size_t l = 0; l < n; ++l) min_v[l] = v[l];
        }
        if (!any_strike) {
            for (std::size_t l = 0; l < padded; ++l) load[l] = i_victim;
        }
        for (std::size_t tick = 0; tick < tpc; ++tick) {
            if (any_strike) {
                // A striking lane's oscillator current depends on its own
                // instantaneous voltage (the per-lane pow() dominates).
                for (std::size_t l = 0; l < n; ++l) {
                    load[l] = strike[l] != 0 ? i_victim + striker_.current_a(v[l], true)
                                             : i_victim;
                }
                for (std::size_t l = n; l < padded; ++l) load[l] = i_victim;
            }
            // pdn.steps_skipped counts, per lane, the ticks PdnModel::step
            // would answer from its fixed-point skip (pre-step state, this
            // tick's load) — a logical count, independent of compaction.
            for (std::size_t l = 0; l < n; ++l) {
                if (steady[l] != 0 && load[l] == steady_load[l]) {
                    ++steps_skipped[l];
                }
            }
            // Slot stepping with compaction: a slot whose four lanes all
            // sit at their fixed points under an unchanged load is skipped
            // outright (recomputing it would be the identity).
            for (std::size_t s = 0; s < slots; ++s) {
                const std::size_t b = s * 4;
                bool slot_steady = true;
                for (std::size_t k = 0; k < 4; ++k) {
                    if (steady[b + k] == 0 || load[b + k] != steady_load[b + k]) {
                        slot_steady = false;
                        break;
                    }
                }
                if (slot_steady) {
                    ++compactions;
                    continue;
                }
                const std::uint32_t mask =
                    step_slot(v.data() + b, il.data() + b, load.data() + b, cfg.pdn);
                for (std::size_t k = 0; k < 4; ++k) {
                    steady[b + k] = static_cast<std::uint8_t>((mask >> k) & 1u);
                    steady_load[b + k] = load[b + k];
                }
            }
            if (sensor) {
                for (std::size_t l = 0; l < n; ++l) min_v[l] = std::min(min_v[l], v[l]);
            }
            tick_events(cycle, tick);
        }
        if (sensor) {
            for (std::size_t l = 0; l < n; ++l) results[l].min_v_per_cycle[cycle] = min_v[l];
        }
    }

    // Flush accounting once per group, never per tick: the logical totals
    // are per-lane sums, so they do not depend on how co-sims were grouped;
    // the cosim.lanes.* telemetry does (docs/observability.md).
    if (metrics::enabled()) {
        metrics::counter("cosim.inferences", "inferences",
                         "co-simulated victim inferences")
            .add(n);
        metrics::counter("cosim.cycles", "cycles", "co-simulated fabric cycles")
            .add(n * total_cycles);
        metrics::counter("pdn.steps", "ticks", "PdnModel::step calls")
            .add(n * total_cycles * tpc);
        std::uint64_t skipped_total = 0;
        for (std::size_t l = 0; l < n; ++l) skipped_total += steps_skipped[l];
        metrics::counter("pdn.steps_skipped", "ticks",
                         "steps resolved by the floating-point fixed-point skip")
            .add(skipped_total);
        metrics::counter("tdc.samples", "samples", "TDC sensor draws taken")
            .add(sampler.samples());
        metrics::counter("tdc.memo_hits", "samples",
                         "TDC draws replaying the memoized expected-stage count")
            .add(sampler.memo_hits());
        std::uint64_t strike_total = 0;
        for (std::size_t l = 0; l < n; ++l) {
            strike_total += results[l].strike_cycles;
            metrics::histogram("striker.strike_cycles_per_inference", "cycles",
                               "striker active cycles per co-simulated inference")
                .observe(results[l].strike_cycles);
        }
        metrics::counter("striker.active_cycles", "cycles",
                         "fabric cycles with the power striker firing")
            .add(strike_total);
        metrics::counter("cosim.lanes.groups", "groups",
                         "lane groups co-simulated by the tick loop")
            .add();
        metrics::histogram("cosim.lanes.width", "lanes",
                           "lanes per co-simulated group")
            .observe(n);
        metrics::counter("cosim.lanes.compactions", "slots",
                         "4-lane PDN slots skipped at their floating-point "
                         "fixed point")
            .add(compactions);
        metrics::counter("cosim.lanes.tdc_dedup_hits", "samples",
                         "TDC draws served by copying the first drawing "
                         "lane's emission")
            .add(sampler.dedup_hits());
    }
    return results;
}

std::vector<CosimResult> Platform::simulate_inference_lanes(
    const std::vector<StrikeSource*>& sources, CosimRecord record) const {
    for (const StrikeSource* s : sources) {
        expects(s != nullptr, "simulate_inference_lanes: non-null sources");
    }
    std::vector<CosimResult> out;
    out.reserve(sources.size());
    const std::size_t width = cosim_lane_width();
    const std::span<StrikeSource* const> all(sources);
    for (std::size_t begin = 0; begin < sources.size(); begin += width) {
        std::vector<CosimResult> group = run_lane_group(
            all.subspan(begin, std::min(width, sources.size() - begin)), record);
        for (CosimResult& res : group) out.push_back(std::move(res));
    }
    return out;
}

} // namespace deepstrike::sim
