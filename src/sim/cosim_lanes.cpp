// Lane-batched co-simulation engine (structure-of-arrays SIMD lockstep).
//
// This is the one co-simulation tick loop, Platform::simulate_inference_lanes.
// One call co-simulates one lane group of 1 to kCosimLanes (8) sources; a
// single co-sim (Platform::simulate_inference) is a one-lane group. Lanes
// exploit that campaign points are fully independent: the group's co-sim
// states — one per campaign point / sweep scheme / blind replay offset —
// step in lockstep over the shared activity schedule, with the
// second-order PDN state (v, i_l) held in 32-byte-aligned SoA arrays and
// advanced four lanes per AVX2 slot behind the simd::mode() dispatch seam
// (DS_FORCE_SCALAR=1 selects the portable scalar twin).
//
// Byte-identity contract: a lane's CosimResult depends only on its own
// source — never on the group size, its position in the group or the
// SIMD twin. The kernels use only vertical IEEE ops in the evaluation
// order of pdn::PdnModel::step (no FMA contraction, no reassociation); the
// striker current and the delay-model pow() stay scalar per lane; per-lane
// Rng streams all start from PlatformConfig::tdc_noise_seed and advance
// draw-for-draw (tdc::TdcLaneSampler dedups a draw only when voltage bits
// AND the full stream state coincide, which makes the copy a pure-function
// replay). Lane compaction: a 4-lane slot whose lanes all sit at the
// PdnModel floating-point fixed point under an unchanged load skips its
// SIMD slot entirely — recomputing a steady lane is the identity, so
// compaction is pure throughput, never bytes. tests/cosim_lanes_test.cpp
// checks every lane bitwise against a test-local per-tick oracle built on
// PdnModel, TdcSensor and StrikerBank, with the same sources split into
// groups of several sizes.
//
// Recording modes (sim::CosimRecord). The one tick loop records what its
// caller keeps. A Sensor co-sim (the default) draws every TDC sample on
// every lane and records the readouts. A Captures co-sim records capture
// voltages and strike bits only, and a lane draws TDC samples only while
// its source listens (StrikeSource::listens): a guided lane until its
// detector fires, a blind or fixed-schedule lane never. Its capture
// voltages equal a Sensor co-sim's bit for bit, because they follow from
// PDN state, PDN state from the activity and the strike bits, and strike
// bits from TDC samples only while the source listens. A Plan co-sim
// draws as Captures does but keeps only the current cycle's two captures
// per lane: as each cycle ends, the lane's accel::OverlayPlanner takes
// them, so the lane leaves with its overlay plan, and no capture trace
// (0.83 MB for LeNet-5) is allocated or scanned a second time. Trace
// fills run Plan, so on the blind replays that dominate a campaign no
// sensor work is left.
//
// Scheduling lives in sim::SweepRunner. Its one trace fill packs guided
// schemes into groups of kCosimLanes in claim order and each blind
// bundle's replays into groups of their own, in descending start cycle
// (sim::blind_replays), and calls this loop once per group. The packing
// still pays in capture-only fills, through slot compaction, not TDC
// dedup: lanes of one scheme share the golden run until they start and
// settle into one common state after their replays, so packed lanes sit
// at their fixed points together and whole 4-lane slots skip.

#include "sim/platform.hpp"

#include <algorithm>
#include <cstdint>
#include <numeric>

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

std::vector<CosimResult> Platform::simulate_inference_lanes(
    std::span<StrikeSource* const> sources, CosimRecord record) const {
    expects(!sources.empty() && sources.size() <= kCosimLanes,
            "simulate_inference_lanes: 1 to kCosimLanes sources per group");
    for (const StrikeSource* s : sources) {
        expects(s != nullptr, "simulate_inference_lanes: non-null sources");
    }
    trace::Span span("cosim.lanes", "cosim");
    const PlatformConfig& cfg = config_;
    const std::size_t n = sources.size();
    const std::size_t total_cycles = engine_.schedule().total_cycles;
    const std::size_t tpc = cfg.ticks_per_cycle;
    const std::size_t n_caps = cfg.dsp_capture_ticks.size();
    const bool sensor = record == CosimRecord::Sensor;
    const bool plan_only = record == CosimRecord::Plan;
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

    std::vector<CosimResult> results(n);
    for (std::size_t l = 0; l < n; ++l) {
        CosimResult& res = results[l];
        res.strike_bits = BitVec(total_cycles);
        if (!plan_only) res.capture_v.assign(total_cycles * n_caps, cfg.pdn.vdd);
        if (sensor) res.tdc_readouts.reserve(total_cycles * cfg.tdc_sample_ticks.size());
    }
    // A Plan co-sim keeps each lane's captures of the current cycle only,
    // lane-major, and hands them to the lane's planner as the cycle ends.
    // Like capture_v, a capture edge never reached stays nominal.
    std::vector<accel::OverlayPlanner> planners;
    std::vector<double> cycle_captures;
    if (plan_only) {
        planners.reserve(n);
        for (std::size_t l = 0; l < n; ++l) planners.emplace_back(engine_);
        cycle_captures.assign(n * n_caps, cfg.pdn.vdd);
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

    // The per-tick events at the lanes' post-step voltages: a TDC draw, a
    // DSP capture edge.
    const auto tick_events = [&](std::size_t cycle, std::size_t tick) {
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
            const auto slot = static_cast<std::size_t>(act.capture_slot);
            if (plan_only) {
                for (std::size_t l = 0; l < n; ++l) cycle_captures[l * n_caps + slot] = v[l];
            } else {
                const std::size_t at = cycle * n_caps + slot;
                for (std::size_t l = 0; l < n; ++l) results[l].capture_v[at] = v[l];
            }
        }
    };
    const auto end_cycle = [&] {
        if (!plan_only) return;
        for (std::size_t l = 0; l < n; ++l) {
            planners[l].add_cycle(cycle_captures[l * n_caps], cycle_captures[l * n_caps + 1]);
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
            end_cycle();
            continue;
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
            tick_events(cycle, tick);
        }
        end_cycle();
    }
    for (std::size_t l = 0; l < planners.size(); ++l) results[l].plan = planners[l].finish();

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

} // namespace deepstrike::sim
