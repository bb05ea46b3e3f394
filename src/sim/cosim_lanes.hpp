// Lane-batched co-simulation engine (structure-of-arrays SIMD lockstep).
//
// The per-tick co-simulation is the dominant serial cost of a campaign
// point: sim::Platform::simulate_inference steps the PDN, the delay model,
// the striker and the TDC one scalar double at a time, ticks_per_cycle
// times per fabric cycle. Lanes exploit that campaign points are fully
// independent: W co-sim states — one per campaign point / sweep scheme
// (and, structurally, one per future PDN tenant; ROADMAP item 2) — step in
// lockstep over the shared activity schedule, with the second-order PDN
// state (v, i_l) held in 32-byte-aligned SoA arrays and advanced four
// lanes per AVX2 slot behind the simd::mode() dispatch seam
// (DS_FORCE_SCALAR=1 selects the portable scalar twin).
//
// Byte-identity contract: a lane's CosimResult is bit-identical to
// simulate_inference() on the same source, in either twin. The kernels
// use only vertical IEEE ops in the scalar evaluation order (no FMA
// contraction, no reassociation); the delay-model pow() stays scalar per
// lane; per-lane Rng streams start from the same seed the scalar path
// uses and advance draw-for-draw (tdc::TdcLaneSampler dedups a draw only
// when voltage bits AND the full stream state coincide, which makes the
// copy a pure-function replay). Lane compaction: a 4-lane slot whose
// lanes all sit at the PdnModel floating-point fixed point under an
// unchanged load skips its SIMD slot entirely — recomputing a steady lane
// is the identity, so compaction is pure throughput, never bytes.
//
// Scheduling lives in sim::SweepRunner (prefetch_guided packs distinct
// guided schemes into lane groups; blind bundles batch their replay
// offsets) with scalar fallback for single-lane remainders. The group
// width is a constant 8 in the product; set_cosim_lane_width() is the
// seam tests and benches use to prove the report is width-invariant.
#pragma once

#include <cstddef>
#include <vector>

#include "sim/platform.hpp"

namespace deepstrike::sim {

/// Process-wide lane group width (points co-simulated per SIMD group).
/// Width 0 or 1 disables lane batching everywhere (every co-sim takes the
/// scalar per-point path). Default 8; clamped to 64.
std::size_t cosim_lane_width();
void set_cosim_lane_width(std::size_t width);

/// True when lane batching is on (width >= 2).
bool cosim_lanes_enabled();

/// One lane group: co-simulates sources.size() inferences in lockstep.
/// Most callers want Platform::simulate_inference_lanes, which splits an
/// arbitrary source list into groups of cosim_lane_width() and handles
/// the scalar fallback; this class is one group, run once.
class CosimLanes {
public:
    CosimLanes(const Platform& platform, std::vector<StrikeSource*> sources,
               bool record_tick_voltage = false);

    /// Runs the full co-simulation; result[i] is byte-identical to
    /// platform.simulate_inference(*sources[i], record_tick_voltage).
    std::vector<CosimResult> run();

private:
    const Platform& platform_;
    std::vector<StrikeSource*> sources_;
    bool record_tick_voltage_;
};

} // namespace deepstrike::sim
