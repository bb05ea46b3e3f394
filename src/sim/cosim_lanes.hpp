// Lane-batched co-simulation engine (structure-of-arrays SIMD lockstep).
//
// This is the one co-simulation tick loop. Platform::simulate_inference_lanes
// splits its sources into groups of cosim_lane_width() and runs each group
// through Platform::run_lane_group (defined in cosim_lanes.cpp); a single
// co-sim (Platform::simulate_inference) is a one-lane group. Lanes exploit
// that campaign points are fully independent: W co-sim states — one per
// campaign point / sweep scheme / blind replay offset — step in lockstep
// over the shared activity schedule, with the second-order PDN state
// (v, i_l) held in 32-byte-aligned SoA arrays and advanced four lanes per
// AVX2 slot behind the simd::mode() dispatch seam (DS_FORCE_SCALAR=1
// selects the portable scalar twin).
//
// Byte-identity contract: a lane's CosimResult depends only on its own
// source — never on the group width, its position in the group or the
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
// PdnModel, TdcSensor and StrikerBank.
//
// Scheduling lives in sim::SweepRunner. Its one trace fill packs guided
// schemes into lane groups in claim order and each blind bundle's replays
// into groups of their own, in descending start cycle (sim::blind_replays),
// so a group's lane 0 starts last and the TDC sampler can copy most of its
// draws. It runs every group of a batch in one parallel_for over the
// runner's workers. The group width is a constant 8 in the product;
// set_cosim_lane_width() is the seam tests and benches use to prove the
// report is width-invariant.
#pragma once

#include <cstddef>

namespace deepstrike::sim {

/// Process-wide lane group width (co-sims per SIMD group). Default 8;
/// set_cosim_lane_width clamps to [1, 64]. Width 1 runs every co-sim in a
/// group of its own.
std::size_t cosim_lane_width();
void set_cosim_lane_width(std::size_t width);

} // namespace deepstrike::sim
