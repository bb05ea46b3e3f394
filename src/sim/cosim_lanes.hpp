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
// Recording modes (sim::CosimRecord). The one tick loop records what its
// caller keeps. Sensor (the default) and Ticks co-sims draw every TDC
// sample on every lane and record readouts and per-cycle minima; Ticks
// adds the per-tick voltage. A Captures co-sim records capture voltages
// and strike bits only, and a lane draws TDC samples only while its
// source listens (StrikeSource::listens): a guided lane until its
// detector fires, a blind or fixed lane never. Its capture voltages equal
// a Sensor co-sim's bit for bit, because they follow from PDN state, PDN
// state from the activity and the strike bits, and strike bits from TDC
// samples only while the source listens. Every trace fill runs Captures,
// so on the blind replays that dominate a campaign no sensor work is left.
//
// Scheduling lives in sim::SweepRunner. Its one trace fill packs guided
// schemes into lane groups in claim order and each blind bundle's replays
// into groups of their own, in descending start cycle (sim::blind_replays).
// The packing still pays in capture-only fills, through slot compaction,
// not TDC dedup: lanes of one scheme share the golden run until they
// start and settle into one common state after their replays, so packed
// lanes sit at their fixed points together and whole 4-lane slots skip.
// It runs every group of a batch in one parallel_for over the runner's
// workers. The group width is a constant 8 in the product;
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
