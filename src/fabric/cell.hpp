// FPGA cell library (7-series subset).
//
// The structural netlist only needs enough fidelity to support the paper's
// hardware-level claims: (a) DRC — a classic ring oscillator is a purely
// combinational loop and is rejected, while the DeepStrike striker cell
// breaks the loop with LDCE transparent latches and passes; (b) resource
// accounting against the PYNQ-Z1 (XC7Z020) device budget.
#pragma once

#include <cstdint>
#include <string>

namespace deepstrike::fabric {

enum class CellKind : std::uint8_t {
    Lut1,      // single-output LUT used as inverter/buffer
    Lut6,      // generic 6-input LUT, one output
    Lut6_2,    // fractured LUT: two outputs (O6, O5) — the striker's core
    Ldce,      // transparent latch with clock enable (breaks DRC loops)
    Fdre,      // D flip-flop with clock enable / sync reset
    Carry4,    // carry chain element (4 MUXCY/XORCY pairs)
    Dsp48,     // DSP48E1 slice: pre-adder + 25x18 multiplier + ALU
    Bram36,    // 36Kb block RAM
    Mmcm,      // clock management tile
    InPort,    // top-level input
    OutPort,   // top-level output
};

/// True when the cell registers its output on a clock *edge*: a purely
/// combinational cycle cannot pass through it.
///
/// Note the latch subtlety the paper exploits: an LDCE is level-sensitive,
/// so electrically it can still oscillate while transparent — but design
/// rule checkers classify it as a sequential element, so a loop through it
/// is not reported as a combinational loop (LUTLP-1). We model the DRC
/// behaviour here; the oscillation behaviour lives in src/striker.
bool breaks_combinational_loop(CellKind kind);

/// Number of LUTs a cell occupies (fractured LUT6_2 still occupies one).
std::size_t lut_cost(CellKind kind);

/// Number of storage elements (FF/latch bits) a cell occupies.
std::size_t ff_cost(CellKind kind);

/// DSP slices used.
std::size_t dsp_cost(CellKind kind);

/// BRAM36 blocks used.
std::size_t bram_cost(CellKind kind);

} // namespace deepstrike::fabric
