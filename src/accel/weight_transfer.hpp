// AXI-ish weight-transfer fault hook: the second fault injection surface.
//
// The first attack family (DeepStrike) faults *compute*: a power glitch
// makes DSP slices miss timing while the schedule executes, modeled by
// accel::OverlayPlan gating the per-op fault path. This hook models the
// other published way to fault the same multi-tenant FPGA victim:
// corrupting the weight words *in flight* during the off-chip -> on-chip
// transfer, before any MAC runs. Two fault models from the literature
// share the one seam, parameterized by WeightFaultKind:
//
//   Duplicate (Deep-Dup, Rakin et al.) — a glitch on the DMA handshake
//     makes the interconnect latch the previous data beat again while
//     the write address advances, so the beat holding the targeted word
//     is overwritten by the beat before it. A beat carries
//     WeightTransferParams::beat_words consecutive words; cloud-FPGA
//     shells (AWS F1 and friends) expose the DDR4 controller over a
//     512-bit AXI4 data path, so with 8-bit weights the default beat is
//     64 words, and one fault corrupts one whole beat. The first beat of
//     the stream has no predecessor to duplicate; a fault there is a
//     no-op.
//
//   BitFlip (DeepLaser, Breier et al.) — a precisely-timed fault flips
//     one bit of the targeted 8-bit word as it crosses the bus. `bit`
//     selects which (0 = LSB); the default 7 is the sign bit, the
//     paper's forced-misclassification primitive (on the Q3.4 grid a
//     sign flip moves a weight by a full 8.0 — the largest single-bit
//     perturbation the format admits).
//
// Faults address targets by stream index (quant::WeightStreamView); the
// hook applies them to a deployment of the network — a fresh copy
// (apply_weight_faults), or a working copy patched in place and restored
// afterwards (patch_weight_faults, restore_weight_spans), as the
// weight-fault search does per fitness task — so one faulted QNetwork
// serves every image of an evaluation. That mirrors the physical picture
// (the transfer happens once, the corruption persists for the whole
// inference batch) and lets fitness evaluation reuse the unfaulted prefix
// of cached golden activations (sim/search.hpp).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "quant/qnetwork.hpp"
#include "quant/weight_stream.hpp"

namespace deepstrike::accel {

enum class WeightFaultKind : std::uint8_t {
    Duplicate, // Deep-Dup: previous beat re-latched over the target beat
    BitFlip,   // DeepLaser: one bit of the target word flipped
};

const char* weight_fault_kind_name(WeightFaultKind kind);
WeightFaultKind parse_weight_fault_kind(const std::string& name); // throws ConfigError

/// Transfer-geometry knobs of the hook.
struct WeightTransferParams {
    /// Weight words per AXI data beat (512-bit shell DDR4 bus / 8-bit
    /// words).
    std::size_t beat_words = 64;
};

/// One injected transfer fault. `index` addresses a word in the network's
/// weight stream (quant::WeightStreamView order); Duplicate faults
/// normalize to the beat containing that word.
struct WeightFault {
    std::uint32_t index = 0;
    WeightFaultKind kind = WeightFaultKind::Duplicate;
    std::uint8_t bit = 7; // BitFlip only; 7 = sign bit of the 8-bit word
};

/// Builds the uniform fault set the search layer optimizes: every index
/// carried with the same kind/bit (one attack family per search run).
std::vector<WeightFault> uniform_weight_faults(
    const std::vector<std::uint32_t>& indices, WeightFaultKind kind,
    std::uint8_t bit = 7);

/// A run of consecutive weight-stream words, [begin, end).
struct StreamSpan {
    std::size_t begin = 0;
    std::size_t end = 0;

    bool empty() const { return begin == end; }
};

/// The stream words `fault` rewrites in a stream of `stream_words` words:
/// the beat holding its index for a duplication — empty for beat 0, which
/// has no predecessor to re-latch — and the word itself for a bit flip. The
/// one rule patch_weight_faults applies and first_faulted_layer reads.
StreamSpan rewritten_span(const WeightFault& fault, std::size_t stream_words,
                          const WeightTransferParams& params);

/// Index of the earliest layer of `view`'s network holding a word that
/// `faults` rewrite (rewritten_span), the first layer whose activations can
/// diverge from golden: a duplicated beat may begin in the layer before its
/// index. Returns `layer_count` when no fault rewrites a word (an empty set,
/// or duplications in beat 0 alone).
std::size_t first_faulted_layer(const quant::WeightStreamView& view,
                                const std::vector<WeightFault>& faults,
                                const WeightTransferParams& params,
                                std::size_t layer_count);

/// The fault rule, applied in place: rewrites `working`, which must hold
/// the same words as `original` (`view` is original's stream view), into
/// the deployment apply_weight_faults(original, faults, params) returns,
/// and returns the stream spans it rewrote. Duplications come first, each
/// sourced from the original stream (two adjacent duplications never
/// chain); bit flips then apply to the post-duplication word. Words are
/// moved one layer piece at a time (a beat lies in at most two layers), so
/// no word is located on its own. Throws ContractError on an out-of-range
/// index or bit, before any word changes.
std::vector<StreamSpan> patch_weight_faults(const quant::QNetwork& original,
                                            const quant::WeightStreamView& view,
                                            const std::vector<WeightFault>& faults,
                                            const WeightTransferParams& params,
                                            quant::QNetwork& working);

/// Undoes patch_weight_faults: copies the words of `spans` back from
/// `original` into `working`, which then equals `original` again.
void restore_weight_spans(const quant::QNetwork& original,
                          const quant::WeightStreamView& view,
                          const std::vector<StreamSpan>& spans,
                          quant::QNetwork& working);

/// Applies the faults to a deployment copy of `network` and returns it:
/// the copy, then patch_weight_faults. Deterministic; an empty fault set
/// returns a byte-identical copy. Duplicate semantics operate on the flat
/// stream (beats may straddle a layer boundary — the DMA bursts the
/// stream, not the layers). Throws ContractError on an out-of-range index
/// or bit.
quant::QNetwork apply_weight_faults(const quant::QNetwork& network,
                                    const std::vector<WeightFault>& faults,
                                    const WeightTransferParams& params = {});

} // namespace deepstrike::accel
