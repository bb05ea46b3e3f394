// Attack campaign orchestration: the full Fig. 5(b)-style sweep as one
// reusable API with structured (JSON / markdown) reporting.
//
// A campaign profiles the victim once through the side channel, then for
// every (profiled segment x strike count) plans a scheme, co-simulates the
// guided attack, and evaluates accelerator accuracy over the test set;
// optionally a blind baseline at the same intensities. This is what the
// fig5b bench and the `deepstrike campaign` CLI command run.
//
// The campaign is factored into three phases so that the checkpoint
// journal and the end-to-end benchmark (bench/e2e) share one definition of
// the work:
//
//   plan_campaign()              profiling + point planning + fingerprint
//   evaluate_campaign_record()   one journal-record payload per index
//                                (0 = clean baseline, 1 + i = point i)
//   assemble_campaign_report()   records -> CampaignReport
//
// The per-record payloads are exactly the sim::CheckpointJournal records
// (IEEE-754 bit patterns for floats), so a record restored on resume and
// one computed fresh are indistinguishable. A report assembled from
// records is byte-identical to run_campaign's, whichever order or runner
// computed each record.
//
// Execution goes through sim::SweepRunner: it fills every point's
// co-simulated trace in one batch, then runs the points in parallel over
// the persistent thread pool. Reports are bit-identical at any thread
// count; the run manifest (timing) is surfaced separately so it never
// perturbs report bytes.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "sim/experiment.hpp"
#include "sim/runner.hpp"
#include "util/json.hpp"

namespace deepstrike::sim {

struct CampaignConfig {
    std::vector<std::size_t> strike_grid = {500, 1000, 2000, 3000, 4500};
    std::size_t eval_images = 300;
    std::uint64_t fault_seed = 2468;
    /// Blind baseline replays per strike count (0 disables the baseline).
    std::size_t blind_offsets = 10;
    std::uint64_t blind_offset_seed = 777;
    /// Sweep worker width (0 = the global --threads knob).
    std::size_t threads = 0;
    attack::DetectorConfig detector{};
    attack::ProfilerConfig profiler{};

    /// Checkpoint journal path; empty disables journaling. When set,
    /// every completed point is appended to the journal (see
    /// sim/journal.hpp) so an interrupted campaign can be resumed.
    std::string journal_path;
    /// Resume from an existing journal at `journal_path`: the journal's
    /// fingerprint is validated against this configuration, completed
    /// points are restored bit-exactly and skipped, and only the
    /// remainder is executed. The final report is byte-identical to an
    /// uninterrupted run at any thread count. Every restored record is
    /// checked against the plan first: a repeated index, the wrong kind,
    /// or accuracy bits that are not 16 lowercase hex digits of a value
    /// in [0, 1] are a FormatError; another point's label or image count
    /// is a ConfigError.
    bool resume = false;
};

struct CampaignPoint {
    std::string target;     // profiled segment label ("segment#2 conv") or "BLIND"
    /// Index of the profiled segment; empty for blind-baseline points.
    std::optional<std::size_t> segment_index;
    std::size_t strikes = 0;
    std::size_t gap_cycles = 0;
    double accuracy = 0.0;
    double drop = 0.0; // clean - accuracy
    accel::FaultCounts faults;
    std::size_t images = 0;

    bool is_blind() const { return !segment_index.has_value(); }
};

struct CampaignReport {
    double clean_accuracy = 0.0;
    std::size_t eval_images = 0;
    bool detector_fired = false;
    std::size_t trigger_sample = 0;
    attack::Profile profile;
    std::vector<CampaignPoint> points;

    /// True when assemble_campaign_report found a record missing;
    /// `points` then holds only completed points. run_campaign never
    /// returns a partial report (a failed point throws). Serialized (and
    /// only serialized) when true, so complete-run reports are unchanged.
    bool partial = false;

    /// The guided point with the largest accuracy drop (nullptr when none).
    const CampaignPoint* most_damaging() const;

    Json to_json() const;
    std::string to_markdown() const;
};

// --------------------------------------------------------------- phases

/// Static description of one campaign point, planned up front so the
/// execution phase only runs (trace + evaluation) work.
struct PlannedCampaignPoint {
    std::string label;
    std::optional<std::size_t> segment_index;
    std::size_t strikes = 0;
    attack::AttackScheme scheme;
    /// Offsets a blind-baseline point replays (> 0 marks one): the
    /// configured count, at most one per evaluated image.
    std::size_t blind_offsets = 0;
};

/// The complete static plan of a campaign: profiling result, every
/// planned point, and the 64-bit result fingerprint. The same victim +
/// config always derives an identical plan (and fingerprint) — the
/// property the journal verifies before resuming.
struct CampaignPlan {
    CampaignConfig config;
    ProfilingRun prof;
    std::vector<PlannedCampaignPoint> points;
    /// config.eval_images clamped once to the test-set size; every
    /// evaluation uses exactly this many images.
    std::size_t eval_images = 0;
    std::uint64_t fingerprint = 0;

    /// Journal-record count: 1 (clean baseline) + points.size().
    std::size_t record_count() const { return points.size() + 1; }
};

/// Journal/display label of planned point i ("segment#2 conv x2000").
std::string campaign_point_label(const PlannedCampaignPoint& point);

/// Phase 1: profiles the victim and plans every point. Strike counts
/// exceeding a segment's capacity (duration/2 cycles) are clamped to it,
/// mirroring the paper's layer-length-bounded maxima; blind counts are
/// clamped the same way to the largest count whose replay fits the
/// schedule, and a blind point replays min(blind_offsets, eval images)
/// offsets, since image i reads offset i % n. An empty strike grid, a
/// zero strike count or zero eval images is a ContractError.
CampaignPlan plan_campaign(const Platform& platform, const data::Dataset& test_set,
                           const CampaignConfig& config = {});

/// Phase 2: evaluates one record of the plan and returns its journal
/// payload. Index 0 is the clean baseline; 1 + i is plan.points[i].
/// Bit-identical for a given (platform, plan, index) in any process at
/// any thread count. `golden` is the campaign's store (it must cover
/// plan.eval_images); null builds one for this record alone, with
/// byte-identical results.
Json evaluate_campaign_record(const Platform& platform, const data::Dataset& test_set,
                              const CampaignPlan& plan, SweepRunner& runner,
                              const GoldenStore* golden, std::size_t record_index);

/// Summary of a CampaignPlan: everything report assembly needs, without
/// the schemes and traces that only evaluation uses.
struct CampaignPlanInfo {
    bool detector_fired = false;
    std::size_t trigger_sample = 0;
    std::size_t eval_images = 0;
    std::uint64_t fingerprint = 0;
    std::vector<attack::ProfiledSegment> segments;

    struct PointMeta {
        std::string target;
        std::optional<std::size_t> segment_index;
        std::size_t strikes = 0;
        std::size_t gap_cycles = 0;
    };
    std::vector<PointMeta> points;

    std::size_t record_count() const { return points.size() + 1; }
};

CampaignPlanInfo plan_info(const CampaignPlan& plan);

/// Phase 3: assembles the final report from one record per index
/// (journal payloads). A null (missing) record marks that index as never
/// completed: the point is omitted and the report is marked partial.
CampaignReport assemble_campaign_report(const CampaignPlanInfo& info,
                                        const std::vector<Json>& records);

// Floating-point results cross the journal as IEEE-754 bit patterns so
// restores are bit-exact; the human-readable value rides alongside.
// double_from_bits_hex accepts exactly 16 lowercase hex digits (FormatError
// otherwise).
std::string double_bits_hex(double value);
double double_from_bits_hex(const std::string& hex);

/// Runs the campaign in-process: plan, parallel sweep (with optional
/// journal/resume per config), assemble. When `manifest` is non-null it
/// receives the sweep-execution record (threads, per-point timing).
CampaignReport run_campaign(const Platform& platform, const data::Dataset& test_set,
                            const CampaignConfig& config = {},
                            RunManifest* manifest = nullptr);

} // namespace deepstrike::sim
