#include "sim/campaign.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <sstream>

#include "sim/journal.hpp"
#include "util/checksum.hpp"
#include "util/error.hpp"
#include "util/metrics.hpp"
#include "util/rng.hpp"
#include "util/trace.hpp"

namespace deepstrike::sim {

const CampaignPoint* CampaignReport::most_damaging() const {
    const CampaignPoint* best = nullptr;
    for (const CampaignPoint& p : points) {
        if (p.is_blind()) continue;
        if (best == nullptr || p.drop > best->drop) best = &p;
    }
    return best;
}

Json CampaignReport::to_json() const {
    Json root = Json::object();
    root.set("clean_accuracy", clean_accuracy);
    root.set("eval_images", eval_images);
    root.set("detector_fired", detector_fired);
    root.set("trigger_sample", trigger_sample);
    if (partial) root.set("partial", true);

    Json segments = Json::array();
    for (const auto& seg : profile.segments) {
        Json s = Json::object();
        s.set("start_sample", seg.start_sample);
        s.set("end_sample", seg.end_sample);
        s.set("depth_stages", seg.depth);
        s.set("class", attack::layer_class_name(seg.guess));
        segments.push(std::move(s));
    }
    root.set("profiled_segments", std::move(segments));

    Json pts = Json::array();
    for (const CampaignPoint& p : points) {
        Json j = Json::object();
        j.set("target", p.target);
        // Blind points carry no profiled segment; serialize as -1 rather
        // than leaking a size_t sentinel into the report.
        if (p.segment_index) {
            j.set("segment_index", static_cast<std::uint64_t>(*p.segment_index));
        } else {
            j.set("segment_index", -1);
        }
        j.set("strikes", p.strikes);
        j.set("gap_cycles", p.gap_cycles);
        j.set("accuracy", p.accuracy);
        j.set("accuracy_drop", p.drop);
        j.set("duplication_faults", p.faults.duplication);
        j.set("random_faults", p.faults.random);
        j.set("images", p.images);
        pts.push(std::move(j));
    }
    root.set("points", std::move(pts));

    if (const CampaignPoint* worst = most_damaging()) {
        Json w = Json::object();
        w.set("target", worst->target);
        w.set("strikes", worst->strikes);
        w.set("accuracy_drop", worst->drop);
        root.set("most_damaging", std::move(w));
    }
    return root;
}

std::string CampaignReport::to_markdown() const {
    std::ostringstream os;
    os.precision(4);
    os << std::fixed;
    os << "# DeepStrike campaign report\n\n";
    os << "- untampered accuracy: " << clean_accuracy << " (" << eval_images
       << " images)\n";
    os << "- detector: " << (detector_fired ? "fired" : "did not fire")
       << " at sample " << trigger_sample << "\n";
    os << "- profiled segments: " << profile.segments.size() << "\n\n";
    os << "| target | strikes | gap | accuracy | drop | dup/img | rand/img |\n";
    os << "|---|---|---|---|---|---|---|\n";
    for (const CampaignPoint& p : points) {
        os << "| " << p.target << " | " << p.strikes << " | " << p.gap_cycles << " | "
           << p.accuracy << " | " << p.drop << " | "
           << static_cast<double>(p.faults.duplication) /
                  static_cast<double>(std::max<std::size_t>(1, p.images))
           << " | "
           << static_cast<double>(p.faults.random) /
                  static_cast<double>(std::max<std::size_t>(1, p.images))
           << " |\n";
    }
    if (const CampaignPoint* worst = most_damaging()) {
        os << "\nmost damaging: **" << worst->target << "** at " << worst->strikes
           << " strikes (drop " << worst->drop << ")\n";
    }
    return os.str();
}

std::string double_bits_hex(double value) {
    return to_hex(std::bit_cast<std::uint64_t>(value), 16);
}

double double_from_bits_hex(const std::string& hex) {
    return std::bit_cast<double>(from_hex(hex, 16));
}

namespace {

std::vector<PlannedCampaignPoint> plan_points(const Platform& platform,
                                              const ProfilingRun& prof,
                                              const CampaignConfig& config,
                                              std::size_t eval_images) {
    std::vector<PlannedCampaignPoint> planned;
    for (std::size_t si = 0; si < prof.profile.segments.size(); ++si) {
        const attack::ProfiledSegment& seg = prof.profile.segments[si];
        const std::size_t cap = seg.duration_samples() / 4; // gap >= 1
        bool capped = false;
        for (std::size_t strikes : config.strike_grid) {
            std::size_t n = strikes;
            if (n > cap) {
                if (capped) continue;
                n = cap;
                capped = true;
            }
            if (n == 0) continue;

            PlannedCampaignPoint point;
            point.label = "segment#" + std::to_string(si) + " " +
                          attack::layer_class_name(seg.guess);
            point.segment_index = si;
            point.strikes = n;
            point.scheme =
                attack::plan_attack(seg, prof.trigger_sample,
                                    platform.config().samples_per_cycle(), n);
            planned.push_back(std::move(point));
        }
    }

    if (config.blind_offsets > 0) {
        const std::size_t total_cycles = platform.engine().schedule().total_cycles;
        // Image i reads offset i % n, so offsets past the image count would
        // be co-simulated and never read. Starts are drawn in offset order
        // (blind_replays), so the offsets kept replay exactly as before.
        const std::size_t offsets = std::min(config.blind_offsets, eval_images);
        // n one-cycle strikes at gap max(1, total / n / 2) span
        // n + (n - 1) * gap cycles, which fits the schedule iff
        // n <= (total + 1) / 2: below half the schedule the gaps sum to
        // less than total / 2, above it the gap is 1 and the replay
        // 2n - 1 cycles long. As for guided points, the first count over
        // the cap is planned at the cap and later ones are skipped.
        const std::size_t cap = (total_cycles + 1) / 2;
        bool capped = false;
        for (std::size_t strikes : config.strike_grid) {
            std::size_t n = strikes;
            if (n > cap) {
                if (capped) continue;
                n = cap;
                capped = true;
            }
            PlannedCampaignPoint point;
            point.label = "BLIND";
            point.strikes = n;
            point.blind_offsets = offsets;
            point.scheme.num_strikes = n;
            point.scheme.strike_cycles = 1;
            point.scheme.gap_cycles = std::max<std::size_t>(1, total_cycles / n / 2);
            planned.push_back(std::move(point));
        }
    }
    return planned;
}

/// 64-bit structural hash of a scheme. Every campaign fingerprint, and so
/// every existing journal, depends on this formula; changing it orphans
/// them all.
std::uint64_t scheme_hash(const attack::AttackScheme& scheme) {
    return derive_seed(0x5C4E3EULL, scheme.attack_delay_cycles,
                       scheme.strike_cycles, scheme.gap_cycles,
                       scheme.num_strikes);
}

/// 64-bit hash of everything that determines the campaign's results:
/// the victim network (weights, shapes, quantization format), the
/// evaluation setup, the detector, the trigger, and every planned scheme.
/// A journal written under a different fingerprint is rejected rather
/// than silently mixed into this configuration — including one derived
/// from a different victim.
std::uint64_t campaign_fingerprint(const CampaignConfig& config,
                                   const ProfilingRun& prof,
                                   const std::vector<PlannedCampaignPoint>& planned,
                                   std::size_t eval_images,
                                   std::uint64_t network_fp) {
    std::uint64_t h =
        derive_seed(0xCA3F16ULL, eval_images, config.fault_seed,
                    config.blind_offsets, config.blind_offset_seed);
    h = derive_seed(h, network_fp);
    for (std::size_t strikes : config.strike_grid) h = derive_seed(h, strikes);
    h = derive_seed(h, config.detector.trigger_hw, config.detector.hold_samples,
                    config.detector.auto_rearm ? 1u : 0u,
                    config.detector.rearm_samples);
    for (std::size_t bits : config.detector.zone_bits) h = derive_seed(h, bits);
    h = derive_seed(h, prof.trigger_sample, prof.detector_fired ? 1u : 0u);
    // A blind point hashes the configured offset count, not the count it
    // replays (at most one per image), so that clamp moves no fingerprint.
    for (const PlannedCampaignPoint& p : planned) {
        h = derive_seed(h, scheme_hash(p.scheme), p.strikes,
                        p.blind_offsets > 0 ? config.blind_offsets : 0,
                        p.segment_index ? *p.segment_index + 1 : 0);
    }
    return h;
}

// Journal record indexes: 0 = the clean baseline, 1 + i = planned[i].
constexpr const char* kJournalSweepName = "campaign";

/// Checks a record recovered from `path` against the plan before it fills
/// its slot in `records`: an index in range and seen once, the kind its
/// index implies, the planned point's label and image count (ConfigError),
/// and an accuracy of 16 lowercase hex digits that decodes to a finite
/// value in [0, 1]. Everything else is a FormatError.
void check_recovered_record(const CampaignPlan& plan, const JournalRecord& rec,
                            const std::vector<Json>& records, const std::string& path) {
    const std::string where = "journal " + path + ": record " + std::to_string(rec.index);
    if (rec.index >= plan.record_count()) {
        throw FormatError(where + " exceeds the planned sweep");
    }
    if (!records[rec.index].is_null()) throw FormatError(where + " appears twice");
    const Json& payload = rec.payload;
    const char* kind = rec.index == 0 ? "clean" : "point";
    const Json* found = payload.find("kind");
    if (found == nullptr || !found->is_string() || found->as_string() != kind) {
        throw FormatError(where + " is not a " + kind + " record");
    }
    const double accuracy = double_from_bits_hex(payload.at("accuracy_bits").as_string());
    if (!std::isfinite(accuracy) || accuracy < 0.0 || accuracy > 1.0) {
        throw FormatError(where + " has an accuracy outside [0, 1]");
    }
    if (rec.index == 0) return;

    const std::string expected = campaign_point_label(plan.points[rec.index - 1]);
    const std::string& label = payload.at("label").as_string();
    if (label != expected) {
        throw ConfigError(where + " label '" + label + "' does not match planned point '" +
                          expected + "'");
    }
    const std::uint64_t images = payload.at("images").as_uint();
    if (images != plan.eval_images) {
        throw ConfigError(where + " evaluated " + std::to_string(images) +
                          " images; the plan evaluates " +
                          std::to_string(plan.eval_images));
    }
}

Json clean_record(double accuracy) {
    Json payload = Json::object();
    payload.set("kind", "clean");
    payload.set("accuracy_bits", double_bits_hex(accuracy));
    payload.set("accuracy", accuracy);
    return payload;
}

Json point_record(const std::string& label, const CampaignPoint& point) {
    Json payload = Json::object();
    payload.set("kind", "point");
    payload.set("label", label);
    payload.set("accuracy_bits", double_bits_hex(point.accuracy));
    payload.set("accuracy", point.accuracy);
    payload.set("duplication_faults",
                static_cast<std::uint64_t>(point.faults.duplication));
    payload.set("random_faults", static_cast<std::uint64_t>(point.faults.random));
    payload.set("images", static_cast<std::uint64_t>(point.images));
    return payload;
}

} // namespace

std::string campaign_point_label(const PlannedCampaignPoint& point) {
    return point.label + " x" + std::to_string(point.strikes);
}

CampaignPlan plan_campaign(const Platform& platform, const data::Dataset& test_set,
                           const CampaignConfig& config) {
    expects(!config.strike_grid.empty(), "run_campaign: non-empty strike grid");
    expects(std::find(config.strike_grid.begin(), config.strike_grid.end(), 0) ==
                config.strike_grid.end(),
            "run_campaign: strike counts > 0");
    expects(config.eval_images > 0, "run_campaign: eval images > 0");
    expects(test_set.size() > 0, "run_campaign: non-empty test set");

    CampaignPlan plan;
    plan.config = config;
    // Clamp once; every evaluation uses exactly this many images.
    plan.eval_images = std::min(config.eval_images, test_set.size());
    plan.prof = run_profiling(platform, config.detector, config.profiler);
    if (plan.prof.detector_fired) {
        plan.points = plan_points(platform, plan.prof, config, plan.eval_images);
    }
    plan.fingerprint = campaign_fingerprint(
        config, plan.prof, plan.points, plan.eval_images,
        network_fingerprint(platform.engine().network()));
    return plan;
}

Json evaluate_campaign_record(const Platform& platform, const data::Dataset& test_set,
                              const CampaignPlan& plan, SweepRunner& runner,
                              const GoldenStore* golden, std::size_t record_index) {
    expects(record_index < plan.record_count(),
            "evaluate_campaign_record: record index within plan");
    const CampaignConfig& config = plan.config;
    if (record_index == 0) {
        const AccuracyResult clean = evaluate_accuracy(
            platform, test_set, plan.eval_images, {}, config.fault_seed, nullptr, golden);
        return clean_record(clean.accuracy);
    }

    const PlannedCampaignPoint& p = plan.points[record_index - 1];
    AccuracyResult res;
    if (p.blind_offsets > 0) {
        const auto bundle = runner.blind_bundle(p.scheme, p.blind_offsets,
                                                config.blind_offset_seed);
        res = evaluate_accuracy(platform, test_set, plan.eval_images, bundle->plans,
                                config.fault_seed, nullptr, golden);
    } else {
        const auto bundle = runner.guided_bundle(config.detector, p.scheme);
        res = evaluate_accuracy(platform, test_set, plan.eval_images, {&bundle->plan, 1},
                                config.fault_seed, nullptr, golden);
    }

    CampaignPoint point;
    point.accuracy = res.accuracy;
    point.faults = res.faults;
    point.images = res.images;
    return point_record(campaign_point_label(p), point);
}

CampaignPlanInfo plan_info(const CampaignPlan& plan) {
    CampaignPlanInfo info;
    info.detector_fired = plan.prof.detector_fired;
    info.trigger_sample = plan.prof.trigger_sample;
    info.eval_images = plan.eval_images;
    info.fingerprint = plan.fingerprint;
    info.segments = plan.prof.profile.segments;
    for (const PlannedCampaignPoint& p : plan.points) {
        CampaignPlanInfo::PointMeta meta;
        meta.target = p.label;
        meta.segment_index = p.segment_index;
        meta.strikes = p.scheme.num_strikes;
        meta.gap_cycles = p.scheme.gap_cycles;
        info.points.push_back(std::move(meta));
    }
    return info;
}

CampaignReport assemble_campaign_report(const CampaignPlanInfo& info,
                                        const std::vector<Json>& records) {
    expects(records.size() == info.record_count(),
            "assemble_campaign_report: one record slot per index");

    CampaignReport report;
    report.eval_images = info.eval_images;
    report.detector_fired = info.detector_fired;
    report.trigger_sample = info.trigger_sample;
    report.profile.segments = info.segments;

    bool any_missing = false;
    if (records[0].is_null()) {
        any_missing = true;
    } else {
        report.clean_accuracy =
            double_from_bits_hex(records[0].at("accuracy_bits").as_string());
    }
    for (std::size_t i = 0; i < info.points.size(); ++i) {
        const Json& rec = records[i + 1];
        if (rec.is_null()) {
            any_missing = true;
            continue;
        }
        const CampaignPlanInfo::PointMeta& meta = info.points[i];
        CampaignPoint point;
        point.target = meta.target;
        point.segment_index = meta.segment_index;
        point.strikes = meta.strikes;
        point.gap_cycles = meta.gap_cycles;
        point.accuracy = double_from_bits_hex(rec.at("accuracy_bits").as_string());
        point.faults.duplication = rec.at("duplication_faults").as_uint();
        point.faults.random = rec.at("random_faults").as_uint();
        point.images = rec.at("images").as_uint();
        report.points.push_back(std::move(point));
    }
    report.partial = any_missing;

    for (CampaignPoint& point : report.points) {
        point.drop = report.clean_accuracy - point.accuracy;
    }
    return report;
}

CampaignReport run_campaign(const Platform& platform, const data::Dataset& test_set,
                            const CampaignConfig& config, RunManifest* manifest) {
    trace::Span campaign_span("campaign", "campaign");

    const CampaignPlan plan = plan_campaign(platform, test_set, config);
    if (metrics::enabled()) {
        metrics::counter("campaign.points_planned", "points",
                         "attack points planned across campaigns")
            .add(plan.points.size());
    }

    SweepRunner runner(platform, RunnerConfig{config.threads});

    // One record slot per index (0 = clean baseline, 1 + i = planned[i]);
    // null = not completed. Restored and freshly-computed records are
    // indistinguishable by construction.
    std::vector<Json> records(plan.record_count());

    // Checkpoint journal: restored records keep their slots; only the
    // remainder becomes sweep tasks.
    std::unique_ptr<CheckpointJournal> journal;
    if (!config.journal_path.empty()) {
        if (config.resume) {
            journal = CheckpointJournal::resume(config.journal_path, plan.fingerprint,
                                                kJournalSweepName);
            for (const JournalRecord& rec : journal->recovered()) {
                check_recovered_record(plan, rec, records, config.journal_path);
                records[rec.index] = rec.payload;
            }
        } else {
            journal = CheckpointJournal::create(config.journal_path, plan.fingerprint,
                                                kJournalSweepName);
        }
    }
    std::size_t points_resumed = 0;
    for (const Json& rec : records) points_resumed += rec.is_null() ? 0 : 1;
    if (metrics::enabled() && points_resumed > 0) {
        metrics::counter("campaign.points_resumed", "points",
                         "campaign points restored from a journal")
            .add(points_resumed);
    }

    // Golden store: built once here, shared read-only by every record
    // below. Fault-free images resolve to cached labels; faulted ones
    // start from cached activations (see sim/golden_cache.hpp).
    const std::shared_ptr<const GoldenStore> golden =
        runner.golden_view(test_set, plan.eval_images);

    // Trace fill: every guided scheme and blind replay still to run is an
    // independent co-sim, so one prefetch fills them all in one batch of
    // SIMD lane groups over the workers; the tasks below then read the
    // stored bundles. Report bytes are identical with or without this (a
    // bundle not stored is filled alone, one point at a time).
    {
        std::vector<attack::AttackScheme> guided;
        std::vector<BlindRequest> blind;
        for (std::size_t idx = 1; idx < plan.record_count(); ++idx) {
            if (!records[idx].is_null()) continue;
            const PlannedCampaignPoint& p = plan.points[idx - 1];
            if (p.blind_offsets == 0) {
                guided.push_back(p.scheme);
            } else {
                blind.push_back({p.scheme, p.blind_offsets, config.blind_offset_seed});
            }
        }
        runner.prefetch(config.detector, guided, blind);
    }

    std::vector<SweepTask> tasks;
    tasks.reserve(plan.record_count());
    for (std::size_t idx = 0; idx < plan.record_count(); ++idx) {
        if (!records[idx].is_null()) continue;
        const std::string label =
            idx == 0 ? "clean baseline" : campaign_point_label(plan.points[idx - 1]);
        tasks.push_back({label, [&, idx] {
                             records[idx] = evaluate_campaign_record(
                                 platform, test_set, plan, runner, golden.get(), idx);
                             if (journal) journal->append(idx, records[idx]);
                         }});
    }

    RunManifest mf = runner.run("campaign", std::move(tasks));
    if (journal) {
        journal->flush();
        mf.journal = journal->path();
    }
    mf.points_resumed = points_resumed;

    CampaignReport report = assemble_campaign_report(plan_info(plan), records);
    if (manifest != nullptr) *manifest = std::move(mf);
    return report;
}

} // namespace deepstrike::sim
