// Fig. 5(b): LeNet-5/MNIST testing accuracy vs. number of power strikes,
// per targeted layer, with the blind (non-TDC-guided) baseline.
//
// Flow per the paper: profile the victim once through the TDC side
// channel, plan an attacking scheme per (layer, strike count), replay it
// through the DNN-start-detector-triggered signal RAM, and measure test
// accuracy on the accelerator under the injected faults. Strikes last one
// fabric cycle (10 ns); the maximum number of strikes per layer is bounded
// by the layer's execution length, as in the paper.
//
// The whole sweep runs through sim::run_campaign on the parallel
// SweepRunner core; the printed table is a view of the campaign report.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <vector>

#include "bench_common.hpp"
#include "sim/campaign.hpp"

using namespace deepstrike;

int main() {
    bench::banner("Fig. 5(b) - testing accuracy vs. number of strikes per layer");
    bench::TrainedPlatform tp = bench::trained_platform();

    sim::CampaignConfig cfg;
    cfg.strike_grid = {500, 1000, 2000, 3000, 4500};
    cfg.eval_images = 300;
    cfg.fault_seed = 2468;
    cfg.blind_offsets = 10;
    cfg.blind_offset_seed = 777;
    // Opt-in checkpoint journaling (DS_JOURNAL=<path> [DS_RESUME=1]): the
    // sweep is crash-safe and an interrupted run picks up where it left
    // off. Off by default; the report bytes are identical either way.
    if (const char* journal = std::getenv("DS_JOURNAL")) {
        cfg.journal_path = journal;
        cfg.resume = std::getenv("DS_RESUME") != nullptr;
    }

    sim::RunManifest manifest;
    const sim::CampaignReport report =
        sim::run_campaign(tp.platform, tp.test_set, cfg, &manifest);

    std::printf("untampered accelerator accuracy: %.4f (%zu images)\n",
                report.clean_accuracy, report.eval_images);
    if (!report.detector_fired || report.profile.segments.size() < 5) {
        std::printf("ERROR: profiling failed (%zu segments)\n",
                    report.profile.segments.size());
        return 1;
    }
    std::printf("\nside-channel profile (trigger at sample %zu):\n%s\n",
                report.trigger_sample, report.profile.to_string().c_str());

    const char* layer_names[5] = {"CONV1", "POOL1", "CONV2", "FC1", "FC2"};

    CsvWriter csv = bench::open_csv("fig5b_accuracy_vs_strikes.csv");
    csv.row("target", "strikes", "accuracy", "accuracy_drop", "dup_faults_per_image",
            "random_faults_per_image");

    std::printf("%-8s %8s %6s %10s %10s %12s %12s\n", "target", "strikes", "gap",
                "accuracy", "drop", "dup/img", "rand/img");

    double conv2_max_drop = 0.0;
    double best_drop = 0.0;
    std::string best_layer;

    for (const sim::CampaignPoint& p : report.points) {
        const char* label = "BLIND";
        if (!p.is_blind()) {
            if (*p.segment_index >= 5) continue;
            label = layer_names[*p.segment_index];
        }
        const double dup_per_img =
            static_cast<double>(p.faults.duplication) / static_cast<double>(p.images);
        const double rand_per_img =
            static_cast<double>(p.faults.random) / static_cast<double>(p.images);
        std::printf("%-8s %8zu %6zu %10.4f %+10.4f %12.1f %12.2f\n", label,
                    p.strikes, p.gap_cycles, p.accuracy, -p.drop, dup_per_img,
                    rand_per_img);
        csv.row(label, p.strikes, p.accuracy, p.drop, dup_per_img, rand_per_img);

        if (p.is_blind()) continue;
        if (*p.segment_index == 2) conv2_max_drop = std::max(conv2_max_drop, p.drop);
        if (p.drop > best_drop) {
            best_drop = p.drop;
            best_layer = label;
        }
    }

    std::printf("\nsweep: %zu points in %.2fs on %zu threads\n",
                manifest.points.size(), manifest.total_seconds, manifest.threads);
    if (manifest.points_resumed > 0) {
        std::printf("resumed: %zu points restored from %s\n",
                    manifest.points_resumed, manifest.journal.c_str());
    }

    std::printf("\npaper-shape checks:\n");
    bench::ShapeChecks checks;
    checks.check("CONV2 is the most fault-sensitive layer", best_layer == "CONV2",
                 "(max drop %.1f%% on %s)", 100.0 * best_drop, best_layer.c_str());
    std::printf("  CONV2 max accuracy drop (paper: ~14%%)   : %.1f%%\n",
                100.0 * conv2_max_drop);
    return checks.exit_code();
}
