// Extension (paper Sec. V future work): more DNN architectures.
//
// Runs the full DeepStrike pipeline — profile through the TDC, plan, strike
// — against three victims built from the same layer set: the paper's
// LeNet-5, a deeper MiniCNN (two pooling stages), and a conv-free MLP.
// Reports each architecture's per-layer vulnerability. The expectation
// from the paper's analysis: convolution layers on the tight DDR datapath
// dominate the attack surface; the MLP (FC-only, more sign-off slack plus
// duplication absorption) is markedly harder to damage.
#include <cstdio>
#include <vector>

#include "bench_common.hpp"
#include "nn/zoo.hpp"
#include "quant/qnetwork.hpp"
#include "sim/runner.hpp"

using namespace deepstrike;

int main() {
    bench::banner("Extension: attack sensitivity across DNN architectures");

    CsvWriter csv = bench::open_csv("ext_arch_sensitivity.csv");
    csv.row("architecture", "clean_accuracy", "target", "strikes", "accuracy", "drop");

    const std::size_t kEvalImages = 150;

    for (auto arch : {nn::Architecture::LeNet5, nn::Architecture::MiniCnn,
                      nn::Architecture::Mlp}) {
        nn::ZooTrainSpec spec;
        spec.architecture = arch;
        nn::TrainedModel trained = nn::train_or_load(spec);

        quant::QNetwork net =
            quant::quantize_sequential(trained.model, Shape{1, 28, 28});
        sim::Platform platform(sim::PlatformConfig{}, std::move(net));
        const data::Dataset test =
            data::make_datasets(spec.data_seed, 1, spec.test_size).test;

        const sim::AccuracyResult clean =
            sim::evaluate_accuracy(platform, test, kEvalImages, {}, 8);
        std::printf("\n%s: float acc %.4f, accelerator clean acc %.4f, %zu cycles\n",
                    nn::architecture_name(arch), trained.test_accuracy, clean.accuracy,
                    platform.engine().schedule().total_cycles);

        const sim::ProfilingRun prof = sim::run_profiling(platform);
        std::printf("  profiled %zu segments (trigger %s)\n",
                    prof.profile.segments.size(),
                    prof.detector_fired ? "fired" : "DID NOT FIRE");
        if (!prof.detector_fired || prof.profile.segments.empty()) {
            std::printf("  side channel too weak to guide the attack on this victim\n");
            csv.row(nn::architecture_name(arch), clean.accuracy, "-", 0, clean.accuracy,
                    0.0);
            continue;
        }

        std::printf("  %-10s %8s %10s %10s\n", "target", "strikes", "accuracy", "drop");

        // One sweep point per profiled segment: the runner fills every
        // point's trace and overlay plan in one batch, then evaluates the
        // points in parallel.
        struct SegPoint {
            std::string label;
            std::size_t strikes = 0;
            attack::AttackScheme scheme;
            sim::AccuracyResult result;
            bool skipped = true;
        };
        std::vector<SegPoint> points(prof.profile.segments.size());
        sim::SweepRunner runner(platform);
        std::vector<attack::AttackScheme> schemes;
        std::vector<sim::SweepTask> tasks;
        for (std::size_t si = 0; si < prof.profile.segments.size(); ++si) {
            const auto& seg = prof.profile.segments[si];
            points[si].label = std::string(attack::layer_class_name(seg.guess)) +
                               "#" + std::to_string(si);
            points[si].strikes =
                std::min<std::size_t>(4500, seg.duration_samples() / 4);
            if (points[si].strikes == 0) continue;
            points[si].scheme =
                attack::plan_attack(seg, prof.trigger_sample,
                                    platform.config().samples_per_cycle(), points[si].strikes);
            schemes.push_back(points[si].scheme);
            tasks.push_back({points[si].label, [&, si] {
                const auto bundle =
                    runner.guided_bundle(attack::DetectorConfig{}, points[si].scheme);
                points[si].result =
                    sim::evaluate_accuracy(platform, test, kEvalImages, {&bundle->plan, 1}, 8);
                points[si].skipped = false;
            }});
        }
        runner.prefetch(attack::DetectorConfig{}, schemes, {});
        runner.run(std::string("arch_sensitivity/") + nn::architecture_name(arch),
                   std::move(tasks));

        double worst_drop = 0.0;
        std::string worst_label = "-";
        for (const SegPoint& p : points) {
            if (p.skipped) continue;
            const double drop = clean.accuracy - p.result.accuracy;
            std::printf("  %-10s %8zu %10.4f %+10.4f\n", p.label.c_str(), p.strikes,
                        p.result.accuracy, -drop);
            csv.row(nn::architecture_name(arch), clean.accuracy, p.label, p.strikes,
                    p.result.accuracy, drop);
            if (drop > worst_drop) {
                worst_drop = drop;
                worst_label = p.label;
            }
        }
        std::printf("  most vulnerable: %s (drop %.1f%%)\n", worst_label.c_str(),
                    100.0 * worst_drop);
    }

    std::printf("\nreading: the attack generalizes beyond LeNet-5 wherever the TDC\n"
                "can segment the execution; conv-heavy victims lose the most\n"
                "accuracy, while the FC-only MLP's relaxed datapath and long\n"
                "accumulations absorb nearly everything.\n");
    return 0;
}
