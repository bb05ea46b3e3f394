// End-to-end DeepStrike attack, exactly as the paper stages it (Sec. IV):
//
//   1. The adversary profiles a normal victim inference through the TDC
//      sensor; the DNN start detector marks where the inference began.
//   2. Offline, the host segments the trace, identifies the most
//      vulnerable layer (CONV2), and compiles an attacking scheme file.
//   3. The scheme file is the only thing the host hands the device: read
//      back, it loads the on-chip controller's signal RAM.
//   4. On the next inference, the DNN start detector fires and the signal
//      RAM replays the strike schedule into the power striker.
//   5. The host evaluates the damage: misclassifications on the test set.
#include <algorithm>
#include <cstdio>
#include <string>

#include "attack/controller.hpp"
#include "attack/scheme_file.hpp"
#include "nn/zoo.hpp"
#include "quant/qnetwork.hpp"
#include "sim/experiment.hpp"
#include "util/log.hpp"

using namespace deepstrike;

int main() {
    Log::set_level(LogLevel::Info);

    // --- Victim deployment (what the adversary does NOT control) --------
    nn::ZooTrainSpec spec = nn::zoo_spec(nn::Architecture::LeNet5);
    spec.train_size = 3000;
    spec.test_size = 600;
    spec.train_config.epochs = 4;
    nn::TrainedModel trained = nn::train_or_load(spec);
    sim::Platform platform(sim::PlatformConfig{}, quant::quantize_sequential(trained.model, Shape{1, 28, 28}));
    const data::Dataset test = data::make_datasets(spec.data_seed, 1, 600).test;

    // Step 1: profile a victim inference through the side channel.
    std::printf("[1] profiling victim inference through the TDC sensor...\n");
    const sim::ProfilingRun profiling = sim::run_profiling(platform);
    if (!profiling.detector_fired) {
        std::printf("DNN start detector never fired; aborting\n");
        return 1;
    }
    std::printf("    captured %zu TDC readouts, detector fired at sample %zu\n",
                profiling.cosim.tdc_readouts.size(), profiling.trigger_sample);

    // Step 2: offline analysis on the host.
    std::printf("[2] host-side analysis:\n%s", profiling.profile.to_string().c_str());

    // Pick the target: the longest *convolution* segment (CONV2) — the
    // paper's most fault-sensitive layer.
    const attack::ProfiledSegment* target = nullptr;
    for (const auto& seg : profiling.profile.segments) {
        if (seg.guess == attack::LayerClass::Convolution &&
            (target == nullptr || seg.duration_samples() > target->duration_samples())) {
            target = &seg;
        }
    }
    if (target == nullptr) {
        std::printf("no convolution segment found; aborting\n");
        return 1;
    }

    // The detector's trigger timestamp during profiling anchors the delays.
    const std::size_t strikes = 4500;
    const attack::AttackScheme planned = attack::plan_attack(
        *target, profiling.trigger_sample, platform.config().samples_per_cycle(), strikes);
    const std::string scheme_file =
        attack::write_scheme_file(planned, "target: longest conv segment");
    std::printf("[3] compiled attacking scheme file:\n%s", scheme_file.c_str());

    // Step 3: the device reads the file back and loads its signal RAM.
    const attack::AttackScheme scheme = attack::parse_scheme_file(scheme_file);
    attack::AttackController controller(attack::DetectorConfig{}, scheme);
    std::printf("    loaded into the signal RAM: %zu of %zu bits\n",
                controller.signal_ram().contents().size(),
                controller.signal_ram().capacity_bits());

    // Step 4: the victim runs; the detector triggers; strikes land.
    std::printf("[4] victim inference under attack...\n");
    sim::GuidedSource source(controller);
    const sim::CosimResult attacked = platform.simulate_inference(source);
    std::printf("    %zu strike cycles fired, deepest droop %.1f mV\n",
                attacked.strike_cycles,
                1000.0 * (1.0 - *std::min_element(attacked.capture_v.begin(),
                                                  attacked.capture_v.end())));

    // Step 5: damage assessment over the test set (co-sim trace reused —
    // the schedule is data-independent).
    std::printf("[5] evaluating on %zu test images...\n", test.size());
    const sim::AccuracyResult clean =
        sim::evaluate_accuracy(platform, test, test.size(), nullptr, 1);
    const sim::AccuracyResult under_attack =
        sim::evaluate_accuracy(platform, test, test.size(), &attacked.capture_v, 1);

    std::printf("\nresults:\n");
    std::printf("  untampered accuracy : %.2f%%\n", 100.0 * clean.accuracy);
    std::printf("  under DeepStrike    : %.2f%%  (drop %.2f%%)\n",
                100.0 * under_attack.accuracy,
                100.0 * (clean.accuracy - under_attack.accuracy));
    std::printf("  faults injected     : %zu duplication + %zu random per %zu images\n",
                under_attack.faults.duplication, under_attack.faults.random,
                under_attack.images);
    return 0;
}
