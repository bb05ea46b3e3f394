// Custom victim network: shows that the whole pipeline — training,
// quantization, cycle-level deployment, side-channel profiling, attack —
// is architecture-agnostic.
//
// A downstream user defines any network from the supported layer set
// (Conv2d / MaxPool2d / Dense / tanh), and everything downstream works
// unchanged because the deployment artifact is a generic quant::QNetwork.
#include <cstdio>

#include "nn/zoo.hpp"
#include "quant/qnetwork.hpp"
#include "sim/experiment.hpp"
#include "util/log.hpp"

using namespace deepstrike;

int main() {
    Log::set_level(LogLevel::Info);

    // 1. Define + train a custom victim (here: a hand-rolled 3-conv-ish
    //    MiniCNN; build any Sequential you like).
    Rng init_rng(17);
    nn::Sequential model = nn::build_architecture(nn::Architecture::MiniCnn, init_rng);

    auto ds = data::make_datasets(55, 2500, 500);
    nn::TrainConfig train_cfg;
    train_cfg.epochs = 4;
    std::printf("training MiniCNN (%zu samples, %zu epochs)...\n", ds.train.size(),
                train_cfg.epochs);
    nn::train(model, ds.train, train_cfg);
    std::printf("float test accuracy: %.4f\n",
                nn::evaluate_accuracy(model, ds.test));

    // 2. Quantize to the accelerator datatype; labels are auto-generated.
    quant::QNetwork net = quant::quantize_sequential(model, Shape{1, 28, 28});
    std::printf("quantized accuracy:  %.4f (%zu parameters)\n",
                net.evaluate_accuracy(ds.test), net.parameter_count());

    // 3. Deploy on the platform and inspect the schedule the attacker will
    //    see through the side channel.
    sim::Platform platform(sim::PlatformConfig{}, std::move(net));
    std::printf("\n%s", platform.engine().schedule().to_string(
                            platform.config().accel.fabric_clock_hz).c_str());

    // 4. Attack it: profile, target the deepest conv segment, strike.
    const sim::ProfilingRun prof = sim::run_profiling(platform);
    std::printf("\nside-channel profile:\n%s", prof.profile.to_string().c_str());

    const attack::ProfiledSegment* target = nullptr;
    for (const auto& seg : prof.profile.segments) {
        if (seg.guess == attack::LayerClass::Convolution &&
            (target == nullptr || seg.duration_samples() > target->duration_samples())) {
            target = &seg;
        }
    }
    if (target == nullptr || !prof.detector_fired) {
        std::printf("no convolution segment found to target\n");
        return 1;
    }

    const std::size_t strikes = target->duration_samples() / 4;
    const attack::AttackScheme scheme = attack::plan_attack(
        *target, prof.trigger_sample, platform.config().samples_per_cycle(), strikes);
    const accel::VoltageTrace trace =
        sim::guided_attack_trace(platform, attack::DetectorConfig{}, scheme);
    const accel::OverlayPlan plan = platform.engine().plan_overlay(&trace);

    const sim::AccuracyResult clean = sim::evaluate_accuracy(platform, ds.test, 300, {}, 5);
    const sim::AccuracyResult attacked =
        sim::evaluate_accuracy(platform, ds.test, 300, {&plan, 1}, 5);

    std::printf("\nattack on the custom network (%zu strikes on the longest conv):\n",
                strikes);
    std::printf("  clean accelerator accuracy : %.4f\n", clean.accuracy);
    std::printf("  under attack               : %.4f (drop %.2f%%)\n",
                attacked.accuracy, 100.0 * (clean.accuracy - attacked.accuracy));
    std::printf("  faults: %zu duplication + %zu random over %zu images\n",
                attacked.faults.duplication, attacked.faults.random, attacked.images);
    return 0;
}
