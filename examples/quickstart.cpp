// Quickstart: train (or load) the victim LeNet-5, quantize it to the
// accelerator's 8-bit fixed-point format, and run inference on the
// cycle-level DSP accelerator model.
//
//   $ ./quickstart
//
// This touches the three victim-side layers of the library — nn (float
// training), quant (bit-exact fixed point), accel (cycle-level engine) —
// without any attack machinery.
#include <cstdio>

#include "data/synth_mnist.hpp"
#include "nn/zoo.hpp"
#include "quant/qnetwork.hpp"
#include "sim/platform.hpp"
#include "util/log.hpp"

using namespace deepstrike;

int main() {
    Log::set_level(LogLevel::Info);

    // 1. Train once (cached under ./.deepstrike_cache afterwards).
    nn::ZooTrainSpec spec = nn::zoo_spec(nn::Architecture::LeNet5);
    spec.train_size = 3000;
    spec.test_size = 600;
    spec.train_config.epochs = 4;
    nn::TrainedModel trained = nn::train_or_load(spec);
    std::printf("float LeNet-5 test accuracy: %.2f%%%s\n",
                100.0 * trained.test_accuracy,
                trained.loaded_from_cache ? " (from cache)" : "");

    // 2. Post-training quantization to the paper's datatype: 8-bit fixed
    //    point, 3 integer bits (Q3.4), tanh via lookup table.
    const quant::QNetwork golden =
        quant::quantize_sequential(trained.model, Shape{1, 28, 28});
    const data::Dataset test = data::make_datasets(spec.data_seed, 1, spec.test_size).test;
    std::printf("quantized (Q3.4) accuracy:   %.2f%%\n",
                100.0 * golden.evaluate_accuracy(test));

    // 3. Deploy on the cycle-level accelerator model and classify a digit.
    sim::Platform platform(sim::PlatformConfig{}, golden);
    const data::Sample sample = data::render_sample(12345, 3);
    std::printf("\ninput digit (label %zu):\n%s", sample.label,
                data::ascii_art(sample.image).c_str());

    // A fault-free accelerator run outputs exactly the golden forward pass.
    const QTensor qimage = quant::quantize_image(sample.image);
    const QTensor logits = platform.engine().network().forward(qimage);
    std::printf("accelerator prediction: %zu  (logits:", argmax(logits));
    for (std::size_t i = 0; i < logits.size(); ++i) {
        std::printf(" %.2f", logits[i].to_real());
    }
    std::printf(")\n");

    // 4. The accelerator's execution schedule — the time structure the
    //    attack will later exploit.
    std::printf("\n%s", platform.engine().schedule().to_string(
                            platform.config().accel.fabric_clock_hz).c_str());
    return 0;
}
