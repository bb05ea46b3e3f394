// Shared setup for the figure/table reproduction benches.
//
// Every bench that needs the victim model calls trained_platform(), which
// trains LeNet-5 once (cached on disk under ./.deepstrike_cache) and wraps
// it in the standard PYNQ-Z1 platform configuration. CSV series are
// written under ./results/ so plots can be regenerated offline.
#pragma once

#include <cstdarg>
#include <cstdio>
#include <filesystem>
#include <string>

#include "accel/arch_profiles.hpp"
#include "nn/zoo.hpp"
#include "sim/experiment.hpp"
#include "sim/platform.hpp"
#include "util/csv.hpp"
#include "util/log.hpp"

namespace deepstrike::bench {

/// Training spec used by all benches (one shared weight cache): the
/// paper-scale LeNet-5 victim.
inline nn::ZooTrainSpec paper_train_spec() {
    nn::ZooTrainSpec spec = nn::zoo_spec(nn::Architecture::LeNet5);
    spec.data_seed = 42;
    spec.train_size = 4000;
    spec.test_size = 1000;
    spec.init_seed = 7;
    spec.train_config.epochs = 5;
    spec.train_config.batch_size = 16;
    return spec;
}

struct TrainedPlatform {
    nn::TrainedModel trained;
    quant::QNetwork qnet;
    sim::Platform platform;
    data::Dataset test_set;

    TrainedPlatform(nn::TrainedModel t, quant::QNetwork q, data::Dataset test)
        : trained(std::move(t)),
          qnet(q),
          platform(sim::PlatformConfig{}, std::move(q)),
          test_set(std::move(test)) {}
};

inline TrainedPlatform trained_platform() {
    const nn::ZooTrainSpec spec = paper_train_spec();
    std::printf("[setup] loading/training LeNet-5 (%zu train / %zu test, %zu epochs)...\n",
                spec.train_size, spec.test_size, spec.train_config.epochs);
    std::fflush(stdout);
    nn::TrainedModel trained = nn::train_or_load(spec);
    std::printf("[setup] float test accuracy: %.4f (%s)\n", trained.test_accuracy,
                trained.loaded_from_cache ? "cache" : "fresh training");
    const nn::ArchitectureInfo& info = nn::architecture_info(spec.architecture);
    quant::QNetwork qnet = quant::quantize_sequential(
        trained.model, info.input_shape, {}, quant::quant_format_for(spec.architecture));
    data::Dataset test = data::make_datasets(spec.data_seed, 1, spec.test_size).test;
    return TrainedPlatform(std::move(trained), std::move(qnet), std::move(test));
}

/// Opens results/<name>.csv (creating the directory).
inline CsvWriter open_csv(const std::string& name) {
    std::error_code ec;
    std::filesystem::create_directories("results", ec);
    const std::string path = "results/" + name;
    std::printf("[out] writing %s\n", path.c_str());
    return CsvWriter(path);
}

/// The paper-shape checks of one bench. check() prints one
/// "  <claim> : YES" (or NO) line, optionally followed by a printf-style
/// detail, and records a NO. main returns exit_code(), so a broken paper
/// claim fails the bench and every script that runs it.
class ShapeChecks {
public:
    void check(const char* claim, bool pass) { check(claim, pass, "%s", ""); }

    [[gnu::format(printf, 4, 5)]] void check(const char* claim, bool pass,
                                             const char* detail, ...) {
        char text[256];
        va_list args;
        va_start(args, detail);
        std::vsnprintf(text, sizeof(text), detail, args);
        va_end(args);
        std::printf("  %s : %s%s%s\n", claim, pass ? "YES" : "NO", text[0] ? " " : "",
                    text);
        if (!pass) ++failed_;
    }

    int exit_code() const {
        if (failed_ == 0) return 0;
        std::fprintf(stderr, "%zu paper-shape check(s) failed\n", failed_);
        return 1;
    }

private:
    std::size_t failed_ = 0;
};

inline void banner(const char* title) {
    std::printf("\n================================================================\n");
    std::printf("%s\n", title);
    std::printf("================================================================\n");
}

} // namespace deepstrike::bench
