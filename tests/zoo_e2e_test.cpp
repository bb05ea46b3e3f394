// Zoo end-to-end invariants: every non-LeNet victim runs the full guided
// campaign on its own accelerator profile, and the report bytes are
// invariant across worker thread counts — the same determinism contract
// the LeNet-5 campaign has always had. (Golden-store elision is checked
// against the per-op oracle on every victim in golden_cache_test.)
#include <gtest/gtest.h>

#include <set>
#include <string>

#include "accel/arch_profiles.hpp"
#include "nn/zoo.hpp"
#include "quant/qnetwork.hpp"
#include "sim/campaign.hpp"

namespace deepstrike {
namespace {

/// Quantized random-init instance of a zoo architecture. The campaign's
/// timing/power behaviour is weight-independent, so untrained weights
/// exercise exactly the code paths a trained victim would.
quant::QNetwork untrained_network(nn::Architecture arch) {
    Rng rng(2024);
    nn::Sequential model = nn::build_architecture(arch, rng);
    const nn::ArchitectureInfo& info = nn::architecture_info(arch);
    return quant::quantize_sequential(model, info.input_shape, {},
                                      quant::quant_format_for(arch));
}

sim::PlatformConfig platform_config(nn::Architecture arch) {
    sim::PlatformConfig cfg;
    cfg.accel = accel::accel_config_for(arch);
    return cfg;
}

sim::CampaignConfig tiny_config(std::size_t threads) {
    sim::CampaignConfig cfg;
    cfg.strike_grid = {300, 900};
    cfg.eval_images = 12;
    cfg.blind_offsets = 1;
    cfg.threads = threads;
    return cfg;
}

class ZooCampaign : public ::testing::TestWithParam<nn::Architecture> {};

TEST_P(ZooCampaign, ReportBytesInvariantAcrossThreadsAndGoldenCache) {
    const nn::Architecture arch = GetParam();
    sim::Platform platform(platform_config(arch), untrained_network(arch));
    const data::Dataset test = data::make_datasets(9, 1, 20).test;

    const sim::CampaignReport base = sim::run_campaign(platform, test, tiny_config(1));
    EXPECT_TRUE(base.detector_fired);
    EXPECT_FALSE(base.points.empty());
    const std::string bytes = base.to_json().dump();

    const std::string threaded =
        sim::run_campaign(platform, test, tiny_config(8)).to_json().dump();
    EXPECT_EQ(bytes, threaded) << "threads 1 vs 8 diverged for "
                               << nn::architecture_name(arch);
}

INSTANTIATE_TEST_SUITE_P(NonLenetVictims, ZooCampaign,
                         ::testing::Values(nn::Architecture::MiniCnn,
                                           nn::Architecture::Mlp,
                                           nn::Architecture::Bnn),
                         [](const ::testing::TestParamInfo<nn::Architecture>& info) {
                             return std::string(nn::architecture_name(info.param));
                         });

// Each victim deploys on its own accelerator build, so the TDC-visible
// schedule signature must differ per architecture (profiling one tenant
// teaches the attacker nothing about another).
TEST(ZooSchedules, ArchitecturesHaveDistinctScheduleSignatures) {
    std::set<std::size_t> total_cycles;
    for (const nn::ArchitectureInfo& info : nn::architectures()) {
        sim::Platform platform(platform_config(info.arch),
                               untrained_network(info.arch));
        total_cycles.insert(platform.engine().schedule().total_cycles);
    }
    EXPECT_EQ(total_cycles.size(), nn::architectures().size());
}

} // namespace
} // namespace deepstrike
