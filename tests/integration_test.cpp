// End-to-end integration tests: the full DeepStrike flow on the simulated
// cloud-FPGA, exercising every module together exactly as the examples and
// benches do (but at reduced scale for test time).
#include <gtest/gtest.h>

#include "accel/arch_profiles.hpp"
#include "fabric/drc.hpp"
#include "fabric/resources.hpp"
#include "attack/scheme_file.hpp"
#include "sim/experiment.hpp"
#include "striker/striker.hpp"
#include "tdc/netlist_builder.hpp"
#include "test_helpers.hpp"

namespace deepstrike {
namespace {

using testing::random_qnetwork;
using testing::run_engine;

class IntegrationTest : public ::testing::Test {
protected:
    static void SetUpTestSuite() {
        platform_ = new sim::Platform(sim::PlatformConfig{}, random_qnetwork(99));
        dataset_ = new data::Dataset(data::make_datasets(7, 1, 60).test);
        profiling_ = new sim::ProfilingRun(sim::run_profiling(*platform_));
    }
    static void TearDownTestSuite() {
        delete profiling_;
        delete dataset_;
        delete platform_;
        profiling_ = nullptr;
        dataset_ = nullptr;
        platform_ = nullptr;
    }

    static sim::Platform* platform_;
    static data::Dataset* dataset_;
    static sim::ProfilingRun* profiling_;
};

sim::Platform* IntegrationTest::platform_ = nullptr;
data::Dataset* IntegrationTest::dataset_ = nullptr;
sim::ProfilingRun* IntegrationTest::profiling_ = nullptr;

TEST_F(IntegrationTest, ProfilerRecoversTheFullLayerSchedule) {
    ASSERT_TRUE(profiling_->detector_fired);
    ASSERT_EQ(profiling_->profile.segments.size(), 5u);

    const auto& sched = platform_->engine().schedule();
    const std::array<const char*, 5> labels = {"CONV1", "POOL1", "CONV2", "FC1",
                                               "FC2"};
    for (std::size_t i = 0; i < labels.size(); ++i) {
        const auto& seg = sched.segment_for(labels[i]);
        const auto& found = profiling_->profile.segments[i];
        // Profiled boundaries within 300 TDC samples (150 cycles) of truth.
        EXPECT_NEAR(static_cast<double>(found.start_sample),
                    static_cast<double>(seg.start_cycle * 2), 300.0)
            << labels[i];
        EXPECT_NEAR(static_cast<double>(found.end_sample),
                    static_cast<double>(seg.end_cycle() * 2), 300.0)
            << labels[i];
    }
}

TEST_F(IntegrationTest, GuidedAttackFaultsOnlyTheTargetLayer) {
    const auto& target = profiling_->profile.segments[2]; // conv2
    const attack::AttackScheme scheme =
        attack::plan_attack(target, profiling_->trigger_sample, 2.0, 300);
    const accel::VoltageTrace trace =
        sim::guided_attack_trace(*platform_, attack::DetectorConfig{}, scheme);

    Rng rng(5);
    const QTensor img = quant::quantize_image(dataset_->images[0]);
    const accel::RunResult run = run_engine(platform_->engine(), img, &trace, rng);
    EXPECT_GT(run.faults_total.total(), 0u);
    EXPECT_EQ(run.faults_total.total(),
              testing::layer_faults(platform_->engine().network(), run, "CONV2").total());
}

TEST_F(IntegrationTest, GuidedBeatsBlindAtEqualIntensity) {
    // Same number of strikes; guided targets conv2, blind sprays randomly.
    const std::size_t strikes = 800;
    const auto& target = profiling_->profile.segments[2];
    const attack::AttackScheme guided_scheme =
        attack::plan_attack(target, profiling_->trigger_sample, 2.0, strikes);
    const accel::VoltageTrace guided =
        sim::guided_attack_trace(*platform_, attack::DetectorConfig{}, guided_scheme);

    attack::AttackScheme blind_scheme;
    blind_scheme.num_strikes = strikes;
    blind_scheme.gap_cycles =
        platform_->engine().schedule().total_cycles / strikes - 1;
    const auto blind = sim::blind_attack_traces(*platform_, blind_scheme, 6, 11);

    const accel::OverlayPlan guided_plan = platform_->engine().plan_overlay(&guided);
    const sim::AccuracyResult g =
        sim::evaluate_accuracy(*platform_, *dataset_, 40, {&guided_plan, 1}, 3);
    const sim::AccuracyResult b = sim::evaluate_accuracy(
        *platform_, *dataset_, 40, testing::plans_of(platform_->engine(), blind), 3);

    // The guided attack concentrates its faults in the most vulnerable
    // layer; it must inject strictly more conv faults than the blind one.
    EXPECT_GT(g.faults.total(), b.faults.total());
}

TEST_F(IntegrationTest, FcDuplicationFaultsAreAbsorbed) {
    // Strike FC1 and CONV2 with equal counts: FC1 sees (mostly duplication)
    // faults yet flips far fewer predictions — the paper's absorption
    // argument (Sec. IV-A).
    const std::size_t strikes = 600;
    const auto& conv2 = profiling_->profile.segments[2];
    const auto& fc1 = profiling_->profile.segments[3];

    const accel::VoltageTrace conv_trace = sim::guided_attack_trace(
        *platform_, {},
        attack::plan_attack(conv2, profiling_->trigger_sample, 2.0, strikes));
    const accel::VoltageTrace fc_trace = sim::guided_attack_trace(
        *platform_, {},
        attack::plan_attack(fc1, profiling_->trigger_sample, 2.0, strikes));

    const quant::QNetwork& golden = platform_->engine().network();
    std::size_t conv_flips = 0;
    std::size_t fc_flips = 0;
    std::size_t fc_faults = 0;
    for (std::size_t i = 0; i < 40; ++i) {
        const QTensor img = quant::quantize_image(dataset_->images[i]);
        const std::size_t truth = golden.predict(dataset_->images[i]);
        Rng rng_a(100 + i);
        Rng rng_b(200 + i);
        const accel::AccelEngine& engine = platform_->engine();
        const accel::RunResult rc = run_engine(engine, img, &conv_trace, rng_a);
        const accel::RunResult rf = run_engine(engine, img, &fc_trace, rng_b);
        conv_flips += rc.predicted != truth;
        fc_flips += rf.predicted != truth;
        fc_faults += rf.faults_total.total();
        // FC faults, when they occur, must be dominated by duplications.
        EXPECT_GE(rf.faults_total.duplication, rf.faults_total.random);
    }
    EXPECT_GE(conv_flips, fc_flips);
    (void)fc_faults;
}

TEST_F(IntegrationTest, PoolAttackIsHarmless) {
    const auto& pool = profiling_->profile.segments[1];
    const std::size_t strikes = std::min<std::size_t>(150, pool.duration_samples() / 4);
    const accel::VoltageTrace trace = sim::guided_attack_trace(
        *platform_, {},
        attack::plan_attack(pool, profiling_->trigger_sample, 2.0, strikes));

    const accel::OverlayPlan plan = platform_->engine().plan_overlay(&trace);
    const sim::AccuracyResult attacked =
        sim::evaluate_accuracy(*platform_, *dataset_, 40, {&plan, 1}, 3);
    const sim::AccuracyResult clean = sim::evaluate_accuracy(*platform_, *dataset_, 40, {}, 3);
    EXPECT_EQ(attacked.faults.total(), 0u);
    EXPECT_DOUBLE_EQ(attacked.accuracy, clean.accuracy);
}

TEST_F(IntegrationTest, RemoteHostDrivesTheWholeAttack) {
    // The adversary's host plans the strike and writes the attacking scheme
    // file; the on-chip controller is built from the parsed file, the
    // co-sim runs one victim inference under it, and the readouts captured
    // during that inference still profile the victim.
    const auto& target = profiling_->profile.segments[2];
    const attack::AttackScheme scheme =
        attack::plan_attack(target, profiling_->trigger_sample, 2.0, 250);
    const attack::AttackScheme loaded =
        attack::parse_scheme_file(attack::write_scheme_file(scheme, "conv2 strike"));
    EXPECT_EQ(loaded.attack_delay_cycles, scheme.attack_delay_cycles);
    EXPECT_EQ(loaded.strike_cycles, scheme.strike_cycles);
    EXPECT_EQ(loaded.gap_cycles, scheme.gap_cycles);
    EXPECT_EQ(loaded.num_strikes, scheme.num_strikes);

    attack::AttackController controller(attack::DetectorConfig{}, loaded);
    sim::GuidedSource source(controller);
    const sim::CosimResult cosim = platform_->simulate_inference(source);
    EXPECT_TRUE(controller.triggered());
    EXPECT_EQ(cosim.strike_cycles, 250u);

    const attack::Profile profile = attack::profile_trace(cosim.tdc_readouts);
    EXPECT_GE(profile.segments.size(), 4u);
}

TEST_F(IntegrationTest, HypervisorComposesTenantsAndDrcGates) {
    // The cloud flow of Sec. IV: tenants are merged into one bitstream;
    // the hypervisor's DRC admits the TDC+striker attacker but rejects a
    // ring-oscillator attacker.
    fabric::Netlist bitstream("cloud_fpga");
    bitstream.merge(tdc::build_tdc_netlist(platform_->config().tdc), "attacker_tdc_");
    bitstream.merge(striker::build_striker_netlist(512), "attacker_striker_");
    EXPECT_TRUE(fabric::run_drc(bitstream)
                    .count(fabric::DrcRule::CombinationalLoop) == 0);

    fabric::Netlist bad("cloud_fpga_bad");
    bad.merge(striker::build_ro_netlist(64), "attacker_ro_");
    EXPECT_GT(fabric::run_drc(bad).count(fabric::DrcRule::CombinationalLoop), 0u);

    // Resource sanity: full attacker complement fits the PYNQ-Z1.
    const auto util = fabric::utilization(bitstream, fabric::DeviceModel::pynq_z1());
    EXPECT_TRUE(util.fits());
}

TEST_F(IntegrationTest, TrainedModelReachesPaperAccuracyBand) {
    // Small training run; the quantized accelerator model must land in a
    // high-accuracy band (the paper reports 96.17% on the FPGA at larger
    // training scale).
    nn::ZooTrainSpec spec = nn::zoo_spec(nn::Architecture::LeNet5);
    spec.train_size = 1200;
    spec.test_size = 250;
    spec.train_config.epochs = 3;
    spec.cache_dir = std::string(::testing::TempDir()) + "ds_integration_cache";
    nn::TrainedModel trained = nn::train_or_load(spec);
    EXPECT_GT(trained.test_accuracy, 0.90);

    const nn::ArchitectureInfo& info = nn::architecture_info(spec.architecture);
    const quant::QNetwork qnet = quant::quantize_sequential(
        trained.model, info.input_shape, {}, quant::quant_format_for(spec.architecture));
    const auto ds = data::make_datasets(spec.data_seed, 1, 250);
    const double qacc = qnet.evaluate_accuracy(ds.test);
    EXPECT_GT(qacc, 0.88);
    EXPECT_NEAR(qacc, trained.test_accuracy, 0.08);
}

} // namespace
} // namespace deepstrike
