// Fig. 3: input of the DNN start detector.
//
// The detector taps one bit from each of five zones of the 128-bit TDC
// output and watches the Hamming weight: ~4 at idle, dropping to 3 when
// the first layer (the paper's "start point") begins executing. This
// bench co-simulates one un-attacked LeNet-5 inference on the trained
// victim and records the tap Hamming weight per TDC sample, plus where
// the purified detector actually fires.
#include <cstdio>
#include <vector>

#include "attack/detector.hpp"
#include "bench_common.hpp"
#include "util/stats.hpp"

using namespace deepstrike;

namespace {

/// Observer that records the detector-tap Hamming weight of every sample.
class TapRecorder final : public sim::StrikeSource {
public:
    explicit TapRecorder(attack::DnnStartDetector& detector) : detector_(detector) {}

    bool strike_bit(std::size_t) override { return false; }
    void on_tdc_sample(const tdc::TdcSample& sample) override {
        weights.push_back(detector_.tap_hamming_weight(sample));
        detector_.on_sample(sample);
    }

    std::vector<std::uint8_t> weights;

private:
    attack::DnnStartDetector& detector_;
};

} // namespace

int main() {
    bench::banner("Fig. 3 - DNN start detector input (5-zone tap Hamming weight)");
    bench::TrainedPlatform tp = bench::trained_platform();

    const attack::DetectorConfig dcfg{};
    std::printf("zone taps: {%zu, %zu, %zu, %zu, %zu}, trigger HW <= %u held for %zu "
                "samples\n",
                dcfg.zone_bits[0], dcfg.zone_bits[1], dcfg.zone_bits[2],
                dcfg.zone_bits[3], dcfg.zone_bits[4], dcfg.trigger_hw,
                dcfg.hold_samples);

    attack::DnnStartDetector detector(dcfg);
    TapRecorder recorder(detector);
    tp.platform.simulate_inference(recorder);

    CsvWriter csv = bench::open_csv("fig3_start_detector.csv");
    csv.row("sample", "tap_hamming_weight");
    for (std::size_t i = 0; i < recorder.weights.size(); i += 4) {
        csv.row(i, static_cast<int>(recorder.weights[i]));
    }

    // Summaries per schedule region.
    const auto& sched = tp.platform.engine().schedule();
    const std::size_t conv1_start = sched.segment_for("CONV1").start_cycle * 2;

    IndexCounter idle_hw;
    IndexCounter active_hw;
    for (std::size_t i = 0; i < recorder.weights.size(); ++i) {
        (i < conv1_start ? idle_hw : active_hw).add(recorder.weights[i]);
    }

    auto print_hist = [](const char* name, const IndexCounter& counter) {
        std::printf("%-22s", name);
        for (std::size_t hw = 0; hw <= 5; ++hw) {
            std::printf(" HW=%zu:%5.1f%%", hw,
                        100.0 * static_cast<double>(counter.count(hw)) /
                            static_cast<double>(counter.total()));
        }
        std::printf("\n");
    };
    print_hist("before CONV1 (idle):", idle_hw);
    print_hist("during execution:", active_hw);

    std::printf("\ndetector fired: %s\n", detector.triggered() ? "YES" : "NO");
    if (detector.triggered()) {
        std::printf("trigger sample: %zu (CONV1 starts at sample %zu; latency %.1f "
                    "fabric cycles)\n",
                    detector.trigger_sample(), conv1_start,
                    (static_cast<double>(detector.trigger_sample()) -
                     static_cast<double>(conv1_start)) /
                        2.0);
    }
    std::printf("\npaper-shape checks:\n");
    bench::ShapeChecks checks;
    checks.check("idle mode HW==4, start point HW==3",
                 idle_hw.argmax() == 4 && detector.triggered());
    return checks.exit_code();
}
