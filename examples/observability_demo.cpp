// Observability demo: run one guided campaign point with both sinks live,
// then read the story back out of the metrics registry and the trace.
//
//   $ ./observability_demo
//
// Writes observability_metrics.json (the full metric snapshot) and
// observability_trace.json (Chrome trace-event format — drag into
// https://ui.perfetto.dev), and prints the top-5 longest spans plus a
// summary of the detector trigger-latency histogram. The walkthrough in
// docs/observability.md uses this program's outputs.
#include <algorithm>
#include <cstdio>
#include <vector>

#include "sim/campaign.hpp"
#include "sim/runner.hpp"
#include "util/log.hpp"
#include "util/metrics.hpp"
#include "util/rng.hpp"
#include "util/trace.hpp"

using namespace deepstrike;

namespace {

// Untrained-but-plausible weights: the electrical/timing story this demo
// observes is identical for a trained network, and skipping training keeps
// the demo instant.
quant::QNetwork demo_qweights(std::uint64_t seed) {
    Rng rng(seed);
    const auto t = [&rng](Shape shape, double max_real) {
        QTensor q(shape);
        for (std::size_t i = 0; i < q.size(); ++i) {
            q.at_unchecked(i) = fx::Q3_4::from_real(rng.uniform(-max_real, max_real));
        }
        return q;
    };
    using quant::Activation;
    using quant::QLayerKind;
    quant::QNetwork net;
    net.input_shape = Shape{1, 28, 28};
    net.layers.emplace_back(QLayerKind::Conv, "CONV1", t(Shape{6, 1, 5, 5}, 0.5),
                            t(Shape{6}, 0.25), Activation::Tanh);
    net.layers.emplace_back(QLayerKind::Pool2, "POOL1", QTensor(), QTensor());
    net.layers.emplace_back(QLayerKind::Conv, "CONV2", t(Shape{16, 6, 5, 5}, 0.35),
                            t(Shape{16}, 0.25), Activation::Tanh);
    net.layers.emplace_back(QLayerKind::Dense, "FC1", t(Shape{120, 1024}, 0.2),
                            t(Shape{120}, 0.25), Activation::Tanh);
    net.layers.emplace_back(QLayerKind::Dense, "FC2", t(Shape{10, 120}, 0.3),
                            t(Shape{10}, 0.25), Activation::None);
    return net;
}

} // namespace

int main() {
    Log::set_level(LogLevel::Info);

    // Both sinks on — exactly what `--metrics-out`/`--trace-out` do.
    metrics::set_enabled(true);
    trace::set_enabled(true);
    trace::set_thread_name("main");

    // One guided campaign point: profile the victim through the TDC, strike
    // the most damaging conv segment, evaluate accuracy under attack.
    sim::Platform platform(sim::PlatformConfig{}, demo_qweights(61));
    const data::Dataset test = data::make_datasets(9, 1, 40).test;
    sim::CampaignConfig cfg;
    cfg.strike_grid = {900};
    cfg.eval_images = 25;
    cfg.blind_offsets = 0;

    sim::RunManifest manifest;
    const sim::CampaignReport report =
        sim::run_campaign(platform, test, cfg, &manifest);
    manifest.metrics_out = "observability_metrics.json";
    manifest.trace_out = "observability_trace.json";

    std::printf("clean accuracy %.3f; %zu attack points", report.clean_accuracy,
                report.points.size());
    if (const sim::CampaignPoint* worst = report.most_damaging()) {
        std::printf("; most damaging %s x%zu (drop %.3f)", worst->target.c_str(),
                    worst->strikes, worst->drop);
    }
    std::printf("\n\n");

    // ---- top-5 spans by duration -------------------------------------
    std::vector<trace::Event> events = trace::events();
    std::stable_sort(events.begin(), events.end(),
                     [](const trace::Event& a, const trace::Event& b) {
                         return a.duration_us > b.duration_us;
                     });
    std::printf("top spans by wall time:\n");
    std::printf("  %-28s %8s %12s %6s\n", "span", "lane", "duration", "");
    std::size_t shown = 0;
    for (const trace::Event& e : events) {
        if (e.instant) continue;
        std::printf("  %-28s %8u %9.3f ms\n", e.name.c_str(), e.tid,
                    e.duration_us / 1000.0);
        if (++shown == 5) break;
    }

    // ---- detector trigger latency ------------------------------------
    const metrics::MetricsSnapshot snap = metrics::snapshot();
    std::printf("\ndetector trigger latency (TDC samples from arming):\n");
    for (const metrics::HistogramSnapshot& h : snap.histograms) {
        if (h.name != "detector.trigger_latency_samples") continue;
        std::printf("  triggers %llu, min %llu, mean %.1f, max %llu, p50<=%llu\n",
                    static_cast<unsigned long long>(h.count),
                    static_cast<unsigned long long>(h.min), h.mean(),
                    static_cast<unsigned long long>(h.max),
                    static_cast<unsigned long long>(h.approx_quantile(0.5)));
    }
    std::printf("\nselected counters:\n");
    for (const metrics::CounterSnapshot& c : snap.counters) {
        if (c.name == "pdn.steps" || c.name == "pdn.steps_skipped" ||
            c.name == "tdc.samples" || c.name == "striker.active_cycles" ||
            c.name == "accel.ops_unsafe" || c.name == "runner.points") {
            std::printf("  %-28s %llu %s\n", c.name.c_str(),
                        static_cast<unsigned long long>(c.value), c.unit.c_str());
        }
    }

    // ---- write both sink files ---------------------------------------
    const bool metrics_ok = metrics::write_json(manifest.metrics_out);
    const bool trace_ok = trace::write_chrome_json(manifest.trace_out);
    std::printf("\nmetrics -> %s%s\ntrace   -> %s%s (open in ui.perfetto.dev)\n",
                manifest.metrics_out.c_str(), metrics_ok ? "" : " (FAILED)",
                manifest.trace_out.c_str(), trace_ok ? "" : " (FAILED)");
    return metrics_ok && trace_ok ? 0 : 1;
}
