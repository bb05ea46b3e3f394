// End-to-end, per-layer benchmark driver (see README.md in this directory).
//
// One process measures one workload:
//   1. kRounds rounds, each a timed set-up (load the primed LeNet-5 victim,
//      quantize it, build the test set and the platform) and a timed unit,
//      with metrics and tracing off. setup_s, wall_s, cpu_s and the units' peak RSS are medians.
//      Round 0 first runs one untimed warm-up unit: its report
//      is the one every later unit must reproduce byte for byte, and when
//      its inputs are the reference's, its simulated statistics must match
//      reference/<workload>.json;
//   2. with --trace 1, one traced unit with `bench` spans around the public
//      calls into each layer. Its ledger gives the per-layer metrics and
//      its Chrome trace the self times.
// The last stdout line is the summary JSON of the metrics BENCHMARK.json
// names (end_to_end with --trace 0, per_layer with --trace 1). --out
// receives every metric and every timed sample.
#include <malloc.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <ctime>
#include <exception>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "accel/arch_profiles.hpp"
#include "accel/weight_transfer.hpp"
#include "nn/zoo.hpp"
#include "quant/qnetwork.hpp"
#include "quant/weight_stream.hpp"
#include "sim/campaign.hpp"
#include "sim/golden_cache.hpp"
#include "sim/journal.hpp"
#include "sim/search.hpp"
#include "util/atomic_file.hpp"
#include "util/cli.hpp"
#include "util/error.hpp"
#include "util/json.hpp"
#include "util/metrics.hpp"
#include "util/parallel.hpp"
#include "util/trace.hpp"

using namespace deepstrike;

namespace {

using Clock = std::chrono::steady_clock;

/// The seed that reproduces the fig5b bench (fault seed 2468, blind-offset
/// seed 777) and the search CLI's default search seed 1.
constexpr std::uint64_t kDefaultSeed = 1;
/// Timed rounds per run, each one set-up and one unit. The count is fixed,
/// so two commits are measured over the same work; set-ups alternate with
/// units, so both sample the host over the whole run. Single-threaded
/// set-ups vary most from one to the next, and six of them keep a run near
/// BENCHMARK.json's run_seconds on a 4-vCPU host.
constexpr std::size_t kRounds = 6;
/// Minimum measuring time of each microbenchmark in the traced phase.
constexpr double kMicroSeconds = 0.05;

double seconds_since(Clock::time_point t0) {
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

double process_cpu_seconds() {
    timespec ts{};
    clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

/// Starts a new peak-RSS window. Free heap the allocator still holds from
/// earlier units goes back to the system first, so each window starts from
/// the live set, as in a process that runs one unit; then writing 5 to
/// clear_refs resets the process's VmHWM to its current RSS (Linux).
void reset_peak_rss() {
    malloc_trim(0);
    std::ofstream("/proc/self/clear_refs") << "5";
}

/// Peak RSS in MB since the last reset_peak_rss (VmHWM).
double peak_rss_mb() {
    std::ifstream status("/proc/self/status");
    std::string line;
    while (std::getline(status, line)) {
        if (line.starts_with("VmHWM:")) return std::stod(line.substr(6)) / 1024.0; // kB
    }
    throw IoError("/proc/self/status has no VmHWM line");
}

double median(std::vector<double> values) {
    if (values.empty()) return 0.0;
    std::sort(values.begin(), values.end());
    const std::size_t n = values.size();
    return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

/// Mean seconds per call of `fn`, calling it for at least kMicroSeconds.
double seconds_per_call(const std::function<void()>& fn) {
    std::size_t calls = 0;
    const auto t0 = Clock::now();
    double elapsed = 0.0;
    do {
        fn();
        ++calls;
        elapsed = seconds_since(t0);
    } while (elapsed < kMicroSeconds);
    return elapsed / static_cast<double>(calls);
}

// ------------------------------------------------------------------ spans

/// Seconds spent per bench-span name.
using Ledger = std::map<std::string, double>;

/// One bench span around one public call: a `bench`-category trace span
/// (recorded only while tracing is on) whose steady-clock duration is also
/// added to a ledger, so per-layer seconds do not depend on tracing.
class Phase {
public:
    Phase(Ledger& ledger, std::string name)
        : ledger_(ledger), name_(std::move(name)), span_(name_, "bench"),
          start_(Clock::now()) {}
    ~Phase() { ledger_[name_] += seconds_since(start_); }

    Phase(const Phase&) = delete;
    Phase& operator=(const Phase&) = delete;

private:
    Ledger& ledger_;
    std::string name_;
    trace::Span span_;
    Clock::time_point start_;
};

/// Self seconds per bench-span name: each span's duration minus the part
/// its child bench spans cover. Bench spans nest on the driving thread.
std::map<std::string, double> bench_self_seconds(std::vector<trace::Event> events) {
    std::erase_if(events, [](const trace::Event& e) {
        return e.instant || e.category != "bench";
    });
    std::sort(events.begin(), events.end(), [](const trace::Event& a, const trace::Event& b) {
        return a.start_us != b.start_us ? a.start_us < b.start_us
                                        : a.duration_us > b.duration_us;
    });
    struct Open {
        const trace::Event* event;
        std::uint64_t covered_us;
    };
    std::map<std::string, double> self;
    std::vector<Open> stack;
    const auto close = [&] {
        const Open& top = stack.back();
        const std::uint64_t own = top.event->duration_us -
                                  std::min(top.covered_us, top.event->duration_us);
        self[top.event->name] += 1e-6 * static_cast<double>(own);
        stack.pop_back();
    };
    for (const trace::Event& e : events) {
        while (!stack.empty() &&
               e.start_us >= stack.back().event->start_us + stack.back().event->duration_us) {
            close();
        }
        if (!stack.empty()) stack.back().covered_us += e.duration_us;
        stack.push_back({&e, 0});
    }
    while (!stack.empty()) close();
    return self;
}

// ---------------------------------------------------------------- metrics

struct Metric {
    std::string name;
    double value = 0.0;
    std::string unit;
};

class Metrics {
public:
    void add(std::string name, double value, std::string unit) {
        list_.push_back({std::move(name), value, std::move(unit)});
    }
    const Metric* find(const std::string& name) const {
        for (const Metric& m : list_) {
            if (m.name == name) return &m;
        }
        return nullptr;
    }
    const std::vector<Metric>& list() const { return list_; }

private:
    std::vector<Metric> list_;
};

std::uint64_t counter_value(const metrics::MetricsSnapshot& snapshot,
                            const std::string& name) {
    for (const metrics::CounterSnapshot& c : snapshot.counters) {
        if (c.name == name) return c.value;
    }
    return 0;
}

// -------------------------------------------------------------- workloads

enum class Kind { Campaign, Search };

struct Workload {
    std::string name;
    Kind kind = Kind::Campaign;
    sim::CampaignConfig campaign;
    sim::WeightFaultSearchConfig search;
    bool journal = false;
};

/// The workload seed drives the campaigns' fault and blind-offset seeds.
/// The search seed stays fixed: the search trajectory sets how much work a
/// search does (seeds 1-9 cost 76-157 G MACs, 2.8-12.7 s each), so a
/// seed-driven search would time the seed rather than the code.
/// The search scores each candidate on 64 images rather than the CLI's 256,
/// so that kRounds of its units fit a run.
Workload make_workload(const std::string& name, std::uint64_t seed, std::size_t threads) {
    Workload w;
    w.name = name;
    w.campaign.fault_seed = 2467 + seed;
    w.campaign.blind_offset_seed = 776 + seed;
    w.campaign.threads = threads;
    if (name == "fig5b-lenet5") {
        w.campaign.strike_grid = {500, 1000, 2000, 3000, 4500};
        w.campaign.blind_offsets = 10;
        w.campaign.eval_images = 300;
        w.journal = true;
    } else if (name == "strike-scan-lenet5") {
        w.campaign.strike_grid = {250, 500, 750, 1000, 1500, 2000, 2500, 3000, 3500, 4500};
        w.campaign.blind_offsets = 24;
        w.campaign.eval_images = 16;
    } else if (name == "deepdup-lenet5") {
        w.kind = Kind::Search;
        w.search.fault_kind = accel::WeightFaultKind::Duplicate;
        w.search.spec.algorithm = attack::SearchAlgorithm::Des;
        w.search.spec.population = 16;
        w.search.spec.budget = 2000;
        w.search.spec.seed = kDefaultSeed;
        w.search.eval_images = 64;
        w.search.threads = threads;
        w.journal = true;
    } else {
        throw ConfigError("unknown workload '" + name +
                          "' (expected fig5b-lenet5|strike-scan-lenet5|deepdup-lenet5)");
    }
    return w;
}

// ----------------------------------------------------------------- victim

/// The fig5b bench's LeNet-5 victim: 4000 train / 1000 test images, five
/// epochs, data seed 42, init seed 7.
nn::ZooTrainSpec victim_spec(const std::string& cache_dir) {
    nn::ZooTrainSpec spec = nn::zoo_spec(nn::Architecture::LeNet5);
    spec.data_seed = 42;
    spec.train_size = 4000;
    spec.test_size = 1000;
    spec.init_seed = 7;
    spec.train_config.epochs = 5;
    spec.train_config.batch_size = 16;
    spec.cache_dir = cache_dir;
    return spec;
}

struct Victim {
    sim::Platform platform;
    data::Dataset test_set;

    const quant::QNetwork& network() const { return platform.engine().network(); }
};

/// Loads the primed victim and builds its platform. Returned on the heap
/// because the platform's sensor refers to the platform's own members.
std::unique_ptr<Victim> set_up_victim(const std::string& cache_dir, Ledger& ledger) {
    const nn::ZooTrainSpec spec = victim_spec(cache_dir);
    const nn::ArchitectureInfo& info = nn::architecture_info(spec.architecture);
    nn::TrainedModel trained;
    {
        Phase phase(ledger, "setup.victim_load");
        trained = nn::train_or_load(spec);
    }
    if (!trained.loaded_from_cache) {
        throw ConfigError("the victim was trained during set-up: prime " + cache_dir +
                          " first (bench/e2e/run.sh does)");
    }
    quant::QNetwork network;
    {
        Phase phase(ledger, "setup.quantize");
        network = quant::quantize_sequential(trained.model, info.input_shape, {},
                                             quant::quant_format_for(spec.architecture));
    }
    data::Dataset test_set;
    {
        Phase phase(ledger, "setup.dataset");
        test_set = data::make_datasets(spec.data_seed, 1, spec.test_size).test;
    }
    std::unique_ptr<Victim> victim;
    {
        Phase phase(ledger, "setup.platform");
        sim::PlatformConfig config;
        config.accel = accel::accel_config_for(spec.architecture);
        victim.reset(new Victim{sim::Platform(config, std::move(network)), std::move(test_set)});
    }
    return victim;
}

// ------------------------------------------------------------------ units

/// One untraced unit: its report bytes (every rep must reproduce rep 0's)
/// and the simulated statistics the pinned reference holds.
struct UnitRun {
    double wall_s = 0.0; // around the public call only
    double cpu_s = 0.0;
    double rss_mb = 0.0; // peak RSS while the call ran
    std::string report;
    bool partial = false;
    Json view;
};

std::string fingerprint_hex(const Victim& victim) {
    return sim::CheckpointJournal::fingerprint_hex(sim::network_fingerprint(victim.network()));
}

/// The seeds a workload hands the program. A reference applies to every
/// run whose inputs equal the ones it was recorded with.
Json inputs_json(const Workload& w) {
    Json inputs = Json::object();
    if (w.kind == Kind::Campaign) {
        inputs.set("fault_seed", w.campaign.fault_seed);
        inputs.set("blind_offset_seed", w.campaign.blind_offset_seed);
    } else {
        inputs.set("search_seed", w.search.spec.seed);
    }
    return inputs;
}

/// Reference view of a campaign: struct fields, not report bytes, so a
/// field added to the report later does not invalidate the reference.
Json campaign_view(const Workload& w, const Victim& victim, const sim::CampaignReport& r) {
    Json view = Json::object();
    view.set("workload", w.name);
    view.set("inputs", inputs_json(w));
    view.set("network_fingerprint", fingerprint_hex(victim));
    view.set("clean_accuracy_bits", sim::double_bits_hex(r.clean_accuracy));
    Json points = Json::array();
    for (const sim::CampaignPoint& p : r.points) {
        Json j = Json::object();
        j.set("label", p.target + " x" + std::to_string(p.strikes));
        j.set("strikes", static_cast<std::uint64_t>(p.strikes));
        j.set("accuracy_bits", sim::double_bits_hex(p.accuracy));
        j.set("duplication_faults", static_cast<std::uint64_t>(p.faults.duplication));
        j.set("random_faults", static_cast<std::uint64_t>(p.faults.random));
        points.push(std::move(j));
    }
    view.set("points", std::move(points));
    return view;
}

Json search_view(const Workload& w, const Victim& victim, const sim::SearchReport& r) {
    Json view = Json::object();
    view.set("workload", w.name);
    view.set("inputs", inputs_json(w));
    view.set("network_fingerprint", fingerprint_hex(victim));
    Json best = Json::array();
    for (std::uint32_t index : r.best) best.push(static_cast<std::uint64_t>(index));
    view.set("best", std::move(best));
    view.set("best_drop_bits", sim::double_bits_hex(r.best_drop));
    Json curve = Json::array();
    for (double drop : r.convergence) curve.push(sim::double_bits_hex(drop));
    view.set("convergence_bits", std::move(curve));
    return view;
}

UnitRun run_unit(const Workload& w, const Victim& victim, const std::string& journal) {
    UnitRun run;
    reset_peak_rss();
    const auto t0 = Clock::now();
    const double cpu0 = process_cpu_seconds();
    if (w.kind == Kind::Campaign) {
        sim::CampaignConfig config = w.campaign;
        config.journal_path = journal;
        const sim::CampaignReport report =
            sim::run_campaign(victim.platform, victim.test_set, config);
        run.wall_s = seconds_since(t0);
        run.cpu_s = process_cpu_seconds() - cpu0;
        run.rss_mb = peak_rss_mb();
        run.report = report.to_json().dump();
        run.partial = report.partial;
        run.view = campaign_view(w, victim, report);
    } else {
        sim::WeightFaultSearchConfig config = w.search;
        config.journal_path = journal;
        const sim::SearchReport report =
            sim::run_weight_fault_search(victim.network(), victim.test_set, config);
        run.wall_s = seconds_since(t0);
        run.cpu_s = process_cpu_seconds() - cpu0;
        run.rss_mb = peak_rss_mb();
        run.report = report.to_json().dump();
        run.view = search_view(w, victim, report);
    }
    // Each rep writes a fresh journal.
    if (!journal.empty()) std::filesystem::remove(journal);
    return run;
}

/// First place where `actual` differs from the `expected` reference, as a
/// path with both values; empty when they agree. Only keys the reference
/// holds are compared.
std::string first_difference(const Json& expected, const Json& actual,
                             const std::string& path) {
    if (expected.is_object()) {
        for (const std::string& key : expected.keys()) {
            const Json* value = actual.find(key);
            if (value == nullptr) return path + "." + key + " is missing";
            const std::string diff = first_difference(expected.at(key), *value, path + "." + key);
            if (!diff.empty()) return diff;
        }
        return "";
    }
    if (expected.is_array()) {
        if (!actual.is_array() || actual.size() != expected.size()) {
            return path + " has " + std::to_string(actual.size()) + " entries, the reference " +
                   std::to_string(expected.size());
        }
        for (std::size_t i = 0; i < expected.size(); ++i) {
            const std::string diff = first_difference(expected.at(i), actual.at(i),
                                                      path + "[" + std::to_string(i) + "]");
            if (!diff.empty()) return diff;
        }
        return "";
    }
    if (expected.dump() != actual.dump()) {
        return path + " is " + actual.dump() + ", the reference " + expected.dump();
    }
    return "";
}

std::string check_reference(const Json& reference, const Json& view) {
    const std::string& want = reference.at("network_fingerprint").as_string();
    const std::string& got = view.at("network_fingerprint").as_string();
    if (want != got) {
        return "victim network fingerprint " + got + " is not the reference's " + want +
               ": the primed weights differ from those the reference was recorded "
               "with, so no point can match (re-prime, or re-record the reference)";
    }
    const std::string diff = first_difference(reference, view, "");
    return diff.empty() ? "" : "simulated statistics differ from the reference: " + diff;
}

// ------------------------------------------------------------ traced unit

/// What the traced unit leaves behind for the per-layer metrics.
struct Traced {
    std::string report;
    std::shared_ptr<const sim::GoldenStore> golden;
    metrics::MetricsSnapshot counters;
};

/// Bench-span group of campaign record `index`: the DNN layer a guided
/// point targets, BLIND, or clean.
std::string eval_group(const sim::CampaignPlan& plan, const quant::QNetwork& network,
                       std::size_t index) {
    if (index == 0) return "clean";
    const sim::PlannedCampaignPoint& p = plan.points[index - 1];
    if (p.blind_offsets > 0) return "BLIND";
    const std::size_t segment = *p.segment_index;
    return segment < network.layers.size() ? network.layers[segment].label
                                           : "segment" + std::to_string(segment);
}

/// Rebuilds run_campaign's report from its public phases, one bench span
/// per phase and per evaluated record. Records are evaluated one at a time
/// (each still parallel over images) so every record's wall is its own.
Traced traced_campaign(const Workload& w, const Victim& victim, const std::string& journal_path,
                       Ledger& ledger, Metrics& out) {
    const sim::CampaignConfig& config = w.campaign;
    const quant::QNetwork& network = victim.network();
    sim::SweepRunner runner(victim.platform, sim::RunnerConfig{config.threads, true});
    sim::CampaignPlan plan;
    sim::CampaignReport report;
    Traced traced;
    {
        Phase unit(ledger, "unit");
        {
            Phase phase(ledger, "campaign.plan");
            plan = sim::plan_campaign(victim.platform, victim.test_set, config);
        }
        {
            Phase phase(ledger, "golden.build");
            traced.golden = runner.golden_view(victim.test_set, plan.eval_images);
        }
        std::vector<attack::AttackScheme> guided;
        std::vector<sim::SweepTask> blind;
        for (const sim::PlannedCampaignPoint& p : plan.points) {
            if (p.blind_offsets == 0) {
                guided.push_back(p.scheme);
            } else {
                blind.push_back({sim::campaign_point_label(p), [&runner, &p, &config] {
                                     runner.blind_bundle(p.scheme, p.blind_offsets,
                                                         config.blind_offset_seed);
                                 }});
            }
        }
        {
            Phase phase(ledger, "cosim.guided");
            runner.prefetch_guided(config.detector, guided);
        }
        {
            Phase phase(ledger, "cosim.blind");
            runner.run("blind-traces", std::move(blind));
        }
        std::unique_ptr<sim::CheckpointJournal> journal;
        if (!journal_path.empty()) {
            Phase phase(ledger, "journal.create");
            journal = sim::CheckpointJournal::create(journal_path, plan.fingerprint, "campaign");
        }
        std::vector<Json> records(plan.record_count());
        for (std::size_t index = 0; index < records.size(); ++index) {
            {
                Phase phase(ledger, "eval." + eval_group(plan, network, index));
                records[index] = sim::evaluate_campaign_record(
                    victim.platform, victim.test_set, plan, runner, traced.golden.get(), index);
            }
            if (journal) {
                Phase phase(ledger, "journal.append");
                journal->append(index, records[index]);
            }
        }
        if (journal) {
            Phase phase(ledger, "journal.flush");
            journal->flush();
            journal.reset();
        }
        {
            Phase phase(ledger, "campaign.assemble");
            report = sim::assemble_campaign_report(sim::plan_info(plan), records);
        }
    }
    traced.counters = metrics::snapshot();
    traced.report = report.to_json().dump();
    if (!journal_path.empty()) std::filesystem::remove(journal_path);

    // Attribution only, outside the unit: overlay planning is part of the
    // co-sim phases above; re-planning every cached trace measures its share.
    {
        Phase phase(ledger, "overlay.plan");
        for (const sim::PlannedCampaignPoint& p : plan.points) {
            if (p.blind_offsets == 0) {
                const auto bundle = runner.guided_bundle(config.detector, p.scheme);
                victim.platform.engine().plan_overlay(&bundle->trace);
            } else {
                const auto bundle =
                    runner.blind_bundle(p.scheme, p.blind_offsets, config.blind_offset_seed);
                for (const accel::VoltageTrace& t : bundle->traces) {
                    victim.platform.engine().plan_overlay(&t);
                }
            }
        }
    }

    double in_phases = 0.0;
    double eval_total = 0.0;
    for (const auto& [name, seconds] : ledger) {
        if (name != "unit" && name != "overlay.plan") in_phases += seconds;
        if (name.starts_with("eval.")) eval_total += seconds;
    }
    const auto at = [&](const std::string& name) {
        const auto it = ledger.find(name);
        return it == ledger.end() ? 0.0 : it->second;
    };
    out.add("campaign.plan_s", at("campaign.plan"), "s");
    out.add("golden.build_s", at("golden.build"), "s");
    out.add("cosim.guided_s", at("cosim.guided"), "s");
    out.add("cosim.blind_s", at("cosim.blind"), "s");
    out.add("overlay.plan_s", at("overlay.plan"), "s");
    out.add("eval.total_s", eval_total, "s");
    std::vector<std::string> groups;
    for (const quant::QLayer& layer : network.layers) groups.push_back(layer.label);
    groups.push_back("BLIND");
    groups.push_back("clean");
    for (const std::string& group : groups) {
        out.add("eval." + group + "_s", at("eval." + group), "s");
    }
    out.add("journal.create_s", at("journal.create"), "s");
    out.add("journal.append_s", at("journal.append"), "s");
    out.add("journal.flush_s", at("journal.flush"), "s");
    out.add("campaign.assemble_s", at("campaign.assemble"), "s");
    out.add("trace.phase_coverage", ratio(in_phases, at("unit")), "ratio");
    out.add("cosim.host_ns_per_cycle",
            1e9 * ratio(at("campaign.plan") + at("cosim.guided") + at("cosim.blind"),
                        static_cast<double>(counter_value(traced.counters, "cosim.cycles"))),
            "ns");
    out.add("eval.host_ns_per_unsafe_op",
            1e9 * ratio(eval_total, static_cast<double>(
                                        counter_value(traced.counters, "accel.ops_unsafe"))),
            "ns");

    double conv2_max_drop = 0.0;
    for (const sim::CampaignPoint& p : report.points) {
        if (!p.is_blind() && *p.segment_index < network.layers.size() &&
            network.layers[*p.segment_index].label == "CONV2") {
            conv2_max_drop = std::max(conv2_max_drop, p.drop);
        }
    }
    out.add("fidelity.conv2_max_drop_pts", 100.0 * conv2_max_drop, "pts");
    return traced;
}

/// The search as one bench span (it is one public call), then the golden
/// store build and a replay of the champion fault set, each timed on its
/// own. The replay must reproduce the report's best drop bit for bit.
Traced traced_search(const Workload& w, const Victim& victim, const std::string& journal_path,
                     Ledger& ledger, Metrics& out, std::vector<std::string>& problems) {
    const quant::QNetwork& network = victim.network();
    sim::WeightFaultSearchConfig config = w.search;
    config.journal_path = journal_path;
    sim::RunManifest manifest;
    sim::SearchReport report;
    {
        Phase unit(ledger, "unit");
        report = sim::run_weight_fault_search(network, victim.test_set, config, &manifest);
    }
    Traced traced;
    traced.counters = metrics::snapshot();
    traced.report = report.to_json().dump();
    if (!journal_path.empty()) std::filesystem::remove(journal_path);

    const std::size_t n = report.eval_images;
    {
        Phase phase(ledger, "search.golden");
        traced.golden = sim::build_golden_store(network, victim.test_set, n);
    }
    const sim::GoldenStore& golden = *traced.golden;

    const std::vector<accel::WeightFault> faults =
        accel::uniform_weight_faults(report.best, config.fault_kind, config.fault_bit);
    quant::QNetwork faulted;
    double apply_s = 0.0;
    {
        Phase phase(ledger, "search.champion.apply");
        apply_s = seconds_per_call([&] {
            faulted = accel::apply_weight_faults(network, faults, config.transfer);
        });
    }
    const std::size_t first =
        quant::WeightStreamView(network).first_faulted_layer(report.best, network.layers.size());
    std::size_t correct = 0;
    const auto replay = [&] {
        correct = 0;
        for (std::size_t i = 0; i < n; ++i) {
            const sim::GoldenEntry& entry = golden.entries[i];
            std::size_t predicted = entry.predicted;
            if (first < network.layers.size()) {
                predicted = argmax(faulted.forward_from(
                    first, first == 0 ? entry.qimage : entry.activations[first - 1]));
            }
            correct += predicted == victim.test_set.labels[i] ? 1 : 0;
        }
    };
    double forward_s = 0.0;
    {
        Phase phase(ledger, "search.champion.forward");
        forward_s = seconds_per_call(replay);
    }
    std::size_t clean = 0;
    for (std::size_t i = 0; i < n; ++i) {
        clean += golden.entries[i].predicted == victim.test_set.labels[i] ? 1 : 0;
    }
    const double replay_drop =
        100.0 * (static_cast<double>(clean) - static_cast<double>(correct)) /
        static_cast<double>(n);
    if (sim::double_bits_hex(replay_drop) != sim::double_bits_hex(report.best_drop)) {
        problems.push_back("champion replay drops " + std::to_string(replay_drop) +
                           " points, the search reported " + std::to_string(report.best_drop));
    }

    const double unit_s = ledger.at("unit");
    const double fresh = static_cast<double>(manifest.points.size());
    out.add("search.fitness_s", manifest.total_seconds, "s");
    out.add("search.driver_s", unit_s - manifest.total_seconds, "s");
    out.add("search.golden_s", ledger.at("search.golden"), "s");
    out.add("golden.build_s", ledger.at("search.golden"), "s");
    out.add("search.ms_per_candidate", 1e3 * ratio(manifest.total_seconds, fresh), "ms");
    out.add("search.champion.apply_us", 1e6 * apply_s, "us");
    out.add("search.champion.forward_ms", 1e3 * forward_s, "ms");
    out.add("search.champion.first_layer", static_cast<double>(first), "count");
    return traced;
}

/// Host time of each DNN layer alone: a one-layer QNetwork fed the golden
/// activations of the layer before it, per image (forward) and per
/// 16-image forward_batch call. Each output must equal the golden one.
void time_quant_layers(const quant::QNetwork& network, const sim::GoldenStore& golden,
                       Ledger& ledger, Metrics& out, std::vector<std::string>& problems) {
    const std::size_t n = std::min<std::size_t>(64, golden.size());
    const std::size_t batch = std::min<std::size_t>(16, golden.size());
    for (std::size_t li = 0; li < network.layers.size(); ++li) {
        const std::string& label = network.layers[li].label;
        std::vector<const QTensor*> inputs;
        for (std::size_t j = 0; j < n; ++j) {
            inputs.push_back(li == 0 ? &golden.entries[j].qimage
                                     : &golden.entries[j].activations[li - 1]);
        }
        quant::QNetwork one;
        one.input_shape = inputs.front()->shape();
        one.layers = {network.layers[li]};
        one.format = network.format;
        for (std::size_t j = 0; j < n; ++j) {
            if (!(one.forward(*inputs[j]) == golden.entries[j].activations[li])) {
                problems.push_back("layer " + label + " alone does not reproduce image " +
                                   std::to_string(j) + "'s golden activation");
                break;
            }
        }
        double per_image_s = 0.0;
        {
            Phase phase(ledger, "quant.forward." + label);
            per_image_s = seconds_per_call([&] {
                              for (const QTensor* input : inputs) one.forward(*input);
                          }) /
                          static_cast<double>(n);
        }
        const std::vector<const QTensor*> block(inputs.begin(), inputs.begin() + batch);
        double per_batch_s = 0.0;
        {
            Phase phase(ledger, "quant.batch16." + label);
            per_batch_s = seconds_per_call([&] { one.forward_batch(block); });
        }
        out.add("quant.forward." + label + "_us", 1e6 * per_image_s, "us");
        out.add("quant.batch16." + label + "_us", 1e6 * per_batch_s, "us");
    }
}

/// Counts from the metrics registry (exact, so two commits compare
/// exactly) and the ratios derived from them.
void add_counts(const metrics::MetricsSnapshot& s, Metrics& out) {
    const auto count = [&](const std::string& name, const std::string& registry_name) {
        const double value = static_cast<double>(counter_value(s, registry_name));
        out.add(name, value, "count");
        return value;
    };
    count("cosim.cycles", "cosim.cycles");
    const double steps = count("pdn.steps", "pdn.steps");
    const double skipped = count("pdn.steps_skipped", "pdn.steps_skipped");
    count("cosim.lanes.compactions", "cosim.lanes.compactions");
    count("cosim.lanes.tdc_dedup_hits", "cosim.lanes.tdc_dedup_hits");
    count("cosim.lanes.scalar_fallbacks", "cosim.lanes.scalar_fallbacks");
    const double ops = count("accel.ops_total", "accel.ops_total");
    const double unsafe = count("accel.ops_unsafe", "accel.ops_unsafe");
    const double images = count("eval.images", "eval.images");
    const double shortcircuits =
        count("eval.golden_cache.shortcircuits", "eval.golden_cache.shortcircuits");
    count("eval.prefix_layers_skipped", "eval.prefix_layers_skipped");
    count("quant.gemm.macs", "quant.gemm.macs");
    count("runner.trace_cache_hits", "runner.trace_cache_hits");
    count("runner.trace_cache_misses", "runner.trace_cache_misses");
    const double fresh = count("search.candidates_evaluated", "search.candidates_evaluated");
    const double memo = count("search.fitness_cache_hits", "search.fitness_cache.hits");
    out.add("pdn.skip_frac", ratio(skipped, steps), "ratio");
    out.add("eval.shortcircuit_frac", ratio(shortcircuits, images), "ratio");
    out.add("accel.unsafe_op_frac", ratio(unsafe, ops), "ratio");
    out.add("search.memo_hit_frac", ratio(memo, memo + fresh), "ratio");
}

// ------------------------------------------------------------------- main

struct Args {
    std::string workload;
    std::uint64_t seed = kDefaultSeed;
    bool trace = false;
    std::size_t threads = 1;
    std::string cache_dir;
    std::string work_dir;
    std::string out;
    std::string trace_out;
    std::string reference_dir;
    std::string spec;
    bool write_reference = false;
};

std::string read_file(const std::string& path) {
    std::ifstream in(path);
    if (!in) throw IoError("cannot read " + path);
    std::ostringstream text;
    text << in.rdbuf();
    return text.str();
}

Json metric_json(const Metric& m) {
    Json j = Json::object();
    j.set("value", m.value);
    j.set("unit", m.unit);
    return j;
}

Json metrics_json(const Metrics& metrics) {
    Json j = Json::object();
    for (const Metric& m : metrics.list()) j.set(m.name, metric_json(m));
    return j;
}

Json samples_json(const std::vector<double>& values) {
    Json j = Json::array();
    for (double v : values) j.push(v);
    return j;
}

/// The summary line: the metrics BENCHMARK.json names for this mode, each
/// with the unit BENCHMARK.json gives it. A metric the run did not produce
/// (because a unit failed before it was measured) is left out and recorded
/// as a problem.
Json summary_metrics(const Args& args, const Metrics& e2e, const Metrics& layers,
                     std::vector<std::string>& problems) {
    const Json spec = Json::parse(read_file(args.spec));
    const Json& wanted = spec.at(args.trace ? "per_layer" : "end_to_end");
    const Metrics& source = args.trace ? layers : e2e;
    Json out = Json::object();
    for (std::size_t i = 0; i < wanted.size(); ++i) {
        const std::string& name = wanted.at(i).at("name").as_string();
        const Metric* m = source.find(name);
        if (m == nullptr) {
            problems.push_back(args.spec + " names metric '" + name + "', which this run of " +
                               args.workload + " did not produce");
            continue;
        }
        if (m->unit != wanted.at(i).at("unit").as_string()) {
            throw ConfigError(args.spec + " gives '" + name + "' the unit '" +
                              wanted.at(i).at("unit").as_string() + "', the driver '" +
                              m->unit + "'");
        }
        out.set(name, metric_json(*m));
    }
    return out;
}

void print_metrics(const char* kind, const Metrics& metrics) {
    for (const Metric& m : metrics.list()) {
        std::printf("%-6s %-34s %16.6f %s\n", kind, m.name.c_str(), m.value, m.unit.c_str());
    }
}

int prime(const std::string& cache_dir) {
    const nn::TrainedModel trained = nn::train_or_load(victim_spec(cache_dir));
    std::printf("[e2e] victim primed under %s (float test accuracy %.4f, %s)\n",
                cache_dir.c_str(), trained.test_accuracy,
                trained.loaded_from_cache ? "already cached" : "trained");
    return 0;
}

/// Per-layer metrics of the traced unit (--trace 1), which must reproduce
/// the warm-up unit's report. Its problems go to `problems`; returns
/// whether it succeeded.
bool run_traced_unit(const Args& args, const Workload& w, const Victim& victim,
                     const std::string& journal, const UnitRun* rep0, Ledger& ledger,
                     Metrics& layers, std::vector<std::string>& problems) {
    metrics::reset();
    metrics::set_enabled(true);
    trace::set_enabled(true);
    trace::set_thread_name("main");
    std::vector<std::string> traced_problems;
    try {
        const Traced traced =
            w.kind == Kind::Campaign
                ? traced_campaign(w, victim, journal, ledger, layers)
                : traced_search(w, victim, journal, ledger, layers, traced_problems);
        if (rep0 != nullptr && traced.report != rep0->report) {
            traced_problems.push_back(
                w.kind == Kind::Campaign
                    ? "the report rebuilt from the campaign phases is not byte-identical "
                      "to run_campaign's"
                    : "the traced search did not reproduce the warm-up unit's report");
        }
        if (const Metric* coverage = layers.find("trace.phase_coverage");
            coverage != nullptr && coverage->value < 0.95) {
            traced_problems.push_back("bench spans cover only " +
                                      std::to_string(coverage->value) +
                                      " of the traced campaign unit (need 0.95)");
        }
        add_counts(traced.counters, layers);
        time_quant_layers(victim.network(), *traced.golden, ledger, layers, traced_problems);
    } catch (const std::exception& e) {
        traced_problems.push_back(std::string("the traced unit threw: ") + e.what());
    }
    metrics::set_enabled(false);
    if (!args.trace_out.empty()) {
        std::filesystem::create_directories(
            std::filesystem::path(args.trace_out).parent_path());
        if (!trace::write_chrome_json(args.trace_out)) {
            traced_problems.push_back("cannot write " + args.trace_out);
        }
    }
    trace::set_enabled(false);
    problems.insert(problems.end(), traced_problems.begin(), traced_problems.end());
    return traced_problems.empty();
}

std::string reference_path(const Args& args, const Workload& w) {
    return (std::filesystem::path(args.reference_dir) / (w.name + ".json")).string();
}

/// Records reference/<workload>.json from one unit of the default seed.
int write_reference(const Args& args, const Workload& w, const Victim& victim,
                    const std::string& journal) {
    if (args.seed != kDefaultSeed) {
        throw ConfigError("--write-reference records the default seed only");
    }
    const UnitRun run = run_unit(w, victim, journal);
    if (run.partial) throw ConfigError("the unit came back partial; no reference written");
    const std::string path = reference_path(args, w);
    std::filesystem::create_directories(args.reference_dir);
    atomic_write_file(path, run.view.dump(2) + "\n");
    std::printf("[e2e] reference written to %s\n", path.c_str());
    return 0;
}

/// The untimed warm-up unit. Its report is the one every later unit must
/// reproduce, and when its inputs are the reference's, its simulated
/// statistics must match the reference. Returns nothing if it threw.
std::optional<UnitRun> warm_up_unit(const Args& args, const Workload& w, const Victim& victim,
                                    const std::string& journal,
                                    std::vector<std::string>& problems) {
    std::optional<UnitRun> run;
    try {
        run = run_unit(w, victim, journal);
    } catch (const std::exception& e) {
        problems.push_back(std::string("the warm-up unit threw: ") + e.what());
        return run;
    }
    if (run->partial) problems.push_back("the warm-up unit came back partial");
    const Json reference = Json::parse(read_file(reference_path(args, w)));
    if (reference.at("inputs").dump() == run->view.at("inputs").dump()) {
        const std::string diff = check_reference(reference, run->view);
        if (!diff.empty()) problems.push_back(diff);
    }
    return run;
}

int run(const Args& args) {
    set_global_thread_count(args.threads);
    const Workload w = make_workload(args.workload, args.seed, args.threads);
    std::filesystem::create_directories(args.work_dir);
    const std::string journal =
        w.journal ? (std::filesystem::path(args.work_dir) / (w.name + ".journal")).string()
                  : "";
    std::printf("[e2e] %s seed %llu, %zu threads, %zu rounds of a set-up and a unit\n",
                w.name.c_str(), static_cast<unsigned long long>(args.seed), args.threads,
                kRounds);
    std::fflush(stdout);

    // 1. Timed rounds: a set-up, then a unit on its victim.
    //    Round 0 runs the untimed warm-up unit before its timed one.
    std::vector<std::string> problems;
    std::size_t attempted = 0;
    std::size_t failed = 0;
    std::vector<Ledger> setups(kRounds);
    std::vector<double> setup_samples;
    std::vector<double> walls;
    std::vector<double> cpus;
    std::vector<double> rss;
    std::unique_ptr<Victim> victim;
    std::string fingerprint;
    std::optional<UnitRun> rep0;
    bool rep0_ok = false;
    for (std::size_t round = 0; round < kRounds; ++round) {
        // Each set-up starts as in a fresh process: no victim, trimmed heap.
        victim.reset();
        malloc_trim(0);
        const auto t0 = Clock::now();
        victim = set_up_victim(args.cache_dir, setups[round]);
        setup_samples.push_back(seconds_since(t0));
        if (round == 0) {
            fingerprint = fingerprint_hex(*victim);
            ++attempted;
            if (args.write_reference) return write_reference(args, w, *victim, journal);
            rep0 = warm_up_unit(args, w, *victim, journal, problems);
            // Without a correct warm-up unit no later unit can be checked,
            // so each counts as failed.
            rep0_ok = problems.empty();
            if (!rep0_ok) ++failed;
        } else if (fingerprint_hex(*victim) != fingerprint) {
            problems.push_back("set-up built two different victims");
        }
        ++attempted;
        try {
            const UnitRun run = run_unit(w, *victim, journal);
            walls.push_back(run.wall_s);
            cpus.push_back(run.cpu_s);
            rss.push_back(run.rss_mb);
            if (rep0_ok && !run.partial && run.report == rep0->report) continue;
            if (rep0_ok) {
                problems.push_back("unit " + std::to_string(attempted) +
                                   " did not reproduce the warm-up unit's report");
            }
        } catch (const std::exception& e) {
            problems.push_back("unit " + std::to_string(attempted) + " threw: " + e.what());
        }
        ++failed;
    }
    const double wall_s = median(walls);
    const double cpu_s = median(cpus);

    Metrics e2e;
    e2e.add("setup_s", median(setup_samples), "s");
    e2e.add("wall_s", wall_s, "s");
    e2e.add("cpu_s", cpu_s, "s");
    e2e.add("peak_rss_mb", median(rss), "MB");

    // 2. The traced unit.
    Metrics layers;
    std::map<std::string, double> self;
    if (args.trace) {
        Ledger ledger;
        for (const char* part : {"victim_load", "dataset", "quantize", "platform"}) {
            std::vector<double> samples;
            for (const Ledger& setup : setups) {
                samples.push_back(setup.at(std::string("setup.") + part));
            }
            layers.add(std::string("setup.") + part + "_s", median(samples), "s");
        }
        ++attempted;
        const bool traced_ok = run_traced_unit(args, w, *victim, journal,
                                               rep0 ? &*rep0 : nullptr, ledger, layers, problems);
        if (!rep0_ok || !traced_ok) ++failed;
        const auto unit_it = ledger.find("unit");
        const double traced_wall = unit_it == ledger.end() ? 0.0 : unit_it->second;
        layers.add("pool.utilization",
                   ratio(cpu_s, wall_s * static_cast<double>(args.threads)), "ratio");
        layers.add("trace_overhead_frac", ratio(traced_wall, wall_s), "ratio");
        self = bench_self_seconds(trace::events());
    }
    e2e.add("failed_frac", ratio(static_cast<double>(failed), static_cast<double>(attempted)),
            "ratio");

    const Json summary_values = summary_metrics(args, e2e, layers, problems);
    const bool correct = problems.empty();
    std::printf("\n[e2e] %s: %zu timed units, %zu attempted, %zu failed\n", w.name.c_str(),
                walls.size(), attempted, failed);
    print_metrics("e2e", e2e);
    print_metrics("layer", layers);
    for (const auto& [name, seconds] : self) {
        std::printf("%-6s %-34s %16.6f s\n", "self", name.c_str(), seconds);
    }
    if (const Metric* drop = layers.find("fidelity.conv2_max_drop_pts")) {
        std::printf("[e2e] CONV2 max accuracy drop %.1f points (paper: ~14)\n", drop->value);
    }
    for (const std::string& p : problems) std::printf("[e2e] FAILED: %s\n", p.c_str());

    if (!args.out.empty()) {
        Json result = Json::object();
        result.set("schema", "deepstrike.bench.e2e.v1");
        result.set("workload", w.name);
        result.set("seed", args.seed);
        result.set("threads", static_cast<std::uint64_t>(args.threads));
        result.set("rounds", static_cast<std::uint64_t>(kRounds));
        result.set("traced", args.trace);
        result.set("correct", correct);
        result.set("attempted", static_cast<std::uint64_t>(attempted));
        result.set("failed", static_cast<std::uint64_t>(failed));
        Json problem_list = Json::array();
        for (const std::string& p : problems) problem_list.push(p);
        result.set("problems", std::move(problem_list));
        result.set("e2e", metrics_json(e2e));
        result.set("layers", metrics_json(layers));
        Json self_json = Json::object();
        for (const auto& [name, seconds] : self) self_json.set(name, seconds);
        result.set("self_s", std::move(self_json));
        Json samples = Json::object();
        samples.set("setup_s", samples_json(setup_samples));
        samples.set("wall_s", samples_json(walls));
        samples.set("cpu_s", samples_json(cpus));
        samples.set("peak_rss_mb", samples_json(rss));
        result.set("samples", std::move(samples));
        std::filesystem::create_directories(std::filesystem::path(args.out).parent_path());
        atomic_write_file(args.out, result.dump(2) + "\n");
    }

    Json summary = Json::object();
    summary.set("correct", correct);
    summary.set("attempted", static_cast<std::uint64_t>(attempted));
    summary.set("failed", static_cast<std::uint64_t>(failed));
    summary.set("metrics", summary_values);
    std::printf("%s\n", summary.dump().c_str());
    return correct ? 0 : 1;
}

} // namespace

int main(int argc, char** argv) {
    ArgParser parser("ds_e2e", "End-to-end, per-layer benchmark of one workload.");
    parser.add_option("workload", "fig5b-lenet5 | strike-scan-lenet5 | deepdup-lenet5", "");
    parser.add_option("seed", "workload seed (campaign fault and blind-offset seeds)",
                      std::to_string(kDefaultSeed));
    parser.add_option("trace", "1 adds the traced unit and prints the per-layer metrics", "0");
    parser.add_option("threads", "worker threads", "4");
    parser.add_option("cache-dir", "victim weight cache", ".bench_build/e2e/cache");
    parser.add_option("work-dir", "directory for the units' journals", ".bench_build/e2e/tmp");
    parser.add_option("out", "write every metric and sample here (JSON)", "");
    parser.add_option("trace-out", "write the traced unit's Chrome trace here", "");
    parser.add_option("reference-dir", "pinned reference results", "bench/e2e/reference");
    parser.add_option("spec", "benchmark definition naming the summary metrics",
                      "BENCHMARK.json");
    parser.add_flag("write-reference", "record reference/<workload>.json and exit");
    parser.add_flag("prime", "train or load the victim into the cache and exit");
    parser.add_flag("help", "show this help");
    if (!parser.parse(argc, argv)) {
        std::fprintf(stderr, "%s\n%s", parser.error().c_str(), parser.usage().c_str());
        return 2;
    }
    if (parser.flag("help")) {
        std::printf("%s", parser.usage().c_str());
        return 0;
    }
    try {
        if (parser.flag("prime")) return prime(parser.option("cache-dir"));
        Args args;
        args.workload = parser.option("workload");
        args.seed = parser.option_uint("seed");
        args.trace = parser.option_uint("trace") != 0;
        args.threads = std::max<std::size_t>(1, parser.option_uint("threads"));
        args.cache_dir = parser.option("cache-dir");
        args.work_dir = parser.option("work-dir");
        args.out = parser.option("out");
        args.trace_out = parser.option("trace-out");
        args.reference_dir = parser.option("reference-dir");
        args.spec = parser.option("spec");
        args.write_reference = parser.flag("write-reference");
        return run(args);
    } catch (const std::exception& e) {
        std::fprintf(stderr, "ds_e2e: %s\n", e.what());
        return 1;
    }
}
