#include "sim/search.hpp"

#include <algorithm>
#include <cstring>
#include <memory>
#include <mutex>
#include <sstream>
#include <unordered_map>

#include "quant/weight_stream.hpp"
#include "sim/campaign.hpp"
#include "sim/golden_cache.hpp"
#include "sim/journal.hpp"
#include "util/error.hpp"
#include "util/metrics.hpp"
#include "util/rng.hpp"
#include "util/trace.hpp"

namespace deepstrike::sim {

namespace {

constexpr const char* kSearchSweepName = "weight-fault-search";

/// Consecutive evaluation images per fitness task. The partition into
/// blocks depends on this constant alone, so the drops and metric totals
/// are identical at any thread count.
constexpr std::size_t kFitnessBlockImages = 16;

std::string candidate_key(const attack::FaultSet& set) {
    std::string key;
    for (std::uint32_t index : set) {
        key += std::to_string(index);
        key += ',';
    }
    return key;
}

/// Counts correct predictions of `network` over images [begin, end) of
/// `golden`, resuming each image at layer `first_faulted` from its cached
/// golden activation (its quantized input when that is layer 0): the
/// layers before it are unfaulted. `first_faulted` == layer count means no
/// layer is faulted, so the golden predictions answer.
std::size_t correct_predictions(const quant::QNetwork& network,
                                const data::Dataset& test_set, const GoldenStore& golden,
                                std::size_t first_faulted, std::size_t begin,
                                std::size_t end) {
    std::size_t correct = 0;
    for (std::size_t i = begin; i < end; ++i) {
        const GoldenEntry& entry = golden.entries[i];
        std::size_t predicted = entry.predicted;
        if (first_faulted < network.layers.size()) {
            predicted = argmax(network.forward_from(
                first_faulted,
                first_faulted == 0 ? entry.qimage : entry.activations[first_faulted - 1]));
        }
        correct += predicted == test_set.labels[i] ? 1 : 0;
    }
    return correct;
}

/// `candidate` as `config`'s fault set.
std::vector<accel::WeightFault> candidate_faults(const attack::FaultSet& candidate,
                                                 const WeightFaultSearchConfig& config) {
    return accel::uniform_weight_faults(candidate, config.fault_kind,
                                        static_cast<std::uint8_t>(config.fault_bit));
}

/// The earliest layer `candidate` can fault under `config`'s fault model:
/// a duplication rewrites its whole beat, a bit flip only its own word.
std::size_t first_faulted_layer(const quant::WeightStreamView& view,
                                const attack::FaultSet& candidate,
                                const WeightFaultSearchConfig& config,
                                std::size_t layer_count) {
    const std::size_t block_words = config.fault_kind == accel::WeightFaultKind::Duplicate
                                        ? config.transfer.beat_words
                                        : 1;
    return view.first_faulted_layer(candidate, layer_count, block_words);
}

/// Working copies of the victim for fitness tasks. A task checks one out,
/// patches its candidate in, evaluates, restores the words it patched and
/// gives the copy back, so the pool holds at most one copy per task
/// running at once. A task that throws drops its copy instead.
class WorkingCopies {
public:
    explicit WorkingCopies(const quant::QNetwork& network) : network_(network) {}

    std::unique_ptr<quant::QNetwork> check_out() {
        {
            std::lock_guard<std::mutex> lock(mutex_);
            if (!free_.empty()) {
                std::unique_ptr<quant::QNetwork> copy = std::move(free_.back());
                free_.pop_back();
                return copy;
            }
        }
        return std::make_unique<quant::QNetwork>(network_);
    }

    void give_back(std::unique_ptr<quant::QNetwork> copy) {
        std::lock_guard<std::mutex> lock(mutex_);
        free_.push_back(std::move(copy));
    }

private:
    const quant::QNetwork& network_;
    std::mutex mutex_; // guards free_
    std::vector<std::unique_ptr<quant::QNetwork>> free_;
};

} // namespace

std::size_t weight_fault_correct(const quant::QNetwork& network,
                                 const data::Dataset& test_set, const GoldenStore& golden,
                                 const attack::FaultSet& candidate,
                                 const WeightFaultSearchConfig& config) {
    const quant::QNetwork faulted = accel::apply_weight_faults(
        network, candidate_faults(candidate, config), config.transfer);
    const std::size_t first = first_faulted_layer(quant::WeightStreamView(network),
                                                  candidate, config, network.layers.size());
    return correct_predictions(faulted, test_set, golden, first, 0, golden.size());
}

const char* weight_attack_name(accel::WeightFaultKind kind) {
    switch (kind) {
    case accel::WeightFaultKind::Duplicate: return "deep-dup";
    case accel::WeightFaultKind::BitFlip: return "deeplaser";
    }
    throw ConfigError("weight_attack_name: unknown fault kind");
}

accel::WeightFaultKind parse_weight_attack(const std::string& name) {
    if (name == "deep-dup" || name == "deepdup") {
        return accel::WeightFaultKind::Duplicate;
    }
    if (name == "deeplaser") return accel::WeightFaultKind::BitFlip;
    throw ConfigError("unknown attack family '" + name +
                      "' (expected deep-dup|deeplaser)");
}

Json SearchReport::to_json() const {
    Json json = Json::object();
    json.set("schema", "deepstrike.search.v1");
    json.set("algorithm", algorithm);
    json.set("attack", attack);
    json.set("space", static_cast<std::uint64_t>(space));
    json.set("eval_images", static_cast<std::uint64_t>(eval_images));
    json.set("clean_accuracy", clean_accuracy);
    json.set("clean_accuracy_bits", double_bits_hex(clean_accuracy));
    json.set("best_drop", best_drop);
    json.set("best_drop_bits", double_bits_hex(best_drop));
    Json best_json = Json::array();
    for (std::uint32_t index : best) {
        best_json.push(static_cast<std::uint64_t>(index));
    }
    json.set("best", std::move(best_json));
    json.set("faults", static_cast<std::uint64_t>(best.size()));
    json.set("evaluations", static_cast<std::uint64_t>(evaluations));
    json.set("generations", static_cast<std::uint64_t>(generations));
    json.set("stages", static_cast<std::uint64_t>(stages));
    json.set("reached_target", reached_target);
    Json curve = Json::array();
    for (double drop : convergence) curve.push(double_bits_hex(drop));
    json.set("convergence_bits", std::move(curve));
    return json;
}

std::string SearchReport::to_markdown() const {
    std::ostringstream out;
    out << "# Weight-fault search (" << attack << ", " << algorithm << ")\n\n";
    out << "- weight-stream indices searched: " << space << "\n";
    out << "- eval images: " << eval_images << "\n";
    out << "- clean accuracy: " << clean_accuracy << " %\n";
    out << "- best accuracy drop: " << best_drop << " points with "
        << best.size() << " fault(s)\n";
    out << "- fitness evaluations: " << evaluations << " over " << generations
        << " generation(s), " << stages << " stage(s)\n";
    out << "- target reached: " << (reached_target ? "yes" : "no") << "\n\n";
    out << "| fault # | stream index |\n|---|---|\n";
    for (std::size_t i = 0; i < best.size(); ++i) {
        out << "| " << (i + 1) << " | " << best[i] << " |\n";
    }
    return out.str();
}

std::uint64_t weight_fault_search_fingerprint(
    const quant::QNetwork& network, const data::Dataset& test_set,
    const WeightFaultSearchConfig& config) {
    const attack::SearchSpec& spec = config.spec;
    std::uint64_t fp = derive_seed(
        network_fingerprint(network),
        {dataset_fingerprint(test_set), spec.space, spec.max_faults, spec.population,
         spec.budget, spec.seed, spec.stall_generations});
    std::uint64_t target_bits = 0;
    std::memcpy(&target_bits, &spec.target_drop, sizeof target_bits);
    std::uint64_t f_bits = 0;
    std::memcpy(&f_bits, &spec.f_scale, sizeof f_bits);
    std::uint64_t cr_bits = 0;
    std::memcpy(&cr_bits, &spec.crossover, sizeof cr_bits);
    fp = derive_seed(fp, {target_bits, f_bits, cr_bits,
                          static_cast<std::uint64_t>(config.fault_kind),
                          config.fault_bit, config.transfer.beat_words,
                          config.eval_images});
    return fp;
}

SearchReport run_weight_fault_search(const quant::QNetwork& network,
                                     const data::Dataset& test_set,
                                     const WeightFaultSearchConfig& config,
                                     RunManifest* manifest) {
    trace::Span search_span("search", "search");
    if (config.eval_images == 0) throw ConfigError("search: zero eval images");
    if (config.transfer.beat_words == 0) throw ConfigError("search: zero beat words");
    if (config.fault_bit > 7) {
        throw ConfigError("search: fault bit " + std::to_string(config.fault_bit) +
                          " outside an 8-bit weight word");
    }

    const quant::WeightStreamView view(network);
    WeightFaultSearchConfig cfg = config;
    if (cfg.spec.space == 0) cfg.spec.space = view.size();
    if (cfg.spec.space != view.size()) {
        throw ConfigError("search: spec.space does not match the victim's "
                          "weight stream (" + std::to_string(view.size()) +
                          " words)");
    }
    cfg.spec.validate();
    expects(test_set.size() > 0, "search: non-empty test set");
    const std::size_t n_images = std::min(cfg.eval_images, test_set.size());

    SweepRunner runner(RunnerConfig{cfg.threads});

    // Golden slice: activations for prefix elision plus the clean
    // predictions the drop is measured against.
    const std::shared_ptr<const GoldenStore> golden =
        build_golden_store(network, test_set, n_images);
    const std::size_t layer_count = network.layers.size();
    const std::size_t clean_correct =
        correct_predictions(network, test_set, *golden, layer_count, 0, n_images);

    metrics::counter("search.runs", "runs", "weight-fault searches started").add();
    metrics::gauge("search.space", "words",
                   "weight-stream index domain of the current search")
        .set(static_cast<std::int64_t>(cfg.spec.space));

    // Candidate-level memoization: identical sets revisited by the search
    // answer from here; the logical budget still counts them.
    std::unordered_map<std::string, double> fitness_cache;
    std::size_t cache_hits = 0;

    WorkingCopies copies(network);
    const std::size_t n_blocks =
        (n_images + kFitnessBlockImages - 1) / kFitnessBlockImages;

    RunManifest aggregate;
    aggregate.sweep = kSearchSweepName;
    aggregate.threads = runner.threads();

    const auto evaluate_batch =
        [&](const std::vector<attack::FaultSet>& batch) -> std::vector<double> {
        // Unique uncached candidates become one SweepRunner batch.
        std::vector<const attack::FaultSet*> fresh;
        std::vector<std::string> fresh_keys;
        for (const attack::FaultSet& candidate : batch) {
            std::string key = candidate_key(candidate);
            if (fitness_cache.count(key) != 0 ||
                std::find(fresh_keys.begin(), fresh_keys.end(), key) !=
                    fresh_keys.end()) {
                continue;
            }
            fresh.push_back(&candidate);
            fresh_keys.push_back(std::move(key));
        }

        // Each fresh candidate is one task per block of kFitnessBlockImages
        // consecutive images; the tasks count correct predictions and the
        // counts add up per candidate, so the drops do not depend on how
        // the blocks were scheduled.
        std::vector<std::vector<accel::WeightFault>> faults(fresh.size());
        std::vector<std::size_t> first(fresh.size());
        std::vector<std::size_t> block_correct(fresh.size() * n_blocks, 0);
        std::vector<SweepTask> tasks;
        tasks.reserve(fresh.size() * n_blocks);
        for (std::size_t i = 0; i < fresh.size(); ++i) {
            faults[i] = candidate_faults(*fresh[i], cfg);
            first[i] = first_faulted_layer(view, *fresh[i], cfg, layer_count);
            for (std::size_t b = 0; b < n_blocks; ++b) {
                tasks.push_back(
                    {"candidate " + fresh_keys[i] + " block " + std::to_string(b),
                     [&, i, b] {
                         const std::size_t begin = b * kFitnessBlockImages;
                         const std::size_t end =
                             std::min(begin + kFitnessBlockImages, n_images);
                         std::unique_ptr<quant::QNetwork> copy = copies.check_out();
                         const std::vector<accel::StreamSpan> patched =
                             accel::patch_weight_faults(network, view, faults[i],
                                                        cfg.transfer, *copy);
                         block_correct[i * n_blocks + b] = correct_predictions(
                             *copy, test_set, *golden, first[i], begin, end);
                         accel::restore_weight_spans(network, view, patched, *copy);
                         copies.give_back(std::move(copy));
                     }});
            }
        }
        std::vector<double> fresh_drops(fresh.size(), 0.0);
        if (!tasks.empty()) {
            RunManifest mf = runner.run(kSearchSweepName, std::move(tasks));
            aggregate.total_seconds += mf.total_seconds;
            // One manifest point per candidate: its blocks' times add up.
            for (std::size_t i = 0; i < fresh.size(); ++i) {
                SweepPointStats point;
                point.label = "candidate " + fresh_keys[i];
                point.ok = true;
                std::size_t correct = 0;
                for (std::size_t b = 0; b < n_blocks; ++b) {
                    point.seconds += mf.points[i * n_blocks + b].seconds;
                    correct += block_correct[i * n_blocks + b];
                }
                aggregate.points.push_back(std::move(point));
                fresh_drops[i] = 100.0 *
                                 (static_cast<double>(clean_correct) -
                                  static_cast<double>(correct)) /
                                 static_cast<double>(n_images);
            }
        }
        for (std::size_t i = 0; i < fresh.size(); ++i) {
            fitness_cache.emplace(fresh_keys[i], fresh_drops[i]);
        }
        metrics::counter("search.candidates_evaluated", "candidates",
                         "fault-set fitness evaluations actually run")
            .add(fresh.size());

        std::vector<double> values;
        values.reserve(batch.size());
        for (const attack::FaultSet& candidate : batch) {
            const auto it = fitness_cache.find(candidate_key(candidate));
            expects(it != fitness_cache.end(), "search: candidate evaluated");
            values.push_back(it->second);
        }
        cache_hits += batch.size() - fresh.size();
        metrics::counter("search.fitness_cache.hits", "candidates",
                         "fitness evaluations answered by the candidate cache")
            .add(batch.size() - fresh.size());
        metrics::counter("search.fitness_cache.misses", "candidates",
                         "fitness evaluations that missed the candidate cache")
            .add(fresh.size());
        return values;
    };

    attack::SearchDriver driver(cfg.spec, evaluate_batch);

    // Journal: every generation's complete driver state is one record;
    // resume() feeds the recovered records back and the driver continues
    // from the newest one bit-exactly.
    const std::uint64_t fingerprint =
        weight_fault_search_fingerprint(network, test_set, cfg);
    std::unique_ptr<CheckpointJournal> journal;
    if (!cfg.journal_path.empty()) {
        if (cfg.resume) {
            journal = CheckpointJournal::resume(cfg.journal_path, fingerprint,
                                                kSearchSweepName);
            std::vector<Json> payloads;
            payloads.reserve(journal->recovered().size());
            for (const JournalRecord& rec : journal->recovered()) {
                payloads.push_back(rec.payload);
            }
            driver.restore(payloads);
            metrics::counter("search.generations_resumed", "generations",
                             "search generations restored from a journal")
                .add(payloads.size());
        } else {
            journal = CheckpointJournal::create(cfg.journal_path, fingerprint,
                                                kSearchSweepName);
        }
    }

    driver.set_observer([&](const attack::GenerationRecord& record) {
        trace::instant("search.generation", "search");
        metrics::counter("search.generations", "generations",
                         "search generations completed")
            .add();
        metrics::gauge("search.stage", "faults",
                       "fault-set size of the current search stage")
            .set(static_cast<std::int64_t>(record.stage));
        metrics::gauge(
            "search.best_drop_centipoints", "centipoints",
            "best accuracy drop found so far, in 1/100 percentage points")
            .set(static_cast<std::int64_t>(record.best_fitness * 100.0));
        if (journal) journal->append(record.index, record.to_json());
    });

    const attack::SearchResult result = driver.run();
    if (journal) {
        journal->flush();
        aggregate.journal = journal->path();
    }

    SearchReport report;
    report.algorithm = "des";
    report.attack = weight_attack_name(cfg.fault_kind);
    report.space = cfg.spec.space;
    report.eval_images = n_images;
    report.clean_accuracy =
        100.0 * static_cast<double>(clean_correct) / static_cast<double>(n_images);
    report.best_drop = result.best_fitness;
    report.best = result.best;
    report.evaluations = result.evaluations;
    report.generations = result.generations;
    report.stages = result.stages;
    report.reached_target = result.reached_target;
    report.fitness_cache_hits = cache_hits;
    report.convergence = result.convergence;
    if (manifest != nullptr) *manifest = std::move(aggregate);
    return report;
}

} // namespace deepstrike::sim
