#include "sim/search.hpp"

#include <algorithm>
#include <chrono>
#include <cstring>
#include <memory>
#include <mutex>
#include <span>
#include <sstream>
#include <unordered_map>

#include "quant/gemm.hpp"
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

/// `candidate` as `config`'s fault set.
std::vector<accel::WeightFault> candidate_faults(const attack::FaultSet& candidate,
                                                 const WeightFaultSearchConfig& config) {
    return accel::uniform_weight_faults(candidate, config.fault_kind,
                                        static_cast<std::uint8_t>(config.fault_bit));
}

/// Working copies of the victim for fitness tasks. A task checks one out,
/// patches each of its candidates in, evaluates, restores the words it
/// patched and gives the copy back, so the pool holds at most one copy per
/// task running at once. A task that throws drops its copy instead.
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

/// A fault prefix's stored evaluation state at one resume layer r: each
/// evaluation image's input to layer r under the prefix's faults and, when
/// layer r is dense, the dot products of layer r's unfaulted weight rows
/// with that input.
struct PrefixEntry {
    /// The prefix's rewritten spans, sorted; empty for the golden entry.
    /// The search's faults share one fault model, so a begin names its span.
    std::vector<accel::StreamSpan> key;
    std::vector<QTensor> inputs;     // per evaluation image
    std::vector<std::int32_t> dots;  // image i's at i * PrefixStore::dots_per_image
    std::uint64_t last_used = 0;     // serial of the last batch that referenced it
};

/// The entries of one resume layer: layer 0, or a Conv/Dense layer. A
/// candidate's prefix at layer r is its rewritten spans that begin before
/// layer r's first stream word, so the prefix fixes every weight the
/// layers before r read.
struct PrefixStore {
    std::size_t layer = 0;
    std::size_t stream_begin = 0;   // stream index of layer r's first word
    std::size_t dots_per_image = 0; // layer r's outputs when it is dense, else 0
    Shape input_shape;
    /// [0] is the golden (empty-prefix) entry, never evicted; at most
    /// kPrefixStoreEntries others follow.
    std::vector<std::unique_ptr<PrefixEntry>> entries;
};

/// Whether two span lists name the same spans.
bool same_spans(std::span<const accel::StreamSpan> a, std::span<const accel::StreamSpan> b) {
    return std::equal(a.begin(), a.end(), b.begin(), b.end(),
                      [](const accel::StreamSpan& x, const accel::StreamSpan& y) {
                          return x.begin == y.begin;
                      });
}

/// Row range [begin, end) of a dense layer's weight.
struct RowRange {
    std::size_t begin = 0;
    std::size_t end = 0;
};

/// One pass over a block's images, resumed from a stored entry: the fill
/// of a new entry (`fill` set; `stop` is its store's layer) or a
/// candidate's predictions (`stop` is the layer count).
struct Job {
    std::vector<accel::WeightFault> faults; // patched into the working copy
    const PrefixEntry* from = nullptr;      // null: the quantized images
    std::size_t resume = 0;                 // layer whose input `from` holds
    std::vector<RowRange> rows;             // rows of a dense resume layer to recompute
    PrefixEntry* fill = nullptr;
    std::size_t stop = 0;
};

} // namespace

struct WeightFaultFitness::Impl {
    Impl(const quant::QNetwork& network, const data::Dataset& test_set,
         const WeightFaultSearchConfig& config, SweepRunner& runner);

    /// Sorted distinct non-empty rewritten spans of `faults`.
    std::vector<accel::StreamSpan> spans_of(const std::vector<accel::WeightFault>& faults) const;
    /// The first spans of `spans`: those beginning before `store`'s layer.
    static std::span<const accel::StreamSpan> prefix(const PrefixStore& store,
                                                     const std::vector<accel::StreamSpan>& spans);
    /// The entry of `store` holding `key`, or null.
    static PrefixEntry* find(const PrefixStore& store, std::span<const accel::StreamSpan> key);
    /// Points `job` at the deepest entry below store `below` holding a
    /// prefix of `spans`, and lists the rows of a dense resume layer that
    /// `spans` rewrite.
    void resume_job(Job& job, const std::vector<accel::StreamSpan>& spans,
                    std::size_t below) const;
    /// A new entry of `store` for `key`, its buffers allocated here (on the
    /// planning thread).
    PrefixEntry& add_entry(PrefixStore& store, std::span<const accel::StreamSpan> key);
    /// The jobs of one batch: the new entries' fills, then one job per
    /// candidate. Evicts and adds entries.
    std::vector<Job> plan(std::vector<std::vector<accel::WeightFault>> faults);
    /// Runs `jobs`, one task per block of images, and returns each candidate
    /// job's correct predictions. When `manifest` is non-null it gains the
    /// batch's wall time and one point per candidate job, labelled by
    /// `batch`, with its blocks' task times summed.
    std::vector<std::size_t> run(const std::vector<Job>& jobs,
                                 const std::vector<attack::FaultSet>& batch,
                                 RunManifest* manifest);
    /// Layer job.stop's input for image i (the logits when stop is the
    /// layer count), on `net`, which holds the job's faults.
    QTensor forward(const Job& job, const quant::QNetwork& net, std::size_t i) const;

    const quant::QNetwork& network;
    const data::Dataset& test_set;
    const quant::WeightStreamView view;
    const WeightFaultSearchConfig config;
    SweepRunner& runner;
    const std::size_t n_images;
    const std::size_t n_blocks;
    std::vector<PrefixStore> stores;
    WorkingCopies copies;
    std::size_t clean = 0;
    std::uint64_t serial = 0; // batches planned
};

WeightFaultFitness::Impl::Impl(const quant::QNetwork& network_, const data::Dataset& test_set_,
                               const WeightFaultSearchConfig& config_, SweepRunner& runner_)
    : network(network_), test_set(test_set_), view(network_), config(config_),
      runner(runner_), n_images(std::min(config_.eval_images, test_set_.size())),
      n_blocks((n_images + kFitnessBlockImages - 1) / kFitnessBlockImages),
      copies(network_) {
    expects(n_images > 0, "WeightFaultFitness: at least one evaluation image");
    // One store per resume layer, each seeded with its golden entry; one
    // batch fills them, each from the one before it, and scores the clean
    // network from the deepest.
    const std::vector<Shape> shapes = network.layer_output_shapes();
    std::vector<Job> jobs;
    for (std::size_t r = 0; r < network.layers.size(); ++r) {
        const quant::QLayer& layer = network.layers[r];
        const bool weighted =
            layer.kind == quant::QLayerKind::Conv || layer.kind == quant::QLayerKind::Dense;
        if (r > 0 && !weighted) continue;
        PrefixStore& store = stores.emplace_back();
        store.layer = r;
        for (const quant::WeightStreamView::LayerSpan& span : view.spans()) {
            if (span.layer < r) store.stream_begin += span.count;
        }
        store.dots_per_image =
            layer.kind == quant::QLayerKind::Dense ? layer.weight.shape().dim(0) : 0;
        store.input_shape = r == 0 ? network.input_shape : shapes[r - 1];
        Job& fill = jobs.emplace_back();
        fill.fill = &add_entry(store, {});
        fill.stop = r;
        if (r > 0) resume_job(fill, {}, stores.size() - 1);
    }
    Job& clean_job = jobs.emplace_back();
    clean_job.stop = network.layers.size();
    resume_job(clean_job, {}, stores.size());
    clean = run(jobs, {}, nullptr).front();
}

std::vector<accel::StreamSpan> WeightFaultFitness::Impl::spans_of(
    const std::vector<accel::WeightFault>& faults) const {
    std::vector<accel::StreamSpan> spans;
    for (const accel::WeightFault& fault : faults) {
        expects(fault.index < view.size(), "WeightFault: stream index within the weight stream");
        const accel::StreamSpan span =
            accel::rewritten_span(fault, view.size(), config.transfer);
        if (!span.empty()) spans.push_back(span);
    }
    std::sort(spans.begin(), spans.end(),
              [](const accel::StreamSpan& a, const accel::StreamSpan& b) {
                  return a.begin < b.begin;
              });
    spans.erase(std::unique(spans.begin(), spans.end(),
                            [](const accel::StreamSpan& a, const accel::StreamSpan& b) {
                                return a.begin == b.begin;
                            }),
                spans.end());
    return spans;
}

std::span<const accel::StreamSpan> WeightFaultFitness::Impl::prefix(
    const PrefixStore& store, const std::vector<accel::StreamSpan>& spans) {
    const auto end = std::partition_point(
        spans.begin(), spans.end(),
        [&](const accel::StreamSpan& span) { return span.begin < store.stream_begin; });
    return {spans.begin(), end};
}

PrefixEntry* WeightFaultFitness::Impl::find(const PrefixStore& store,
                                            std::span<const accel::StreamSpan> key) {
    for (const std::unique_ptr<PrefixEntry>& entry : store.entries) {
        if (same_spans(entry->key, key)) return entry.get();
    }
    return nullptr;
}

void WeightFaultFitness::Impl::resume_job(Job& job,
                                          const std::vector<accel::StreamSpan>& spans,
                                          std::size_t below) const {
    for (std::size_t s = below; s-- > 0;) {
        const PrefixStore& store = stores[s];
        const PrefixEntry* entry = find(store, prefix(store, spans));
        if (entry == nullptr) continue;
        job.from = entry;
        job.resume = store.layer;
        if (store.dots_per_image == 0) return;
        const std::size_t offset = store.stream_begin;
        const std::size_t in_n = network.layers[store.layer].weight.shape().dim(1);
        const std::size_t end = offset + network.layers[store.layer].weight.size();
        for (const accel::StreamSpan& span : spans) {
            if (span.end <= offset || span.begin >= end) continue;
            const RowRange rows{(std::max(span.begin, offset) - offset) / in_n,
                                (std::min(span.end, end) - 1 - offset) / in_n + 1};
            if (!job.rows.empty() && rows.begin <= job.rows.back().end) {
                job.rows.back().end = std::max(job.rows.back().end, rows.end);
            } else {
                job.rows.push_back(rows);
            }
        }
        return;
    }
    throw ContractError("WeightFaultFitness: every prefix resumes from a stored entry");
}

PrefixEntry& WeightFaultFitness::Impl::add_entry(PrefixStore& store,
                                                 std::span<const accel::StreamSpan> key) {
    auto entry = std::make_unique<PrefixEntry>();
    entry->key.assign(key.begin(), key.end());
    entry->inputs.assign(n_images, QTensor(store.input_shape));
    entry->dots.resize(n_images * store.dots_per_image);
    entry->last_used = serial;
    return *store.entries.emplace_back(std::move(entry));
}

QTensor WeightFaultFitness::Impl::forward(const Job& job, const quant::QNetwork& net,
                                          std::size_t i) const {
    if (job.from == nullptr) return quant::quantize_image(test_set.images[i]);
    const quant::QLayer& first = net.layers[job.resume];
    const QTensor& input = job.from->inputs[i];
    QTensor x;
    if (first.kind == quant::QLayerKind::Dense) {
        const std::size_t n = first.weight.shape().dim(0);
        thread_local std::vector<std::int32_t> dots;
        dots.assign(job.from->dots.begin() + static_cast<std::ptrdiff_t>(i * n),
                    job.from->dots.begin() + static_cast<std::ptrdiff_t>((i + 1) * n));
        for (const RowRange& rows : job.rows) {
            quant::gemm::dense_dots(input, first.weight, rows.begin, rows.end - rows.begin,
                                    dots.data() + rows.begin);
        }
        x = quant::gemm::dense_finish(dots.data(), first.bias, first.activation);
    } else {
        x = first.forward(input);
    }
    for (std::size_t l = job.resume + 1; l < job.stop; ++l) x = net.layers[l].forward(x);
    return x;
}

std::vector<std::size_t> WeightFaultFitness::Impl::run(
    const std::vector<Job>& jobs, const std::vector<attack::FaultSet>& batch,
    RunManifest* manifest) {
    std::vector<std::size_t> candidates; // job index of each candidate job
    for (std::size_t j = 0; j < jobs.size(); ++j) {
        if (jobs[j].fill == nullptr) candidates.push_back(j);
    }
    std::vector<std::size_t> block_correct(candidates.size() * n_blocks, 0);
    std::vector<double> block_seconds(candidates.size() * n_blocks, 0.0);
    std::vector<SweepTask> tasks;
    tasks.reserve(n_blocks);
    for (std::size_t b = 0; b < n_blocks; ++b) {
        tasks.push_back({"fitness block " + std::to_string(b), [&, b] {
            const std::size_t begin = b * kFitnessBlockImages;
            const std::size_t end = std::min(begin + kFitnessBlockImages, n_images);
            std::unique_ptr<quant::QNetwork> copy = copies.check_out();
            std::size_t c = 0;
            for (const Job& job : jobs) {
                const auto t0 = std::chrono::steady_clock::now();
                const std::vector<accel::StreamSpan> patched = accel::patch_weight_faults(
                    network, view, job.faults, config.transfer, *copy);
                std::size_t hits = 0;
                for (std::size_t i = begin; i < end; ++i) {
                    QTensor x = forward(job, *copy, i);
                    if (job.fill == nullptr) {
                        hits += argmax(x) == test_set.labels[i] ? 1 : 0;
                        continue;
                    }
                    std::copy(x.begin(), x.end(), job.fill->inputs[i].begin());
                    const quant::QLayer& layer = network.layers[job.stop];
                    if (layer.kind == quant::QLayerKind::Dense) {
                        const std::size_t n = layer.weight.shape().dim(0);
                        quant::gemm::dense_dots(x, layer.weight, 0, n,
                                                job.fill->dots.data() + i * n);
                    }
                }
                accel::restore_weight_spans(network, view, patched, *copy);
                if (job.fill != nullptr) continue;
                block_correct[c * n_blocks + b] = hits;
                block_seconds[c * n_blocks + b] = std::chrono::duration<double>(
                                                      std::chrono::steady_clock::now() - t0)
                                                      .count();
                ++c;
            }
            copies.give_back(std::move(copy));
        }});
    }
    const RunManifest mf = runner.run(kSearchSweepName, std::move(tasks));
    std::vector<std::size_t> correct(candidates.size(), 0);
    for (std::size_t c = 0; c < candidates.size(); ++c) {
        SweepPointStats point;
        for (std::size_t b = 0; b < n_blocks; ++b) {
            correct[c] += block_correct[c * n_blocks + b];
            point.seconds += block_seconds[c * n_blocks + b];
        }
        if (manifest == nullptr) continue;
        point.label = "candidate " + candidate_key(batch[c]);
        point.ok = true;
        manifest->points.push_back(std::move(point));
    }
    if (manifest != nullptr) manifest->total_seconds += mf.total_seconds;
    return correct;
}

std::vector<Job> WeightFaultFitness::Impl::plan(
    std::vector<std::vector<accel::WeightFault>> faults) {
    serial += 1;
    std::vector<std::vector<accel::StreamSpan>> spans;
    for (const std::vector<accel::WeightFault>& set : faults) spans.push_back(spans_of(set));

    // One store at a time from the shallowest: keep every entry a
    // candidate's prefix names, then give the prefixes most candidates
    // share (two at least) new entries, evicting the least recently named
    // entries to keep kPrefixStoreEntries per store. A new entry is filled
    // from the deepest entry below it, which the steps before planned.
    std::vector<Job> jobs;
    std::size_t evictions = 0;
    for (std::size_t s = 1; s < stores.size(); ++s) {
        PrefixStore& store = stores[s];
        std::vector<std::vector<std::size_t>> groups; // candidates per new prefix
        for (std::size_t k = 0; k < faults.size(); ++k) {
            const std::span<const accel::StreamSpan> key = prefix(store, spans[k]);
            if (key.empty()) continue;
            if (PrefixEntry* entry = find(store, key)) {
                entry->last_used = serial;
                continue;
            }
            const auto same = std::find_if(groups.begin(), groups.end(), [&](const auto& group) {
                return same_spans(prefix(store, spans[group.front()]), key);
            });
            if (same == groups.end()) {
                groups.push_back({k});
            } else {
                same->push_back(k);
            }
        }
        std::stable_sort(groups.begin(), groups.end(),
                         [](const auto& a, const auto& b) { return a.size() > b.size(); });
        std::erase_if(groups, [](const auto& group) { return group.size() < 2; });

        // Entries no candidate named, least recently named first.
        std::vector<std::size_t> idle;
        for (std::size_t e = 1; e < store.entries.size(); ++e) {
            if (store.entries[e]->last_used != serial) idle.push_back(e);
        }
        std::stable_sort(idle.begin(), idle.end(), [&](std::size_t a, std::size_t b) {
            return store.entries[a]->last_used < store.entries[b]->last_used;
        });
        const std::size_t stored = store.entries.size() - 1;
        const std::size_t added =
            std::min(groups.size(), kPrefixStoreEntries - (stored - idle.size()));
        const std::size_t evict =
            stored + added > kPrefixStoreEntries ? stored + added - kPrefixStoreEntries : 0;
        for (std::size_t e = 0; e < evict; ++e) store.entries[idle[e]].reset();
        std::erase(store.entries, nullptr);
        evictions += evict;

        for (std::size_t g = 0; g < added; ++g) {
            const std::size_t k = groups[g].front();
            Job& job = jobs.emplace_back();
            for (const accel::WeightFault& fault : faults[k]) {
                const accel::StreamSpan span =
                    accel::rewritten_span(fault, view.size(), config.transfer);
                if (!span.empty() && span.begin < store.stream_begin) job.faults.push_back(fault);
            }
            job.fill = &add_entry(store, prefix(store, spans[k]));
            job.stop = store.layer;
            resume_job(job, job.fill->key, s);
        }
    }
    const std::size_t fills = jobs.size();
    std::size_t resumes = 0;
    for (std::size_t k = 0; k < faults.size(); ++k) {
        Job& job = jobs.emplace_back();
        job.faults = std::move(faults[k]);
        job.stop = network.layers.size();
        resume_job(job, spans[k], stores.size());
        resumes += job.from->key.empty() ? 0 : 1;
    }
    metrics::counter("search.prefix_store.fills", "entries",
                     "prefix-store entries filled for a non-empty fault prefix")
        .add(fills);
    metrics::counter("search.prefix_store.evictions", "entries",
                     "prefix-store entries evicted to make room for new ones")
        .add(evictions);
    metrics::counter("search.prefix_store.resumes", "candidates",
                     "fresh candidates resumed from a stored non-empty fault prefix")
        .add(resumes);
    return jobs;
}

WeightFaultFitness::WeightFaultFitness(const quant::QNetwork& network,
                                       const data::Dataset& test_set,
                                       const WeightFaultSearchConfig& config,
                                       SweepRunner& runner)
    : impl_(std::make_unique<Impl>(network, test_set, config, runner)) {}

WeightFaultFitness::~WeightFaultFitness() = default;

std::size_t WeightFaultFitness::clean_correct() const { return impl_->clean; }

std::vector<std::size_t> WeightFaultFitness::correct(const std::vector<attack::FaultSet>& batch,
                                                     RunManifest* manifest) {
    std::vector<std::vector<accel::WeightFault>> faults;
    for (const attack::FaultSet& candidate : batch) {
        faults.push_back(candidate_faults(candidate, impl_->config));
    }
    return impl_->run(impl_->plan(std::move(faults)), batch, manifest);
}

std::size_t weight_fault_correct(const quant::QNetwork& network,
                                 const data::Dataset& test_set, const GoldenStore& golden,
                                 const attack::FaultSet& candidate,
                                 const WeightFaultSearchConfig& config) {
    const std::vector<accel::WeightFault> faults = candidate_faults(candidate, config);
    const quant::QNetwork faulted = accel::apply_weight_faults(network, faults, config.transfer);
    const std::size_t first = accel::first_faulted_layer(
        quant::WeightStreamView(network), faults, config.transfer, network.layers.size());
    std::size_t correct = 0;
    for (std::size_t i = 0; i < golden.size(); ++i) {
        const GoldenEntry& entry = golden.entries[i];
        std::size_t predicted = entry.predicted;
        if (first < network.layers.size()) {
            predicted = argmax(faulted.forward_from(
                first, first == 0 ? entry.qimage : entry.activations[first - 1]));
        }
        correct += predicted == test_set.labels[i] ? 1 : 0;
    }
    return correct;
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

    // Fills the golden prefix stores and scores the clean network: the
    // predictions the drops are measured against.
    WeightFaultFitness fitness(network, test_set, cfg, runner);
    const std::size_t clean_correct = fitness.clean_correct();

    metrics::counter("search.runs", "runs", "weight-fault searches started").add();
    metrics::gauge("search.space", "words",
                   "weight-stream index domain of the current search")
        .set(static_cast<std::int64_t>(cfg.spec.space));

    // Candidate-level memoization: identical sets revisited by the search
    // answer from here; the logical budget still counts them.
    std::unordered_map<std::string, double> fitness_cache;
    std::size_t cache_hits = 0;

    RunManifest aggregate;
    aggregate.sweep = kSearchSweepName;
    aggregate.threads = runner.threads();

    const auto evaluate_batch =
        [&](const std::vector<attack::FaultSet>& batch) -> std::vector<double> {
        // Unique uncached candidates are scored as one batch.
        std::vector<attack::FaultSet> fresh;
        std::vector<std::string> fresh_keys;
        for (const attack::FaultSet& candidate : batch) {
            std::string key = candidate_key(candidate);
            if (fitness_cache.count(key) != 0 ||
                std::find(fresh_keys.begin(), fresh_keys.end(), key) !=
                    fresh_keys.end()) {
                continue;
            }
            fresh.push_back(candidate);
            fresh_keys.push_back(std::move(key));
        }
        if (!fresh.empty()) {
            const std::vector<std::size_t> correct = fitness.correct(fresh, &aggregate);
            for (std::size_t i = 0; i < fresh.size(); ++i) {
                fitness_cache.emplace(fresh_keys[i],
                                      100.0 *
                                          (static_cast<double>(clean_correct) -
                                           static_cast<double>(correct[i])) /
                                          static_cast<double>(n_images));
            }
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
