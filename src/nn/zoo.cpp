#include "nn/zoo.hpp"

#include <cstdlib>
#include <filesystem>
#include <optional>
#include <sstream>

#include "nn/serialize.hpp"
#include "util/error.hpp"
#include "util/log.hpp"

namespace deepstrike::nn {

const std::vector<ArchitectureInfo>& architectures() {
    static const std::vector<ArchitectureInfo> table = {
        {Architecture::LeNet5, "lenet5",
         "the paper's LeNet-5 victim (conv-pool-conv-fc-fc, tanh)",
         Shape{1, 28, 28}, 10, /*binary_weights=*/false, /*learning_rate=*/0.05},
        {Architecture::MiniCnn, "minicnn",
         "compact CNN with a second pooling stage (conv-pool-conv-pool-fc-fc)",
         Shape{1, 28, 28}, 10, /*binary_weights=*/false, /*learning_rate=*/0.05},
        {Architecture::Mlp, "mlp",
         "3-layer perceptron (fc-fc-fc, no convolutions)",
         Shape{1, 28, 28}, 10, /*binary_weights=*/false, /*learning_rate=*/0.05},
        {Architecture::Bnn, "bnn",
         "binarized network: ±1 weights, sign activations (XNOR-popcount)",
         Shape{1, 28, 28}, 10, /*binary_weights=*/true, /*learning_rate=*/0.1},
    };
    return table;
}

const ArchitectureInfo& architecture_info(Architecture arch) {
    for (const ArchitectureInfo& info : architectures()) {
        if (info.arch == arch) return info;
    }
    throw ConfigError("architecture_info: unknown architecture");
}

const char* architecture_name(Architecture arch) {
    return architecture_info(arch).name;
}

std::string architecture_list_string() {
    std::string out;
    for (const ArchitectureInfo& info : architectures()) {
        if (!out.empty()) out += '|';
        out += info.name;
    }
    return out;
}

ZooTrainSpec zoo_spec(Architecture arch) {
    ZooTrainSpec spec;
    spec.architecture = arch;
    spec.train_config.learning_rate = architecture_info(arch).learning_rate;
    return spec;
}

Architecture parse_architecture(const std::string& name) {
    for (const ArchitectureInfo& info : architectures()) {
        if (name == info.name) return info.arch;
    }
    throw ConfigError("unknown architecture '" + name + "' (" +
                      architecture_list_string() + ")");
}

Sequential build_architecture(Architecture arch, Rng& rng) {
    Sequential model;
    switch (arch) {
        case Architecture::LeNet5:
            model.emplace<Conv2d>(1, 6, 5, rng);
            model.emplace<TanhActivation>();
            model.emplace<MaxPool2d>();
            model.emplace<Conv2d>(6, 16, 5, rng);
            model.emplace<TanhActivation>();
            model.emplace<Dense>(16 * 8 * 8, 120, rng);
            model.emplace<TanhActivation>();
            model.emplace<Dense>(120, 10, rng);
            return model;
        case Architecture::MiniCnn:
            // 28 -> conv5 -> 24 -> pool -> 12 -> conv3 -> 10 -> pool -> 5
            model.emplace<Conv2d>(1, 8, 5, rng);
            model.emplace<TanhActivation>();
            model.emplace<MaxPool2d>();
            model.emplace<Conv2d>(8, 16, 3, rng);
            model.emplace<TanhActivation>();
            model.emplace<MaxPool2d>();
            model.emplace<Dense>(16 * 5 * 5, 64, rng);
            model.emplace<TanhActivation>();
            model.emplace<Dense>(64, 10, rng);
            return model;
        case Architecture::Mlp:
            model.emplace<Dense>(28 * 28, 128, rng);
            model.emplace<TanhActivation>();
            model.emplace<Dense>(128, 64, rng);
            model.emplace<TanhActivation>();
            model.emplace<Dense>(64, 10, rng);
            return model;
        case Architecture::Bnn:
            // Binarized victim (Moini et al.): sign activations with
            // straight-through gradients, and BinaryConnect ±1 weights in
            // the hidden layers so float training matches the binary
            // deployment. The real-valued logits layer keeps a small
            // fan-in so ±1-product sums stay inside the Q3.4 accumulator
            // writeback range.
            // 28 -> conv5 -> 24 -> sign -> pool -> 12 -> fc -> sign -> fc
            model.emplace<Binarized<Conv2d>>(1, 12, 5, rng);
            model.emplace<SignActivation>();
            model.emplace<MaxPool2d>();
            model.emplace<Binarized<Dense>>(12 * 12 * 12, 32, rng);
            model.emplace<SignActivation>();
            model.emplace<Dense>(32, 10, rng);
            return model;
    }
    throw ConfigError("build_architecture: unknown architecture");
}

namespace {

std::filesystem::path resolve_cache_dir(const std::string& dir) {
    if (const char* env = std::getenv("DEEPSTRIKE_CACHE_DIR")) {
        return std::filesystem::path(env);
    }
    return std::filesystem::path(dir);
}

std::string cache_key(const ZooTrainSpec& spec) {
    std::ostringstream os;
    os << architecture_name(spec.architecture)
       << "_d" << spec.data_seed
       << "_tr" << spec.train_size
       << "_te" << spec.test_size
       << "_i" << spec.init_seed
       << "_e" << spec.train_config.epochs
       << "_b" << spec.train_config.batch_size
       << "_lr" << spec.train_config.learning_rate;
    return os.str();
}

/// Loads the cache file `path` into `model` and checks the key a DSW2
/// file stores (a DSW1 file stores none: its name is its key). Returns
/// nullopt when the file is absent or does not load (with a warning);
/// `model` may then be partly overwritten.
std::optional<WeightRecord> load_cached(Sequential& model, const std::filesystem::path& path,
                                        const std::string& key) {
    std::error_code ec;
    if (!std::filesystem::exists(path, ec)) return std::nullopt;
    try {
        WeightRecord record = load_weights(model, path.string());
        if (record.test_accuracy && record.key != key) {
            throw FormatError("weight file: stored key '" + record.key + "' is not '" + key +
                              "': " + path.string());
        }
        return record;
    } catch (const Error& e) {
        log_warn("zoo cache load failed (", e.what(), ")");
        return std::nullopt;
    }
}

} // namespace

TrainedModel train_or_load(const ZooTrainSpec& spec) {
    if (spec.train_size == 0 || spec.test_size == 0) {
        throw ConfigError("train_or_load: train and test sizes must be > 0");
    }

    const std::filesystem::path dir = resolve_cache_dir(spec.cache_dir);
    const std::string key = cache_key(spec);
    const std::filesystem::path file = dir / (key + ".dsw2");
    auto initial_model = [&spec] {
        Rng init_rng(spec.init_seed);
        return build_architecture(spec.architecture, init_rng);
    };

    // A hit reads the stored accuracy: nothing is rendered or scored.
    TrainedModel result;
    result.model = initial_model();
    if (const auto record = load_cached(result.model, file, key); record && record->test_accuracy) {
        result.test_accuracy = *record->test_accuracy;
        result.loaded_from_cache = true;
        return result;
    }

    // Weights cached as DSW1 under the old name carry no accuracy: they are
    // scored once and stored again as DSW2. The DSW1 file stays as it is,
    // for builds that still read it.
    result.model = initial_model();
    result.loaded_from_cache = load_cached(result.model, dir / (key + ".dsw"), key).has_value();
    if (!result.loaded_from_cache) {
        // A failed load may have overwritten some parameters: retrain from
        // the same initial weights a clean cache miss starts from.
        result.model = initial_model();
        log_info("training ", architecture_name(spec.architecture), " (", spec.train_size,
                 " samples, ", spec.train_config.epochs, " epochs)...");
        train(result.model, data::make_datasets(spec.data_seed, spec.train_size, 0).train,
              spec.train_config);
    }
    result.test_accuracy = evaluate_accuracy(
        result.model, data::make_datasets(spec.data_seed, 0, spec.test_size).test);
    log_info(result.loaded_from_cache ? "scored DSW1 cache of " : "trained ",
             architecture_name(spec.architecture), " test accuracy: ", result.test_accuracy);

    std::error_code ec;
    std::filesystem::create_directories(dir, ec);
    try {
        save_weights(result.model, file.string(), key, result.test_accuracy);
    } catch (const Error& e) {
        log_warn("could not persist zoo cache: ", e.what());
    }
    return result;
}

} // namespace deepstrike::nn
