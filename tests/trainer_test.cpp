#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <limits>

#include "nn/zoo.hpp"
#include "nn/serialize.hpp"
#include "nn/trainer.hpp"
#include "util/error.hpp"
#include "util/parallel.hpp"

namespace deepstrike::nn {
namespace {

namespace fs = std::filesystem;

std::string read_bytes(const fs::path& path) {
    std::ifstream in(path, std::ios::binary);
    return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

void write_bytes(const fs::path& path, const std::string& bytes) {
    std::ofstream(path, std::ios::binary | std::ios::trunc) << bytes;
}

/// Every parameter's float bytes, in order.
std::string weight_bytes(Sequential& model) {
    std::string out;
    for (Parameter* p : model.parameters()) {
        out.append(reinterpret_cast<const char*>(p->value.data()),
                   p->value.size() * sizeof(float));
    }
    return out;
}

/// A 40-image, one-epoch LeNet-5 spec caching under a fresh `dir`.
ZooTrainSpec tiny_spec(const fs::path& dir, std::size_t test_size) {
    fs::remove_all(dir);
    ZooTrainSpec spec;
    spec.train_size = 40;
    spec.test_size = test_size;
    spec.train_config.epochs = 1;
    spec.cache_dir = dir.string();
    return spec;
}

/// The one weight file train_or_load wrote under `dir`.
fs::path cache_file(const fs::path& dir) {
    std::vector<fs::path> files;
    for (const auto& entry : fs::directory_iterator(dir)) files.push_back(entry.path());
    EXPECT_EQ(files.size(), 1u);
    return files.empty() ? fs::path() : files.front();
}

/// Tiny easy dataset: 60 clean samples (augmentation off) so a few epochs
/// converge fast in unit-test time.
data::Dataset easy_dataset(std::size_t n) {
    data::AugmentParams mild;
    mild.noise_sigma = 0.02;
    mild.max_shift_px = 0.5;
    mild.min_scale = 0.97;
    mild.max_scale = 1.03;
    mild.max_rotate_rad = 0.03;
    mild.max_shear = 0.02;
    mild.min_stroke = 0.9;
    data::Dataset ds;
    for (std::size_t i = 0; i < n; ++i) {
        data::Sample s = data::render_sample(1234, i, mild);
        ds.images.push_back(std::move(s.image));
        ds.labels.push_back(s.label);
    }
    return ds;
}

TEST(Trainer, LossDecreasesAndAccuracyImproves) {
    Rng rng(55);
    Sequential net = build_architecture(Architecture::LeNet5, rng);
    data::Dataset train_set = easy_dataset(60);

    TrainConfig config;
    config.epochs = 3;
    config.batch_size = 10;
    config.learning_rate = 0.08;

    const double acc_before = evaluate_accuracy(net, train_set);
    const auto history = train(net, train_set, config);
    const double acc_after = evaluate_accuracy(net, train_set);

    ASSERT_EQ(history.size(), 3u);
    EXPECT_LT(history.back().mean_loss, history.front().mean_loss);
    EXPECT_GT(acc_after, acc_before);
    EXPECT_GT(acc_after, 0.8);
}

TEST(Trainer, DeterministicGivenSeeds) {
    data::Dataset train_set = easy_dataset(30);
    TrainConfig config;
    config.epochs = 1;
    config.batch_size = 10;

    Rng rng_a(77);
    Sequential a = build_architecture(Architecture::LeNet5, rng_a);
    Rng rng_b(77);
    Sequential b = build_architecture(Architecture::LeNet5, rng_b);

    const auto ha = train(a, train_set, config);
    const auto hb = train(b, train_set, config);
    EXPECT_DOUBLE_EQ(ha[0].mean_loss, hb[0].mean_loss);
    // Weights identical after training.
    auto pa = a.parameters();
    auto pb = b.parameters();
    ASSERT_EQ(pa.size(), pb.size());
    for (std::size_t i = 0; i < pa.size(); ++i) {
        EXPECT_EQ(pa[i]->value, pb[i]->value);
    }
}

TEST(Trainer, RejectsEmptyDataset) {
    Rng rng(1);
    Sequential net = build_architecture(Architecture::LeNet5, rng);
    data::Dataset empty;
    EXPECT_THROW(train(net, empty, {}), ContractError);
    EXPECT_THROW(evaluate_accuracy(net, empty), ContractError);
}

TEST(Serialize, RoundTrip) {
    namespace fs = std::filesystem;
    const fs::path path = fs::temp_directory_path() / "ds_weights_roundtrip.dsw";

    Rng rng_a(91);
    Sequential a = build_architecture(Architecture::LeNet5, rng_a);
    save_weights(a, path.string());

    Rng rng_b(92); // different init
    Sequential b = build_architecture(Architecture::LeNet5, rng_b);
    load_weights(b, path.string());

    auto pa = a.parameters();
    auto pb = b.parameters();
    for (std::size_t i = 0; i < pa.size(); ++i) {
        EXPECT_EQ(pa[i]->value, pb[i]->value);
    }
    fs::remove(path);
}

TEST(Serialize, RejectsBadMagic) {
    namespace fs = std::filesystem;
    const fs::path path = fs::temp_directory_path() / "ds_weights_badmagic.dsw";
    {
        std::FILE* f = std::fopen(path.string().c_str(), "wb");
        ASSERT_NE(f, nullptr);
        std::fputs("NOTAWEIGHTFILE", f);
        std::fclose(f);
    }
    Rng rng(93);
    Sequential net = build_architecture(Architecture::LeNet5, rng);
    EXPECT_THROW(load_weights(net, path.string()), FormatError);
    fs::remove(path);
}

TEST(Serialize, RejectsTruncatedFile) {
    namespace fs = std::filesystem;
    const fs::path path = fs::temp_directory_path() / "ds_weights_trunc.dsw";
    Rng rng(94);
    Sequential net = build_architecture(Architecture::LeNet5, rng);
    save_weights(net, path.string());

    // Truncate to half size.
    const auto full = fs::file_size(path);
    fs::resize_file(path, full / 2);
    EXPECT_THROW(load_weights(net, path.string()), FormatError);
    fs::remove(path);
}

TEST(Serialize, RejectsTrailingBytes) {
    const fs::path path = fs::temp_directory_path() / "ds_weights_trailing.dsw";
    Rng rng(97);
    Sequential net = build_architecture(Architecture::LeNet5, rng);
    save_weights(net, path.string());
    write_bytes(path, read_bytes(path) + '\0');
    EXPECT_THROW(load_weights(net, path.string()), FormatError);
    fs::remove(path);
}

// Quantization has no code for a NaN or infinite weight, so the loader
// rejects a file holding one wherever it sits: rows put each kind at the
// file's first and last weight.
TEST(Serialize, RejectsNonFiniteWeights) {
    const fs::path path = fs::temp_directory_path() / "ds_weights_nonfinite.dsw";
    Rng rng(98);
    Sequential net = build_architecture(Architecture::LeNet5, rng);
    save_weights(net, path.string());
    const std::string clean = read_bytes(path);
    const std::size_t first = 12; // after the magic, the count and the first size
    const std::size_t last = clean.size() - sizeof(float);
    constexpr float inf = std::numeric_limits<float>::infinity();
    const struct {
        const char* name;
        float value;
        std::size_t offset;
    } rows[] = {
        {"quiet NaN, first weight", std::numeric_limits<float>::quiet_NaN(), first},
        {"signaling NaN, last weight", std::numeric_limits<float>::signaling_NaN(), last},
        {"+inf, last weight", inf, last},
        {"-inf, first weight", -inf, first},
    };
    for (const auto& row : rows) {
        std::string bytes = clean;
        std::memcpy(bytes.data() + row.offset, &row.value, sizeof(float));
        write_bytes(path, bytes);
        EXPECT_THROW(load_weights(net, path.string()), FormatError) << row.name;
    }
    write_bytes(path, clean);
    EXPECT_NO_THROW(load_weights(net, path.string()));
    fs::remove(path);
}

TEST(Serialize, RejectsWrongArchitecture) {
    namespace fs = std::filesystem;
    const fs::path path = fs::temp_directory_path() / "ds_weights_arch.dsw";
    Rng rng(95);
    Sequential net = build_architecture(Architecture::LeNet5, rng);
    save_weights(net, path.string());

    // A different (smaller) model must refuse these weights.
    Sequential other;
    other.emplace<Dense>(10, 4, rng);
    EXPECT_THROW(load_weights(other, path.string()), FormatError);
    fs::remove(path);
}

TEST(Serialize, MissingFileThrowsIoError) {
    Rng rng(96);
    Sequential net = build_architecture(Architecture::LeNet5, rng);
    EXPECT_THROW(load_weights(net, "/nonexistent/path.dsw"), IoError);
}

TEST(TrainOrLoad, UsesCacheOnSecondCall) {
    namespace fs = std::filesystem;
    const fs::path dir = fs::temp_directory_path() / "ds_cache_test";
    fs::remove_all(dir);

    ZooTrainSpec spec;
    spec.train_size = 40;
    spec.test_size = 20;
    spec.train_config.epochs = 1;
    spec.cache_dir = dir.string();

    const TrainedModel first = train_or_load(spec);
    EXPECT_FALSE(first.loaded_from_cache);
    const TrainedModel second = train_or_load(spec);
    EXPECT_TRUE(second.loaded_from_cache);
    EXPECT_DOUBLE_EQ(first.test_accuracy, second.test_accuracy);
    fs::remove_all(dir);
}

TEST(TrainOrLoad, CorruptCacheRetrainsLikeCleanMiss) {
    const fs::path dir = fs::temp_directory_path() / "ds_cache_corrupt_test";
    const ZooTrainSpec spec = tiny_spec(dir, 20);
    TrainedModel clean = train_or_load(spec);
    ASSERT_FALSE(clean.loaded_from_cache);
    const fs::path file = cache_file(dir);
    const std::string clean_file = read_bytes(file);
    const std::string clean_weights = weight_bytes(clean.model);

    const std::string truncated = clean_file.substr(0, clean_file.size() - 100);
    const std::string extended = clean_file + 'x';
    for (const std::string* corrupt : {&truncated, &extended}) {
        SCOPED_TRACE(corrupt == &truncated ? "truncated cache" : "cache with a trailing byte");
        write_bytes(file, *corrupt);
        TrainedModel retrained = train_or_load(spec);
        EXPECT_FALSE(retrained.loaded_from_cache);
        EXPECT_TRUE(weight_bytes(retrained.model) == clean_weights) << "retrained weights";
        EXPECT_EQ(retrained.test_accuracy, clean.test_accuracy);
        EXPECT_TRUE(read_bytes(file) == clean_file) << "rewritten cache bytes";

        TrainedModel reloaded = train_or_load(spec);
        EXPECT_TRUE(reloaded.loaded_from_cache);
        EXPECT_TRUE(weight_bytes(reloaded.model) == clean_weights) << "reloaded weights";
    }
    fs::remove_all(dir);
}

TEST(TrainOrLoad, CacheHitAccuracyInvariantToPoolWidth) {
    const fs::path dir = fs::temp_directory_path() / "ds_cache_width_test";
    const ZooTrainSpec spec = tiny_spec(dir, 90);
    const TrainedModel miss = train_or_load(spec);
    ASSERT_FALSE(miss.loaded_from_cache);
    for (const std::size_t width : {1u, 8u}) {
        set_global_thread_count(width);
        const TrainedModel hit = train_or_load(spec);
        EXPECT_TRUE(hit.loaded_from_cache) << "width " << width;
        EXPECT_EQ(hit.test_accuracy, miss.test_accuracy) << "width " << width;
    }
    set_global_thread_count(0);
    fs::remove_all(dir);
}

} // namespace
} // namespace deepstrike::nn
