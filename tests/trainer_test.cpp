#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "nn/zoo.hpp"
#include "nn/serialize.hpp"
#include "nn/trainer.hpp"
#include "test_helpers.hpp"
#include "util/error.hpp"
#include "util/parallel.hpp"

namespace deepstrike::nn {
namespace {

namespace fs = std::filesystem;
using testing::bits_of;
using testing::Dsw2WeightOffsets;
using testing::dsw2_weight_offsets;
using testing::reseal_dsw2;

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

/// A 60-image, one-epoch MLP spec caching under a fresh `dir`: the
/// cheapest victim to retrain, for tests that retrain it many times.
ZooTrainSpec tiny_mlp_spec(const fs::path& dir) {
    ZooTrainSpec spec = tiny_spec(dir, 30);
    spec.architecture = Architecture::Mlp;
    spec.train_size = 60;
    return spec;
}

/// `model`'s weights as the DSW1 writer laid them out: magic, parameter
/// count, then per tensor its size and floats. No key, no accuracy, no
/// checksum.
std::string dsw1_bytes(Sequential& model) {
    std::string out = "DSW1";
    const auto put_u32 = [&out](std::size_t value) {
        const auto v = static_cast<std::uint32_t>(value);
        out.append(reinterpret_cast<const char*>(&v), sizeof(v));
    };
    put_u32(model.parameters().size());
    for (Parameter* p : model.parameters()) {
        put_u32(p->value.size());
        out.append(reinterpret_cast<const char*>(p->value.data()),
                   p->value.size() * sizeof(float));
    }
    return out;
}

/// A two-layer 3-2-2 perceptron: a weight file of about a hundred bytes,
/// small enough to mutate at every byte.
Sequential small_model() {
    Rng rng(99);
    Sequential net;
    net.emplace<Dense>(3, 2, rng);
    net.emplace<Dense>(2, 2, rng);
    return net;
}

/// The FormatError load_weights gives for `path`, or "" when it loads.
std::string load_error(Sequential& model, const fs::path& path) {
    try {
        (void)load_weights(model, path.string());
        return "";
    } catch (const FormatError& e) {
        return e.what();
    }
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

// The float scorer splits the images over the global pool. A miss stores
// its score in the weight cache, and a hit returns it unscored, so the
// score must not depend on the pool's width.
TEST(Trainer, EvaluateAccuracyInvariantToPoolWidth) {
    Rng rng(56);
    Sequential net = build_architecture(Architecture::LeNet5, rng);
    TrainConfig config;
    config.epochs = 1;
    train(net, easy_dataset(40), config);
    const data::Dataset test_set = data::make_datasets(42, 0, 90).test;
    std::vector<std::uint64_t> scores;
    for (const std::size_t width : {1u, 8u}) {
        set_global_thread_count(width);
        scores.push_back(bits_of(evaluate_accuracy(net, test_set)));
    }
    set_global_thread_count(0);
    EXPECT_EQ(scores[0], scores[1]);
}

TEST(Serialize, RoundTrip) {
    namespace fs = std::filesystem;
    const fs::path path = fs::temp_directory_path() / "ds_weights_roundtrip.dsw";

    Rng rng_a(91);
    Sequential a = build_architecture(Architecture::LeNet5, rng_a);
    const double accuracy = 0.1 + 0.2; // no short decimal: every bit must survive
    save_weights(a, path.string(), "lenet5_roundtrip", accuracy);

    Rng rng_b(92); // different init
    Sequential b = build_architecture(Architecture::LeNet5, rng_b);
    const WeightRecord record = load_weights(b, path.string());
    EXPECT_EQ(record.key, "lenet5_roundtrip");
    ASSERT_TRUE(record.test_accuracy.has_value());
    EXPECT_EQ(bits_of(*record.test_accuracy), bits_of(accuracy));

    auto pa = a.parameters();
    auto pb = b.parameters();
    for (std::size_t i = 0; i < pa.size(); ++i) {
        EXPECT_EQ(pa[i]->value, pb[i]->value);
    }
    fs::remove(path);
}

// Caches written before the accuracy was stored still load: no key and
// no accuracy, the same weights.
TEST(Serialize, ReadsDsw1) {
    const fs::path path = fs::temp_directory_path() / "ds_weights_dsw1.dsw";
    Rng rng_a(91);
    Sequential a = build_architecture(Architecture::LeNet5, rng_a);
    write_bytes(path, dsw1_bytes(a));

    Rng rng_b(92);
    Sequential b = build_architecture(Architecture::LeNet5, rng_b);
    const WeightRecord record = load_weights(b, path.string());
    EXPECT_EQ(record.key, "");
    EXPECT_FALSE(record.test_accuracy.has_value());
    EXPECT_TRUE(weight_bytes(a) == weight_bytes(b));
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
    save_weights(net, path.string(), "lenet5_trunc", 0.5);

    // Truncate to half size.
    const auto full = fs::file_size(path);
    fs::resize_file(path, full / 2);
    EXPECT_THROW(load_weights(net, path.string()), FormatError);
    fs::remove(path);
}

// A byte after the seal fails the checksum; a byte inside it, resealed,
// and a byte after a DSW1 file's last tensor are trailing bytes.
TEST(Serialize, RejectsTrailingBytes) {
    const fs::path path = fs::temp_directory_path() / "ds_weights_trailing.dsw";
    Rng rng(97);
    Sequential net = build_architecture(Architecture::LeNet5, rng);
    save_weights(net, path.string(), "lenet5_trailing", 0.5);
    const std::string clean = read_bytes(path);

    write_bytes(path, clean + '\0');
    EXPECT_NE(load_error(net, path).find("checksum mismatch"), std::string::npos);
    std::string inside = clean;
    inside.insert(inside.size() - sizeof(std::uint32_t), 1, '\0');
    reseal_dsw2(inside);
    write_bytes(path, inside);
    EXPECT_NE(load_error(net, path).find("trailing bytes"), std::string::npos);
    write_bytes(path, dsw1_bytes(net) + '\0');
    EXPECT_NE(load_error(net, path).find("trailing bytes"), std::string::npos);
    fs::remove(path);
}

// The checksum is what keeps a flipped weight bit from loading as a
// slightly different victim.
TEST(Serialize, RejectsFlippedWeightBit) {
    const fs::path path = fs::temp_directory_path() / "ds_weights_flip.dsw2";
    Rng rng(99);
    Sequential net = build_architecture(Architecture::LeNet5, rng);
    save_weights(net, path.string(), "lenet5_flip", 0.5);
    std::string bytes = read_bytes(path);
    bytes[dsw2_weight_offsets(bytes).first] ^= 1; // the first weight's lowest mantissa bit
    write_bytes(path, bytes);
    EXPECT_NE(load_error(net, path).find("checksum mismatch"), std::string::npos);
    fs::remove(path);
}

// Quantization has no code for a NaN or infinite weight, so the loader
// rejects a file holding one wherever it sits: rows put each kind at the
// file's first and last weight, resealed so the patch reaches the
// finiteness check rather than failing the checksum.
TEST(Serialize, RejectsNonFiniteWeights) {
    const fs::path path = fs::temp_directory_path() / "ds_weights_nonfinite.dsw";
    Rng rng(98);
    Sequential net = build_architecture(Architecture::LeNet5, rng);
    save_weights(net, path.string(), "lenet5_nonfinite", 0.5);
    const std::string clean = read_bytes(path);
    const Dsw2WeightOffsets at = dsw2_weight_offsets(clean);
    constexpr float inf = std::numeric_limits<float>::infinity();
    const struct {
        const char* name;
        float value;
        std::size_t offset;
    } rows[] = {
        {"quiet NaN, first weight", std::numeric_limits<float>::quiet_NaN(), at.first},
        {"signaling NaN, last weight", std::numeric_limits<float>::signaling_NaN(), at.last},
        {"+inf, last weight", inf, at.last},
        {"-inf, first weight", -inf, at.first},
    };
    for (const auto& row : rows) {
        std::string bytes = clean;
        std::memcpy(bytes.data() + row.offset, &row.value, sizeof(float));
        reseal_dsw2(bytes);
        write_bytes(path, bytes);
        EXPECT_NE(load_error(net, path).find("non-finite weight"), std::string::npos)
            << row.name;
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
    save_weights(net, path.string(), "lenet5_arch", 0.5);

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

// Every mutant of a valid weight file, DSW2 or DSW1, either loads or ends
// in FormatError. Anything else (a std::bad_alloc, a contract violation)
// fails the test. Mutants: every truncation, one extra byte, seeded byte
// flips, hostile values in every length field and, for DSW2, in the
// accuracy. All but the raw DSW2 truncations, extra byte and flips are
// resealed, so they reach the parser instead of failing the checksum.
TEST(Serialize, SeededMutantsEndInFormatError) {
    const fs::path path = fs::temp_directory_path() / "ds_weights_mutants.dsw2";
    Sequential net = small_model();
    save_weights(net, path.string(), "tiny", 0.75);
    const std::string dsw2 = read_bytes(path);
    const std::string dsw1 = dsw1_bytes(net);

    // The u32 length fields of each format: DSW2's key length, then the
    // parameter count and every tensor size that both formats share.
    const auto length_fields = [&net](std::size_t body_at) {
        std::vector<std::size_t> at = {body_at};
        std::size_t pos = body_at + sizeof(std::uint32_t);
        for (Parameter* p : net.parameters()) {
            at.push_back(pos);
            pos += sizeof(std::uint32_t) + p->value.size() * sizeof(float);
        }
        return at;
    };
    const std::size_t dsw2_body = 4 + 4 + 4 + 8; // magic, key length, "tiny", accuracy
    std::vector<std::size_t> dsw2_fields = length_fields(dsw2_body);
    dsw2_fields.insert(dsw2_fields.begin(), 4);
    const std::vector<std::size_t> dsw1_fields = length_fields(4);
    const std::uint32_t hostile_lengths[] = {0,          1,          2,          3,
                                             5,          56,         0x7FFFFFFF, 0x80000000,
                                             0xFFFFFFFE, 0xFFFFFFFF};
    const double hostile_accuracies[] = {std::numeric_limits<double>::quiet_NaN(),
                                         std::numeric_limits<double>::infinity(), -0.25, 1.5};

    std::vector<std::string> raw;    // DSW2 mutants the checksum must catch
    std::vector<std::string> parsed; // mutants that reach a parser
    for (std::size_t cut = 0; cut < dsw2.size(); ++cut) raw.push_back(dsw2.substr(0, cut));
    for (std::size_t cut = 0; cut < dsw1.size(); ++cut) parsed.push_back(dsw1.substr(0, cut));
    raw.push_back(dsw2 + 'x');
    parsed.push_back(dsw1 + 'x');
    for (const std::uint32_t value : hostile_lengths) {
        for (const std::size_t at : dsw2_fields) {
            std::string bytes = dsw2;
            std::memcpy(bytes.data() + at, &value, sizeof(value));
            reseal_dsw2(bytes);
            parsed.push_back(bytes);
        }
        for (const std::size_t at : dsw1_fields) {
            std::string bytes = dsw1;
            std::memcpy(bytes.data() + at, &value, sizeof(value));
            parsed.push_back(bytes);
        }
    }
    for (const double value : hostile_accuracies) {
        std::string bytes = dsw2;
        std::memcpy(bytes.data() + 4 + 4 + 4, &value, sizeof(value));
        reseal_dsw2(bytes);
        parsed.push_back(bytes);
    }
    Rng rng(0xD5);
    const auto flipped = [&rng](std::string bytes) {
        const int flips = static_cast<int>(rng.uniform_int(1, 4));
        for (int f = 0; f < flips; ++f) {
            const auto at = static_cast<std::size_t>(
                rng.uniform_int(0, static_cast<std::int64_t>(bytes.size()) - 1));
            bytes[at] = static_cast<char>(bytes[at] ^ (1 << rng.uniform_int(0, 7)));
        }
        return bytes;
    };
    for (int i = 0; i < 1000; ++i) {
        const std::string bytes = flipped(dsw2);
        if (bytes != dsw2) raw.push_back(bytes);
        std::string sealed = flipped(dsw2);
        reseal_dsw2(sealed);
        parsed.push_back(sealed);
        parsed.push_back(flipped(dsw1));
    }

    // Loaded or rejected; anything else fails the test.
    const auto loads = [&path](const std::string& bytes) {
        write_bytes(path, bytes);
        Sequential target = small_model();
        return load_error(target, path).empty();
    };
    for (const std::string& bytes : raw) {
        try {
            EXPECT_FALSE(loads(bytes)) << "an unsealed DSW2 mutant loaded";
        } catch (const std::exception& e) {
            ADD_FAILURE() << "untyped error '" << e.what() << "'";
        }
    }
    std::size_t loaded = 0;
    for (const std::string& bytes : parsed) {
        try {
            loaded += loads(bytes) ? 1 : 0;
        } catch (const std::exception& e) {
            ADD_FAILURE() << "untyped error '" << e.what() << "'";
        }
    }
    // The parsed mutants reach both outcomes: the check is not vacuous.
    EXPECT_GT(loaded, 0u);
    EXPECT_LT(loaded, parsed.size());
    fs::remove(path);
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

TEST(TrainOrLoad, ZeroTrainSizeIsConfigError) {
    ZooTrainSpec spec = tiny_spec(fs::temp_directory_path() / "ds_cache_zero_train", 20);
    spec.train_size = 0;
    EXPECT_THROW(train_or_load(spec), ConfigError);
}

TEST(TrainOrLoad, ZeroTestSizeIsConfigError) {
    ZooTrainSpec spec = tiny_spec(fs::temp_directory_path() / "ds_cache_zero_test", 20);
    spec.test_size = 0;
    EXPECT_THROW(train_or_load(spec), ConfigError);
}

// A hit returns the accuracy the file stores; it renders and scores
// nothing. A sentinel no model scores on 30 images shows which happened.
TEST(TrainOrLoad, HitReturnsStoredAccuracy) {
    const fs::path dir = fs::temp_directory_path() / "ds_cache_sentinel_test";
    const ZooTrainSpec spec = tiny_mlp_spec(dir);
    TrainedModel miss = train_or_load(spec);
    ASSERT_FALSE(miss.loaded_from_cache);
    const fs::path file = cache_file(dir);
    const WeightRecord record = load_weights(miss.model, file.string());
    const double sentinel = 0.123456789012345;
    save_weights(miss.model, file.string(), record.key, sentinel);

    TrainedModel hit = train_or_load(spec);
    EXPECT_TRUE(hit.loaded_from_cache);
    EXPECT_EQ(bits_of(hit.test_accuracy), bits_of(sentinel));
    EXPECT_TRUE(weight_bytes(hit.model) == weight_bytes(miss.model));
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

// Each hostile cache file (corrupt, another spec's, unsealed DSW1 bytes
// under the DSW2 name) retrains to the weights, accuracy and file bytes of
// a clean miss.
TEST(TrainOrLoad, HostileCacheFilesRetrainLikeCleanMiss) {
    const fs::path dir = fs::temp_directory_path() / "ds_cache_hostile_test";
    const ZooTrainSpec spec = tiny_mlp_spec(dir);
    TrainedModel clean = train_or_load(spec);
    ASSERT_FALSE(clean.loaded_from_cache);
    const fs::path file = cache_file(dir);
    const std::string clean_file = read_bytes(file);
    const std::string clean_weights = weight_bytes(clean.model);
    const std::size_t count_at = dsw2_weight_offsets(clean_file).first - 8;

    const auto patched = [&clean_file](std::size_t at, const auto& value, bool reseal) {
        std::string bytes = clean_file;
        std::memcpy(bytes.data() + at, &value, sizeof(value));
        if (reseal) reseal_dsw2(bytes);
        return bytes;
    };
    std::vector<std::pair<std::string, std::string>> mutants = {
        {"an empty file", ""},
        {"the magic alone", clean_file.substr(0, 4)},
        {"truncated by one byte", clean_file.substr(0, clean_file.size() - 1)},
        {"one extra byte", clean_file + 'x'},
        {"a hostile key length", patched(4, std::uint32_t{0xFFFFFFFF}, true)},
        {"a key length one too long", patched(4, std::uint32_t(clean_file[4] + 1), true)},
        {"a hostile parameter count", patched(count_at, std::uint32_t{0xFFFFFFFF}, true)},
        {"another spec's key", patched(8, 'X', true)},
        {"an accuracy above 1", patched(count_at - 8, 1.5, true)},
        {"DSW1 bytes under the DSW2 name", dsw1_bytes(clean.model)},
    };
    Rng rng(0xC0FFEE);
    for (int i = 0; i < 4; ++i) {
        const auto at = static_cast<std::size_t>(
            rng.uniform_int(0, static_cast<std::int64_t>(clean_file.size()) - 1));
        const char bit = static_cast<char>(1 << rng.uniform_int(0, 7));
        mutants.emplace_back("a flipped bit at byte " + std::to_string(at),
                             patched(at, static_cast<char>(clean_file[at] ^ bit), false));
    }
    for (const auto& [name, bytes] : mutants) {
        SCOPED_TRACE(name);
        write_bytes(file, bytes);
        TrainedModel retrained = train_or_load(spec);
        EXPECT_FALSE(retrained.loaded_from_cache);
        EXPECT_TRUE(weight_bytes(retrained.model) == clean_weights) << "retrained weights";
        EXPECT_EQ(bits_of(retrained.test_accuracy), bits_of(clean.test_accuracy));
        EXPECT_TRUE(read_bytes(file) == clean_file) << "rewritten cache bytes";
    }
    fs::remove_all(dir);
}

// A directory holding only the DSW1 file an earlier build wrote is a hit:
// the weights are scored once, stored as DSW2 beside it, and the DSW1
// file is left as it was for the builds that still read it.
TEST(TrainOrLoad, MigratesDsw1Cache) {
    const fs::path dir = fs::temp_directory_path() / "ds_cache_migrate_test";
    const ZooTrainSpec spec = tiny_spec(dir, 20);
    TrainedModel miss = train_or_load(spec);
    ASSERT_FALSE(miss.loaded_from_cache);
    const fs::path file = cache_file(dir);
    const std::string sealed = read_bytes(file);
    fs::path legacy = file;
    legacy.replace_extension(".dsw");
    const std::string legacy_bytes = dsw1_bytes(miss.model);
    fs::remove(file);
    write_bytes(legacy, legacy_bytes);
    const std::uint64_t scored = bits_of(evaluate_accuracy(
        miss.model, data::make_datasets(spec.data_seed, 0, spec.test_size).test));

    // A missing DSW2 file, then one that does not load.
    for (const bool corrupt : {false, true}) {
        SCOPED_TRACE(corrupt ? "corrupt DSW2 file" : "no DSW2 file");
        if (corrupt) write_bytes(file, sealed.substr(0, sealed.size() - 1));
        TrainedModel migrated = train_or_load(spec);
        EXPECT_TRUE(migrated.loaded_from_cache);
        EXPECT_EQ(bits_of(migrated.test_accuracy), scored);
        EXPECT_TRUE(weight_bytes(migrated.model) == weight_bytes(miss.model));
        EXPECT_TRUE(read_bytes(file) == sealed) << "the DSW2 file written";
        EXPECT_TRUE(read_bytes(legacy) == legacy_bytes) << "the DSW1 file kept";
    }

    // From now on the DSW2 file alone serves the hit.
    fs::remove(legacy);
    const TrainedModel hit = train_or_load(spec);
    EXPECT_TRUE(hit.loaded_from_cache);
    EXPECT_EQ(bits_of(hit.test_accuracy), scored);
    fs::remove_all(dir);
}

} // namespace
} // namespace deepstrike::nn
