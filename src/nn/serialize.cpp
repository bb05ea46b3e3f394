#include "nn/serialize.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>
#include <string_view>

#include "util/atomic_file.hpp"
#include "util/checksum.hpp"
#include "util/error.hpp"

namespace deepstrike::nn {

namespace {

constexpr std::string_view kMagicV1 = "DSW1";
constexpr std::string_view kMagicV2 = "DSW2";

template <class T>
void put(std::string& out, const T& value) {
    out.append(reinterpret_cast<const char*>(&value), sizeof(T));
}

/// A cursor over a weight file's bytes. Every read is bounded by the
/// bytes left, so a hostile length throws FormatError before it is used.
class ByteReader {
public:
    ByteReader(std::string_view bytes, const std::string& path) : bytes_(bytes), path_(path) {}

    std::string_view take(std::size_t size) {
        if (size > bytes_.size()) throw FormatError("weight file: truncated: " + path_);
        const std::string_view out = bytes_.substr(0, size);
        bytes_.remove_prefix(size);
        return out;
    }

    template <class T>
    T read() {
        T value{};
        std::memcpy(&value, take(sizeof(T)).data(), sizeof(T));
        return value;
    }

    bool empty() const { return bytes_.empty(); }

private:
    std::string_view bytes_;
    const std::string& path_;
};

/// Reads the parameter body both formats share into `model`; it must end
/// the bytes.
void read_parameters(ByteReader& in, Sequential& model, const std::string& path) {
    const auto params = model.parameters();
    if (in.read<std::uint32_t>() != params.size()) {
        throw FormatError("weight file: parameter count mismatch: " + path);
    }
    for (Parameter* p : params) {
        const auto n = in.read<std::uint32_t>();
        if (n != p->value.size()) {
            throw FormatError("weight file: tensor size mismatch: " + path);
        }
        float* v = p->value.data();
        std::memcpy(v, in.take(n * sizeof(float)).data(), n * sizeof(float));
        if (!std::all_of(v, v + n, [](float x) { return std::isfinite(x); })) {
            throw FormatError("weight file: non-finite weight: " + path);
        }
    }
    if (!in.empty()) throw FormatError("weight file: trailing bytes: " + path);
}

} // namespace

void save_weights(Sequential& model, const std::string& path, const std::string& key,
                  double test_accuracy) {
    expects(key.size() <= std::numeric_limits<std::uint32_t>::max(),
            "save_weights: key fits a u32 length");
    expects(test_accuracy >= 0.0 && test_accuracy <= 1.0,
            "save_weights: test accuracy in [0, 1]");
    std::string bytes(kMagicV2);
    put(bytes, static_cast<std::uint32_t>(key.size()));
    bytes += key;
    put(bytes, test_accuracy);
    const auto params = model.parameters();
    put(bytes, static_cast<std::uint32_t>(params.size()));
    for (Parameter* p : params) {
        put(bytes, static_cast<std::uint32_t>(p->value.size()));
        bytes.append(reinterpret_cast<const char*>(p->value.data()),
                     p->value.size() * sizeof(float));
    }
    put(bytes, crc32(bytes));
    atomic_write_file(path, bytes);
}

WeightRecord load_weights(Sequential& model, const std::string& path) {
    std::ifstream file(path, std::ios::binary);
    if (!file) throw IoError("cannot open weight file for reading: " + path);
    std::ostringstream buffer;
    buffer << file.rdbuf();
    const std::string bytes = buffer.str();

    const std::string_view magic = std::string_view(bytes).substr(0, kMagicV2.size());
    if (magic == kMagicV1) {
        ByteReader in(std::string_view(bytes).substr(magic.size()), path);
        read_parameters(in, model, path);
        return {};
    }
    if (magic != kMagicV2) throw FormatError("weight file: bad magic: " + path);

    std::uint32_t crc = 0;
    if (bytes.size() < magic.size() + sizeof(crc)) {
        throw FormatError("weight file: truncated: " + path);
    }
    const std::size_t sealed = bytes.size() - sizeof(crc);
    std::memcpy(&crc, bytes.data() + sealed, sizeof(crc));
    if (crc32(bytes.data(), sealed) != crc) {
        throw FormatError("weight file: checksum mismatch: " + path);
    }
    ByteReader in(std::string_view(bytes).substr(magic.size(), sealed - magic.size()), path);
    WeightRecord record;
    record.key = in.take(in.read<std::uint32_t>());
    const auto accuracy = in.read<double>();
    if (!(accuracy >= 0.0 && accuracy <= 1.0)) {
        throw FormatError("weight file: test accuracy outside [0, 1]: " + path);
    }
    record.test_accuracy = accuracy;
    read_parameters(in, model, path);
    return record;
}

} // namespace deepstrike::nn
