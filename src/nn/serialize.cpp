#include "nn/serialize.hpp"

#include <cstdint>
#include <cstring>
#include <fstream>
#include <string>

#include "util/atomic_file.hpp"
#include "util/error.hpp"

namespace deepstrike::nn {

namespace {
constexpr char kMagic[4] = {'D', 'S', 'W', '1'};
} // namespace

void save_weights(Sequential& model, const std::string& path) {
    std::string bytes(kMagic, sizeof(kMagic));
    auto put = [&bytes](const void* data, std::size_t size) {
        bytes.append(static_cast<const char*>(data), size);
    };
    const auto params = model.parameters();
    const auto count = static_cast<std::uint32_t>(params.size());
    put(&count, sizeof(count));
    for (Parameter* p : params) {
        const auto n = static_cast<std::uint32_t>(p->value.size());
        put(&n, sizeof(n));
        put(p->value.data(), n * sizeof(float));
    }
    atomic_write_file(path, bytes);
}

void load_weights(Sequential& model, const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    if (!in) throw IoError("cannot open weight file for reading: " + path);

    char magic[4];
    in.read(magic, sizeof(magic));
    if (!in || std::memcmp(magic, kMagic, sizeof(kMagic)) != 0) {
        throw FormatError("weight file: bad magic: " + path);
    }

    const auto params = model.parameters();
    std::uint32_t count = 0;
    in.read(reinterpret_cast<char*>(&count), sizeof(count));
    if (!in || count != params.size()) {
        throw FormatError("weight file: parameter count mismatch: " + path);
    }

    for (Parameter* p : params) {
        std::uint32_t n = 0;
        in.read(reinterpret_cast<char*>(&n), sizeof(n));
        if (!in || n != p->value.size()) {
            throw FormatError("weight file: tensor size mismatch: " + path);
        }
        in.read(reinterpret_cast<char*>(p->value.data()),
                static_cast<std::streamsize>(n * sizeof(float)));
        if (!in) throw FormatError("weight file: truncated: " + path);
    }
    if (in.peek() != std::ifstream::traits_type::eof()) {
        throw FormatError("weight file: trailing bytes: " + path);
    }
}

} // namespace deepstrike::nn
