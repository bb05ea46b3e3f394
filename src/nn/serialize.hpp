// Flat binary weight (de)serialization: the victim weight cache's file.
//
// Format DSW2 (little endian):
//   magic "DSW2" | u32 key_length, key bytes | f64 test_accuracy |
//   u32 param_count | per param: u32 elem_count, f32[elem_count] |
//   u32 CRC-32 (util/checksum.hpp) of every byte before it
// The key names the training spec the weights came from, and the
// accuracy is the float model's accuracy on that spec's test split,
// stored bit for bit, so a cache hit renders and scores nothing. That
// accuracy relies on the renderer, trainer and float kernels of its key,
// exactly as the cached weights do: a change to any of them that moves
// the weights or the score must change the key (or clear the cache).
//
// The writer emits only DSW2. The reader also accepts the keyless,
// unsealed format before it, so caches written earlier still load:
//   magic "DSW1" | u32 param_count | per param: u32 elem_count, f32[elem_count]
// Both share the parameter body. The reader takes the whole file first
// and checks a DSW2 file's CRC before parsing anything; every length is
// bounded by the bytes left, so a hostile one ends in FormatError rather
// than a large allocation. It checks counts against the model's
// parameter list, so a cache built for a different architecture is
// rejected, not misloaded; a file with bytes after the last tensor, a
// NaN or infinite weight (quantization cannot represent either) or an
// accuracy outside [0, 1] is rejected too. The writer publishes the file
// atomically, so readers never see a torn one.
#pragma once

#include <optional>
#include <string>

#include "nn/model.hpp"

namespace deepstrike::nn {

/// What a weight file stores beside the weights. A DSW1 file stores
/// neither, so its key is empty and its accuracy absent.
struct WeightRecord {
    std::string key;
    std::optional<double> test_accuracy;
};

/// Writes `model`'s weights with `key` and `test_accuracy` to `path` as
/// DSW2, via atomic_write_file. Throws IoError.
void save_weights(Sequential& model, const std::string& path, const std::string& key,
                  double test_accuracy);

/// Loads a DSW2 or DSW1 file into `model` and returns what it stores
/// beside the weights. Throws FormatError when the file is corrupt, does
/// not match the model's parameter structure or holds a non-finite
/// weight, IoError when unreadable. A throw can leave `model` partly
/// overwritten.
WeightRecord load_weights(Sequential& model, const std::string& path);

} // namespace deepstrike::nn
