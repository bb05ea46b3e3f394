// Flat binary weight (de)serialization.
//
// Format (little endian):
//   magic "DSW1" | u32 param_count | per param: u32 elem_count, f32[elem_count]
// The loader validates counts against the model's parameter list, so a
// cache built for a different architecture is rejected, not misloaded;
// a file with bytes after the last tensor is rejected too. The writer
// publishes the file atomically, so readers never see a torn one.
#pragma once

#include <string>

#include "nn/model.hpp"

namespace deepstrike::nn {

/// Writes `path` via atomic_write_file. Throws IoError.
void save_weights(Sequential& model, const std::string& path);

/// Loads weights into `model`. Throws FormatError when the file does not
/// match the model's parameter structure, IoError when unreadable. A
/// throw can leave `model` partly overwritten.
void load_weights(Sequential& model, const std::string& path);

} // namespace deepstrike::nn
