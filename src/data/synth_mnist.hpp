// Deterministic synthetic MNIST-like dataset.
//
// Substitutes for the real MNIST files (see DESIGN.md): 28x28 grayscale
// digits rendered from the glyph stencils with per-sample affine jitter
// (shift / scale / rotation / shear), stroke-intensity variation and
// additive Gaussian noise. Sample i of a given seed is always the same
// image, so experiments replay exactly.
#pragma once

#include <cstdint>
#include <vector>

#include "tensor/tensor.hpp"
#include "util/rng.hpp"

namespace deepstrike::data {

inline constexpr std::size_t kImageRows = 28;
inline constexpr std::size_t kImageCols = 28;
inline constexpr std::size_t kImagePixels = kImageRows * kImageCols;

/// One labeled sample: pixels in [0,1], row-major 28x28.
struct Sample {
    FloatTensor image;   // shape [1, 28, 28]
    std::size_t label = 0;
};

/// Augmentation strength for the renderer; defaults mimic MNIST's natural
/// handwriting variation closely enough for a ~96%-accuracy LeNet.
struct AugmentParams {
    double max_shift_px = 3.0;        // translation, uniform in +-max
    double min_scale = 0.78;          // isotropic scale range
    double max_scale = 1.18;
    double max_rotate_rad = 0.30;     // ~17 degrees
    double max_shear = 0.22;
    double min_stroke = 0.50;         // stroke intensity multiplier range
    double max_stroke = 1.00;
    double noise_sigma = 0.18;        // additive Gaussian pixel noise
    double blur_strength = 0.45;      // 0 = sharp, 1 = full 3x3 box blur
};

/// Renders sample `index` of the stream identified by `seed`.
/// Label is derived from the index so every class is equally represented.
Sample render_sample(std::uint64_t seed, std::size_t index,
                     const AugmentParams& params = {});

/// A fully materialized dataset split.
struct Dataset {
    std::vector<FloatTensor> images;
    std::vector<std::size_t> labels;

    std::size_t size() const { return images.size(); }
};

/// Train sample i is render_sample(seed, i); test sample i is
/// render_sample(seed, kTestIndexOffset + i), far beyond any training
/// index, so the splits never overlap and the test split does not depend
/// on the train size.
inline constexpr std::size_t kTestIndexOffset = std::size_t{1} << 24;

/// Builds train/test splits from disjoint index ranges of the same stream,
/// deterministic in `seed` (a size of 0 renders nothing). Rendering runs
/// across the global pool; the bytes do not depend on its width.
struct DatasetPair {
    Dataset train;
    Dataset test;
};

DatasetPair make_datasets(std::uint64_t seed, std::size_t train_size,
                          std::size_t test_size, const AugmentParams& params = {});

/// Renders an ASCII-art view of a sample (for examples / debugging).
std::string ascii_art(const FloatTensor& image);

} // namespace deepstrike::data
