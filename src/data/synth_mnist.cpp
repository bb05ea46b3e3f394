#include "data/synth_mnist.hpp"

#include <algorithm>
#include <cmath>
#include <string>

#include "data/glyphs.hpp"
#include "util/error.hpp"
#include "util/parallel.hpp"

namespace deepstrike::data {

namespace {

/// 2x2 affine + translation mapping output pixel -> glyph coordinates.
struct Affine {
    double a, b, c, d; // [a b; c d]
    double tr, tc;     // translation (rows, cols)
};

Affine make_affine(Rng& rng, const AugmentParams& p) {
    const double scale = rng.uniform(p.min_scale, p.max_scale);
    const double angle = rng.uniform(-p.max_rotate_rad, p.max_rotate_rad);
    const double shear = rng.uniform(-p.max_shear, p.max_shear);
    const double shift_r = rng.uniform(-p.max_shift_px, p.max_shift_px);
    const double shift_c = rng.uniform(-p.max_shift_px, p.max_shift_px);

    const double cosa = std::cos(angle);
    const double sina = std::sin(angle);

    // Output image is 28x28; glyph is 16x12 centered. Base scale maps the
    // output field of view onto the glyph box with margin.
    const double base_r = static_cast<double>(kGlyphRows) / 22.0;
    const double base_c = static_cast<double>(kGlyphCols) / 18.0;

    Affine t{};
    // rotation * shear * scale, then component-wise base scale.
    t.a = (cosa + shear * sina) / scale * base_r;
    t.b = (-sina + shear * cosa) / scale * base_r;
    t.c = sina / scale * base_c;
    t.d = cosa / scale * base_c;
    t.tr = shift_r;
    t.tc = shift_c;
    return t;
}

/// Renders samples first_index .. first_index + count - 1 across the
/// global pool; each one is a pure function of (seed, index).
Dataset render_split(std::uint64_t seed, std::size_t first_index, std::size_t count,
                     const AugmentParams& params) {
    Dataset out;
    out.images.resize(count);
    out.labels.resize(count);
    parallel_for(count, [&](std::size_t i) {
        Sample s = render_sample(seed, first_index + i, params);
        out.images[i] = std::move(s.image);
        out.labels[i] = s.label;
    });
    return out;
}

} // namespace

Sample render_sample(std::uint64_t seed, std::size_t index, const AugmentParams& params) {
    // Per-sample independent stream: mixing seed and index through SplitMix
    // keeps adjacent samples decorrelated.
    SplitMix64 mixer(seed ^ (0x51ed270b76a4f3c5ULL * (index + 1)));
    Rng rng(mixer.next());

    Sample s;
    s.label = index % kNumClasses;
    s.image = FloatTensor(Shape{1, kImageRows, kImageCols});

    const Affine t = make_affine(rng, params);
    const double stroke = rng.uniform(params.min_stroke, params.max_stroke);

    const double out_cr = static_cast<double>(kImageRows - 1) / 2.0;
    const double out_cc = static_cast<double>(kImageCols - 1) / 2.0;
    const double gly_cr = static_cast<double>(kGlyphRows - 1) / 2.0;
    const double gly_cc = static_cast<double>(kGlyphCols - 1) / 2.0;

    FloatTensor raw(Shape{kImageRows, kImageCols});
    for (std::size_t r = 0; r < kImageRows; ++r) {
        for (std::size_t c = 0; c < kImageCols; ++c) {
            const double dr = static_cast<double>(r) - out_cr - t.tr;
            const double dc = static_cast<double>(c) - out_cc - t.tc;
            const double gr = gly_cr + t.a * dr + t.b * dc;
            const double gc = gly_cc + t.c * dr + t.d * dc;
            raw.at(r, c) = static_cast<float>(stroke * glyph_sample(s.label, gr, gc));
        }
    }

    // Optional light blur (simulates pen bleed / sensor PSF), then noise.
    const double k = params.blur_strength;
    for (std::size_t r = 0; r < kImageRows; ++r) {
        for (std::size_t c = 0; c < kImageCols; ++c) {
            double acc = raw.at(r, c);
            if (k > 0.0) {
                double nb = 0.0;
                int cnt = 0;
                for (int dr = -1; dr <= 1; ++dr) {
                    for (int dc = -1; dc <= 1; ++dc) {
                        const auto rr = static_cast<std::ptrdiff_t>(r) + dr;
                        const auto cc = static_cast<std::ptrdiff_t>(c) + dc;
                        if (rr < 0 || cc < 0 || rr >= static_cast<std::ptrdiff_t>(kImageRows) ||
                            cc >= static_cast<std::ptrdiff_t>(kImageCols)) {
                            continue;
                        }
                        nb += raw.at(static_cast<std::size_t>(rr), static_cast<std::size_t>(cc));
                        ++cnt;
                    }
                }
                acc = (1.0 - k) * acc + k * nb / cnt;
            }
            acc += rng.normal(0.0, params.noise_sigma);
            s.image.at(0, r, c) = static_cast<float>(std::clamp(acc, 0.0, 1.0));
        }
    }
    return s;
}

DatasetPair make_datasets(std::uint64_t seed, std::size_t train_size,
                          std::size_t test_size, const AugmentParams& params) {
    return DatasetPair{render_split(seed, 0, train_size, params),
                       render_split(seed, kTestIndexOffset, test_size, params)};
}

std::string ascii_art(const FloatTensor& image) {
    expects(image.shape().rank() == 3, "ascii_art: [1,H,W] tensor");
    const std::size_t rows = image.shape().dim(1);
    const std::size_t cols = image.shape().dim(2);
    static const char ramp[] = " .:-=+*#%@";
    std::string out;
    out.reserve(rows * (cols + 1));
    for (std::size_t r = 0; r < rows; ++r) {
        for (std::size_t c = 0; c < cols; ++c) {
            const double v = std::clamp(static_cast<double>(image.at(0, r, c)), 0.0, 1.0);
            out += ramp[static_cast<std::size_t>(v * 9.999)];
        }
        out += '\n';
    }
    return out;
}

} // namespace deepstrike::data
