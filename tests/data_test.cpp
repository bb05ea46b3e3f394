#include <gtest/gtest.h>

#include "data/glyphs.hpp"
#include "data/synth_mnist.hpp"
#include "test_helpers.hpp"
#include "util/parallel.hpp"
#include "util/stats.hpp"

namespace deepstrike::data {
namespace {

::testing::AssertionResult same_bits(const Dataset& actual, const Dataset& expected) {
    if (actual.size() != expected.size() || actual.labels != expected.labels) {
        return ::testing::AssertionFailure() << "sizes or labels differ";
    }
    for (std::size_t i = 0; i < expected.size(); ++i) {
        auto same = deepstrike::testing::same_bits(actual.images[i], expected.images[i]);
        if (!same) return same << " (image " << i << ")";
    }
    return ::testing::AssertionSuccess();
}

/// render_sample(seed, first_index + i) for i < count, one at a time.
Dataset rendered_one_by_one(std::uint64_t seed, std::size_t first_index, std::size_t count) {
    Dataset out;
    for (std::size_t i = 0; i < count; ++i) {
        Sample s = render_sample(seed, first_index + i);
        out.images.push_back(std::move(s.image));
        out.labels.push_back(s.label);
    }
    return out;
}

TEST(Glyphs, IntensityInRange) {
    for (std::size_t d = 0; d < kNumClasses; ++d) {
        for (std::size_t r = 0; r < kGlyphRows; ++r) {
            for (std::size_t c = 0; c < kGlyphCols; ++c) {
                const double v = glyph_intensity(d, static_cast<std::ptrdiff_t>(r),
                                                 static_cast<std::ptrdiff_t>(c));
                EXPECT_GE(v, 0.0);
                EXPECT_LE(v, 1.0);
            }
        }
    }
}

TEST(Glyphs, OutOfRangeIsBackground) {
    EXPECT_EQ(glyph_intensity(0, -1, 0), 0.0);
    EXPECT_EQ(glyph_intensity(0, 0, -1), 0.0);
    EXPECT_EQ(glyph_intensity(0, 16, 0), 0.0);
    EXPECT_EQ(glyph_intensity(0, 0, 12), 0.0);
}

TEST(Glyphs, EveryDigitHasInk) {
    for (std::size_t d = 0; d < kNumClasses; ++d) {
        double total = 0.0;
        for (std::size_t r = 0; r < kGlyphRows; ++r) {
            for (std::size_t c = 0; c < kGlyphCols; ++c) {
                total += glyph_intensity(d, static_cast<std::ptrdiff_t>(r),
                                         static_cast<std::ptrdiff_t>(c));
            }
        }
        EXPECT_GT(total, 20.0) << "digit " << d;
    }
}

TEST(Glyphs, DigitsAreDistinct) {
    // Every pair of glyph stencils must differ in at least 15 cells.
    for (std::size_t a = 0; a < kNumClasses; ++a) {
        for (std::size_t b = a + 1; b < kNumClasses; ++b) {
            int diff = 0;
            for (std::size_t r = 0; r < kGlyphRows; ++r) {
                for (std::size_t c = 0; c < kGlyphCols; ++c) {
                    if (glyph_intensity(a, static_cast<std::ptrdiff_t>(r),
                                        static_cast<std::ptrdiff_t>(c)) !=
                        glyph_intensity(b, static_cast<std::ptrdiff_t>(r),
                                        static_cast<std::ptrdiff_t>(c))) {
                        ++diff;
                    }
                }
            }
            EXPECT_GE(diff, 15) << "digits " << a << " vs " << b;
        }
    }
}

TEST(Glyphs, BilinearSampleInterpolates) {
    // Sampling exactly on grid points matches intensity; between two points
    // it lies between their values.
    const double v00 = glyph_intensity(8, 4, 4);
    const double v01 = glyph_intensity(8, 4, 5);
    const double mid = glyph_sample(8, 4.0, 4.5);
    EXPECT_GE(mid, std::min(v00, v01) - 1e-12);
    EXPECT_LE(mid, std::max(v00, v01) + 1e-12);
    EXPECT_DOUBLE_EQ(glyph_sample(8, 4.0, 4.0), v00);
}

TEST(SynthMnist, Deterministic) {
    const Sample a = render_sample(77, 123);
    const Sample b = render_sample(77, 123);
    EXPECT_EQ(a.label, b.label);
    EXPECT_EQ(a.image, b.image);
}

TEST(SynthMnist, DifferentSeedsDiffer) {
    const Sample a = render_sample(1, 0);
    const Sample b = render_sample(2, 0);
    EXPECT_NE(a.image, b.image);
}

TEST(SynthMnist, LabelsCycleThroughClasses) {
    for (std::size_t i = 0; i < 30; ++i) {
        EXPECT_EQ(render_sample(5, i).label, i % 10);
    }
}

TEST(SynthMnist, PixelsInUnitRange) {
    for (std::size_t i = 0; i < 20; ++i) {
        const Sample s = render_sample(9, i);
        for (std::size_t p = 0; p < s.image.size(); ++p) {
            EXPECT_GE(s.image.at_unchecked(p), 0.0f);
            EXPECT_LE(s.image.at_unchecked(p), 1.0f);
        }
    }
}

TEST(SynthMnist, ImagesHaveSignal) {
    // The digit must be visible: enough bright pixels near the center.
    for (std::size_t i = 0; i < 20; ++i) {
        const Sample s = render_sample(11, i);
        double bright = 0;
        for (std::size_t r = 6; r < 22; ++r) {
            for (std::size_t c = 6; c < 22; ++c) {
                if (s.image.at(0, r, c) > 0.4f) ++bright;
            }
        }
        EXPECT_GT(bright, 10) << "sample " << i;
    }
}

TEST(SynthMnist, AugmentationCreatesVariation) {
    // Two samples of the same class must not be identical images.
    const Sample a = render_sample(13, 0);
    const Sample b = render_sample(13, 10); // same label (0), different index
    EXPECT_EQ(a.label, b.label);
    EXPECT_NE(a.image, b.image);
}

TEST(SynthMnist, DatasetsSizesAndDeterminism) {
    const DatasetPair p1 = make_datasets(21, 50, 20);
    const DatasetPair p2 = make_datasets(21, 50, 20);
    EXPECT_EQ(p1.train.size(), 50u);
    EXPECT_EQ(p1.test.size(), 20u);
    EXPECT_EQ(p1.train.images[7], p2.train.images[7]);
    EXPECT_EQ(p1.test.images[3], p2.test.images[3]);
}

TEST(SynthMnist, DatasetsBitwiseInvariantToPoolWidth) {
    set_global_thread_count(1);
    const DatasetPair narrow = make_datasets(43, 90, 70);
    set_global_thread_count(8);
    const DatasetPair wide = make_datasets(43, 90, 70);
    set_global_thread_count(0);

    EXPECT_TRUE(same_bits(wide.train, narrow.train));
    EXPECT_TRUE(same_bits(wide.test, narrow.test));
    EXPECT_TRUE(same_bits(narrow.train, rendered_one_by_one(43, 0, 90)));
    EXPECT_TRUE(same_bits(narrow.test, rendered_one_by_one(43, kTestIndexOffset, 70)));
}

TEST(SynthMnist, TestSplitIndependentOfTrainSize) {
    const Dataset expected = make_datasets(47, 0, 40).test;
    EXPECT_TRUE(make_datasets(47, 0, 0).test.images.empty());
    EXPECT_TRUE(same_bits(make_datasets(47, 1, 40).test, expected));
    EXPECT_TRUE(same_bits(make_datasets(47, 4000, 40).test, expected));
}

TEST(SynthMnist, TrainTestDisjoint) {
    // Test samples come from a distant index range; images must differ from
    // any train image with matching label.
    const DatasetPair p = make_datasets(23, 40, 10);
    for (std::size_t t = 0; t < p.test.size(); ++t) {
        for (std::size_t tr = 0; tr < p.train.size(); ++tr) {
            if (p.train.labels[tr] == p.test.labels[t]) {
                EXPECT_NE(p.train.images[tr], p.test.images[t]);
            }
        }
    }
}

TEST(SynthMnist, ClassBalance) {
    const DatasetPair p = make_datasets(29, 100, 0 + 10);
    IndexCounter counts;
    for (std::size_t label : p.train.labels) counts.add(label);
    for (std::size_t d = 0; d < 10; ++d) EXPECT_EQ(counts.count(d), 10u);
}

TEST(SynthMnist, AsciiArtShape) {
    const Sample s = render_sample(31, 4);
    const std::string art = ascii_art(s.image);
    EXPECT_EQ(art.size(), 28u * 29u); // 28 rows of 28 chars + newline
    EXPECT_NE(art.find('\n'), std::string::npos);
}

TEST(SynthMnist, CustomAugmentParams) {
    AugmentParams mild;
    mild.noise_sigma = 0.0;
    mild.max_shift_px = 0.0;
    mild.min_scale = mild.max_scale = 1.0;
    mild.max_rotate_rad = 0.0;
    mild.max_shear = 0.0;
    mild.min_stroke = mild.max_stroke = 1.0;
    mild.blur_strength = 0.0;
    // With augmentation off, two samples of the same class are identical.
    const Sample a = render_sample(37, 3, mild);
    const Sample b = render_sample(37, 13, mild);
    EXPECT_EQ(a.label, b.label);
    EXPECT_EQ(a.image, b.image);
}

} // namespace
} // namespace deepstrike::data
