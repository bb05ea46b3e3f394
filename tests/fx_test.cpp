#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>

#include "fx/fixed.hpp"
#include "test_helpers.hpp"
#include "util/rng.hpp"

namespace deepstrike::fx {
namespace {

TEST(Fixed, StaticProperties) {
    EXPECT_EQ(Q3_4::total_bits, 8);
    EXPECT_EQ(Q3_4::raw_max, 127);
    EXPECT_EQ(Q3_4::raw_min, -128);
    EXPECT_DOUBLE_EQ(Q3_4::resolution(), 1.0 / 16.0);
    EXPECT_DOUBLE_EQ(Q3_4::max().to_real(), 127.0 / 16.0);
    EXPECT_DOUBLE_EQ(Q3_4::min().to_real(), -8.0);
}

TEST(Fixed, FromRealRoundsToNearest) {
    EXPECT_EQ(Q3_4::from_real(0.0).raw(), 0);
    EXPECT_EQ(Q3_4::from_real(1.0).raw(), 16);
    EXPECT_EQ(Q3_4::from_real(0.03).raw(), 0);   // 0.48 LSB rounds down
    EXPECT_EQ(Q3_4::from_real(0.04).raw(), 1);   // 0.64 LSB rounds up
    EXPECT_EQ(Q3_4::from_real(-1.5).raw(), -24);
}

TEST(Fixed, FromRealSaturates) {
    EXPECT_EQ(Q3_4::from_real(100.0), Q3_4::max());
    EXPECT_EQ(Q3_4::from_real(-100.0), Q3_4::min());
    EXPECT_EQ(Q3_4::from_real(7.94), Q3_4::max()); // just above max
}

TEST(Fixed, AdditionSaturates) {
    const Q3_4 big = Q3_4::from_real(6.0);
    EXPECT_EQ(big + big, Q3_4::max());
    const Q3_4 low = Q3_4::from_real(-6.0);
    EXPECT_EQ(low + low, Q3_4::min());
    EXPECT_DOUBLE_EQ((Q3_4::from_real(1.5) + Q3_4::from_real(2.25)).to_real(), 3.75);
}

TEST(Fixed, SubtractionAndNegation) {
    EXPECT_DOUBLE_EQ((Q3_4::from_real(2.0) - Q3_4::from_real(0.5)).to_real(), 1.5);
    EXPECT_DOUBLE_EQ((-Q3_4::from_real(2.0)).to_real(), -2.0);
    // Negating the most negative value saturates instead of overflowing.
    EXPECT_EQ(-Q3_4::min(), Q3_4::max());
}

TEST(Fixed, MultiplicationExactCases) {
    EXPECT_DOUBLE_EQ((Q3_4::from_real(2.0) * Q3_4::from_real(1.5)).to_real(), 3.0);
    EXPECT_DOUBLE_EQ((Q3_4::from_real(0.5) * Q3_4::from_real(0.5)).to_real(), 0.25);
    EXPECT_EQ(Q3_4::from_real(4.0) * Q3_4::from_real(4.0), Q3_4::max());
    EXPECT_EQ(Q3_4::from_real(-4.0) * Q3_4::from_real(4.0), Q3_4::min());
}

TEST(Fixed, WideProductAccumulatorRoundTrip) {
    // Accumulating wide products then converting once must equal the real
    // computation within one LSB for in-range results.
    const Q3_4 a = Q3_4::from_real(1.25);
    const Q3_4 b = Q3_4::from_real(0.75);
    const Q3_4 c = Q3_4::from_real(-0.5);
    const Q3_4 d = Q3_4::from_real(2.0);
    fx::Acc acc = Q3_4::wide_product(a, b) + Q3_4::wide_product(c, d);
    const double expected = 1.25 * 0.75 + (-0.5) * 2.0;
    EXPECT_NEAR(Q3_4::from_accumulator(acc).to_real(), expected, Q3_4::resolution());
}

TEST(Fixed, AccumulatorSaturates) {
    fx::Acc acc = 0;
    for (int i = 0; i < 100; ++i) {
        acc += Q3_4::wide_product(Q3_4::from_real(4.0), Q3_4::from_real(4.0));
    }
    EXPECT_EQ(Q3_4::from_accumulator(acc), Q3_4::max());
}

// The branch-free writeback rounding against its if/else oracle: every
// accumulator in [-2^20, 2^20] (far past both saturation edges), a seeded
// sample of +-2^40 values, and each tie explicitly.
TEST(Fixed, FromAccumulatorMatchesNaiveRounding) {
    using deepstrike::testing::naive_from_accumulator;
    for (Acc acc = -(Acc{1} << 20); acc <= (Acc{1} << 20); ++acc) {
        ASSERT_EQ(Q3_4::from_accumulator(acc).raw(), naive_from_accumulator(acc).raw())
            << "acc " << acc;
    }
    Rng rng(20210507);
    for (int i = 0; i < 100000; ++i) {
        const Acc acc = rng.uniform_int(-(Acc{1} << 40), Acc{1} << 40);
        ASSERT_EQ(Q3_4::from_accumulator(acc).raw(), naive_from_accumulator(acc).raw())
            << "acc " << acc;
    }
    // Saturation edges: raw_max * 16 + 7 is the last accumulator that rounds
    // to raw_max unsaturated, raw_min * 16 - 7 the last that rounds to
    // raw_min; one step further each rounds past the range and saturates.
    // The int64 extremes saturate too.
    constexpr Acc top = Acc{Q3_4::raw_max} * 16;
    constexpr Acc bottom = Acc{Q3_4::raw_min} * 16;
    EXPECT_EQ(Q3_4::from_accumulator(top + 7).raw(), Q3_4::raw_max);
    EXPECT_EQ(Q3_4::from_accumulator(top + 8).raw(), Q3_4::raw_max);
    EXPECT_EQ(Q3_4::from_accumulator(bottom - 7).raw(), Q3_4::raw_min);
    EXPECT_EQ(Q3_4::from_accumulator(bottom - 8).raw(), Q3_4::raw_min);
    EXPECT_EQ(Q3_4::from_accumulator(std::numeric_limits<Acc>::max()), Q3_4::max());
    EXPECT_EQ(Q3_4::from_accumulator(std::numeric_limits<Acc>::min()), Q3_4::min());
    // Every +-8 tie mod 16 rounds away from zero: 16q + 8 -> q + 1 and
    // -(16q + 8) -> -(q + 1), saturated.
    for (Acc q = 0; q <= 200; ++q) {
        const Acc up = std::min<Acc>(q + 1, Q3_4::raw_max);
        const Acc down = std::max<Acc>(-(q + 1), Q3_4::raw_min);
        ASSERT_EQ(Q3_4::from_accumulator(16 * q + 8).raw(), up) << "tie +" << q;
        ASSERT_EQ(Q3_4::from_accumulator(-(16 * q + 8)).raw(), down) << "tie -" << q;
    }
}

TEST(Fixed, RoundShiftRoundsHalfAwayFromZero) {
    EXPECT_EQ(round_shift<2>(6), 2);   // 1.5 -> 2
    EXPECT_EQ(round_shift<2>(-6), -2); // -1.5 -> -2
    EXPECT_EQ(round_shift<2>(5), 1);
    EXPECT_EQ(round_shift<2>(-5), -1);
    EXPECT_EQ(round_shift<2>(-2), -1); // -0.5 -> -1
    EXPECT_EQ(round_shift<2>(-1), 0);
    EXPECT_EQ(round_shift<0>(-7), -7);
}

TEST(Fixed, ComparisonOperators) {
    EXPECT_LT(Q3_4::from_real(1.0), Q3_4::from_real(2.0));
    EXPECT_GT(Q3_4::from_real(-1.0), Q3_4::from_real(-2.0));
    EXPECT_EQ(Q3_4::from_real(1.0), Q3_4::from_raw(16));
}

TEST(Fixed, OtherWidths) {
    using Q1_6 = Fixed<1, 6>;
    EXPECT_EQ(Q1_6::total_bits, 8);
    EXPECT_DOUBLE_EQ(Q1_6::resolution(), 1.0 / 64.0);
    EXPECT_NEAR(Q1_6::from_real(0.5).to_real(), 0.5, 1e-12);

    using Q7_0 = Fixed<7, 0>; // integer-only: multiply must not shift
    EXPECT_DOUBLE_EQ((Q7_0::from_real(5.0) * Q7_0::from_real(6.0)).to_real(), 30.0);
}

class FixedRoundTripTest : public ::testing::TestWithParam<int> {};

TEST_P(FixedRoundTripTest, RawToRealToRawIsIdentity) {
    const auto raw = static_cast<Q3_4::raw_type>(GetParam());
    const Q3_4 f = Q3_4::from_raw(raw);
    EXPECT_EQ(Q3_4::from_real(f.to_real()).raw(), raw);
}

INSTANTIATE_TEST_SUITE_P(AllRawCodes, FixedRoundTripTest,
                         ::testing::Range(-128, 128, 7));

class FixedMulPropertyTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(FixedMulPropertyTest, MulWithinHalfLsbOfRealWhenInRange) {
    Rng rng(GetParam());
    for (int i = 0; i < 200; ++i) {
        const Q3_4 a = Q3_4::from_real(rng.uniform(-2.0, 2.0));
        const Q3_4 b = Q3_4::from_real(rng.uniform(-2.0, 2.0));
        const double real = a.to_real() * b.to_real();
        ASSERT_LT(std::abs(real), 7.9); // stay in range for this property
        EXPECT_NEAR((a * b).to_real(), real, Q3_4::resolution() / 2.0 + 1e-12);
    }
}

INSTANTIATE_TEST_SUITE_P(RandomOperands, FixedMulPropertyTest,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

TEST(TanhLut, MatchesTanhWithinLsb) {
    const TanhLut& lut = TanhLut::instance();
    for (int raw = -128; raw <= 127; ++raw) {
        const Q3_4 x = Q3_4::from_raw(static_cast<std::int16_t>(raw));
        const double expected = std::tanh(x.to_real());
        EXPECT_NEAR(lut(x).to_real(), expected, Q3_4::resolution() / 2 + 1e-12)
            << "raw=" << raw;
    }
}

TEST(TanhLut, MonotonicNonDecreasing) {
    const TanhLut& lut = TanhLut::instance();
    Q3_4 prev = lut(Q3_4::min());
    for (int raw = -127; raw <= 127; ++raw) {
        const Q3_4 y = lut(Q3_4::from_raw(static_cast<std::int16_t>(raw)));
        EXPECT_GE(y, prev);
        prev = y;
    }
}

TEST(TanhLut, SaturatesToUnit) {
    const TanhLut& lut = TanhLut::instance();
    EXPECT_DOUBLE_EQ(lut(Q3_4::from_real(7.0)).to_real(), 1.0);
    EXPECT_DOUBLE_EQ(lut(Q3_4::from_real(-7.0)).to_real(), -1.0);
    EXPECT_DOUBLE_EQ(lut(Q3_4::zero()).to_real(), 0.0);
}

} // namespace
} // namespace deepstrike::fx
