#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "test_helpers.hpp"
#include "util/bitvec.hpp"
#include "util/csv.hpp"
#include "util/divide.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"

namespace deepstrike {
namespace {

// ------------------------------------------------------------- DivideU32

// The reciprocal is exact for every 32-bit dividend: checked at the edge
// divisors (1, powers of two, 2^32 - 1) and edge dividends, then at random
// pairs.
TEST(DivideU32, ExactAtEdgeAndRandomOperands) {
    constexpr std::uint32_t kMax = ~std::uint32_t{0};
    std::vector<std::uint32_t> divisors = {1,     2,        3,    5,     7,
                                           25,    150,      576,  1024,  65536,
                                           65537, 1u << 31, kMax, kMax - 1, (1u << 31) + 1};
    Rng rng(97);
    for (int i = 0; i < 200; ++i) {
        divisors.push_back(static_cast<std::uint32_t>(rng.uniform_int(1, kMax)));
    }
    for (const std::uint32_t d : divisors) {
        const DivideU32 div(d);
        std::vector<std::uint32_t> dividends = {0, 1, d - 1, d, kMax, kMax - 1, kMax / d * d};
        if (d < kMax) dividends.push_back(d + 1);
        for (int i = 0; i < 200; ++i) {
            dividends.push_back(static_cast<std::uint32_t>(rng.uniform_int(0, kMax)));
        }
        for (const std::uint32_t n : dividends) {
            ASSERT_EQ(div.quotient(n), n / d) << n << " / " << d;
            ASSERT_EQ(div.remainder(n), n % d) << n << " % " << d;
        }
    }
}

// ------------------------------------------------------------------- Rng

TEST(Rng, SameSeedSameStream) {
    Rng a(42);
    Rng b(42);
    for (int i = 0; i < 1000; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiffer) {
    Rng a(1);
    Rng b(2);
    int same = 0;
    for (int i = 0; i < 100; ++i) {
        if (a.next() == b.next()) ++same;
    }
    EXPECT_EQ(same, 0);
}

TEST(Rng, UniformInUnitInterval) {
    Rng rng(7);
    for (int i = 0; i < 10000; ++i) {
        const double u = rng.uniform();
        EXPECT_GE(u, 0.0);
        EXPECT_LT(u, 1.0);
    }
}

TEST(Rng, UniformMeanIsHalf) {
    Rng rng(11);
    RunningStats stats;
    for (int i = 0; i < 100000; ++i) stats.add(rng.uniform());
    EXPECT_NEAR(stats.mean(), 0.5, 0.01);
    EXPECT_NEAR(stats.variance(), 1.0 / 12.0, 0.005);
}

TEST(Rng, UniformIntCoversRangeInclusive) {
    Rng rng(13);
    std::set<std::int64_t> seen;
    for (int i = 0; i < 1000; ++i) {
        const std::int64_t v = rng.uniform_int(3, 7);
        EXPECT_GE(v, 3);
        EXPECT_LE(v, 7);
        seen.insert(v);
    }
    EXPECT_EQ(seen.size(), 5u);
}

TEST(Rng, UniformIntSingleValue) {
    Rng rng(17);
    EXPECT_EQ(rng.uniform_int(5, 5), 5);
}

TEST(Rng, UniformIntContractViolation) {
    Rng rng(19);
    EXPECT_THROW(rng.uniform_int(3, 2), ContractError);
}

TEST(Rng, NormalMoments) {
    Rng rng(23);
    RunningStats stats;
    for (int i = 0; i < 100000; ++i) stats.add(rng.normal(2.0, 3.0));
    EXPECT_NEAR(stats.mean(), 2.0, 0.05);
    EXPECT_NEAR(stats.stddev(), 3.0, 0.05);
}

TEST(Rng, BernoulliExtremes) {
    Rng rng(29);
    for (int i = 0; i < 100; ++i) {
        EXPECT_FALSE(rng.bernoulli(0.0));
        EXPECT_TRUE(rng.bernoulli(1.0));
    }
}

TEST(Rng, BernoulliRate) {
    Rng rng(31);
    int hits = 0;
    for (int i = 0; i < 100000; ++i) hits += rng.bernoulli(0.3);
    EXPECT_NEAR(hits / 100000.0, 0.3, 0.01);
}

TEST(Rng, ForkDecorrelates) {
    Rng parent(37);
    Rng childA = parent.fork(1);
    Rng childB = parent.fork(2);
    int same = 0;
    for (int i = 0; i < 100; ++i) {
        if (childA.next() == childB.next()) ++same;
    }
    EXPECT_EQ(same, 0);
}

TEST(Rng, StateRoundTrip) {
    Rng rng(41);
    rng.next();
    const auto snapshot = rng.state();
    const auto expected = rng.next();
    Rng restored(0);
    restored.set_state(snapshot);
    EXPECT_EQ(restored.next(), expected);
}

using testing::bits_of;

// Rng::normal() and its lazy steps (pending_normal() to see the pair's
// uniforms, then normal() or skip_normal() to take the deviate) draw the
// eager Box–Muller's deviates bit for bit and leave its xoshiro state,
// interleaved in random order with the other draws and with set_state(),
// including pairs whose magnitude is never computed (both deviates
// skipped) or is computed only for the second deviate.
TEST(Rng, SplitNormalStepsMatchEagerBoxMuller) {
    Rng script(2024);
    Rng split(99);
    Rng eager_rng(99);
    testing::EagerNormal eager;
    std::size_t skipped = 0;
    std::size_t peeked = 0;
    for (int i = 0; i < 200'000; ++i) {
        const std::int64_t op = script.uniform_int(0, 7);
        switch (op) {
            case 0:
                ASSERT_EQ(bits_of(split.normal()), bits_of(eager(eager_rng))) << i;
                break;
            case 1: {
                // The peeked uniforms fix the deviate normal() then takes.
                const Rng::PendingNormal p = split.pending_normal();
                const Rng::PendingNormal again = split.pending_normal();
                ASSERT_EQ(bits_of(again.u1), bits_of(p.u1)) << i;
                ASSERT_EQ(bits_of(again.u2), bits_of(p.u2)) << i;
                ASSERT_EQ(again.sine, p.sine) << i;
                ASSERT_GE(p.u1, 0x1.0p-53) << i;
                ASSERT_LT(p.u1, 1.0) << i;
                ASSERT_GE(p.u2, 0.0) << i;
                ASSERT_LT(p.u2, 1.0) << i;
                const double z = split.normal();
                ASSERT_EQ(bits_of(z), bits_of(eager(eager_rng))) << i;
                ASSERT_EQ(bits_of(z), bits_of(testing::eager_deviate(p.u1, p.u2, p.sine)))
                    << i;
                ++peeked;
                break;
            }
            case 2:
            case 3: {
                const Rng::PendingNormal p = split.pending_normal();
                split.skip_normal();
                ASSERT_EQ(bits_of(eager(eager_rng)),
                          bits_of(testing::eager_deviate(p.u1, p.u2, p.sine)))
                    << i;
                ++skipped;
                break;
            }
            case 4:
                ASSERT_EQ(bits_of(split.uniform()), bits_of(eager_rng.uniform())) << i;
                break;
            case 5:
                ASSERT_EQ(split.uniform_int(-5, 1000), eager_rng.uniform_int(-5, 1000)) << i;
                break;
            case 6: {
                const std::array<std::uint64_t, 4> state{script.next(), script.next(),
                                                         script.next(), script.next()};
                split.set_state(state);
                eager_rng.set_state(state);
                eager.reset();
                break;
            }
            default:
                ASSERT_EQ(bits_of(split.normal(0.5, 3.0)),
                          bits_of(0.5 + 3.0 * eager(eager_rng)))
                    << i;
                break;
        }
        ASSERT_EQ(split.state(), eager_rng.state()) << "after op " << op << " at " << i;
    }
    EXPECT_GT(skipped, 10'000u);
    EXPECT_GT(peeked, 10'000u);
}

// stream_equal sees the pending Box–Muller pair that state() cannot,
// compares it by its uniforms whether or not its magnitude has been
// computed, and a skipped deviate advances the stream exactly as a taken
// one.
TEST(Rng, StreamEqualSeesThePendingPair) {
    Rng a(5);
    Rng b(5);
    EXPECT_TRUE(stream_equal(a, b));
    a.normal();
    EXPECT_FALSE(stream_equal(a, b));
    b.normal();
    EXPECT_TRUE(stream_equal(a, b)); // both hold the pair's second deviate
    Rng restored(0);
    restored.set_state(a.state());
    EXPECT_FALSE(stream_equal(a, restored));

    // A pair whose magnitude was never computed: only peeked, or with its
    // first deviate skipped, against one whose first deviate was taken.
    Rng peeking(6);
    Rng skipping(6);
    Rng taking(6);
    peeking.pending_normal();
    skipping.pending_normal();
    EXPECT_TRUE(stream_equal(peeking, skipping));
    EXPECT_FALSE(stream_equal(peeking, taking));
    skipping.skip_normal();
    taking.normal();
    EXPECT_TRUE(stream_equal(skipping, taking));
    EXPECT_FALSE(stream_equal(peeking, skipping));
    EXPECT_EQ(bits_of(skipping.normal()), bits_of(taking.normal()));
    EXPECT_TRUE(stream_equal(skipping, taking));

    // Both deviates of a pair skipped: its magnitude is never computed,
    // and the streams still agree from the next pair on.
    Rng skip_both(7);
    Rng take_both(7);
    skip_both.skip_normal();
    skip_both.skip_normal();
    take_both.normal();
    take_both.normal();
    EXPECT_TRUE(stream_equal(skip_both, take_both));
    EXPECT_EQ(bits_of(skip_both.normal()), bits_of(take_both.normal()));
}

// ---------------------------------------------------------- RunningStats

TEST(RunningStats, Empty) {
    RunningStats s;
    EXPECT_EQ(s.count(), 0u);
    EXPECT_EQ(s.mean(), 0.0);
    EXPECT_EQ(s.variance(), 0.0);
}

TEST(RunningStats, KnownValues) {
    RunningStats s;
    for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(x);
    EXPECT_DOUBLE_EQ(s.mean(), 5.0);
    EXPECT_NEAR(s.variance(), 32.0 / 7.0, 1e-12);
    EXPECT_DOUBLE_EQ(s.min(), 2.0);
    EXPECT_DOUBLE_EQ(s.max(), 9.0);
    EXPECT_DOUBLE_EQ(s.sum(), 40.0);
}

TEST(RunningStats, MergeMatchesSequential) {
    Rng rng(43);
    RunningStats all;
    RunningStats left;
    RunningStats right;
    for (int i = 0; i < 1000; ++i) {
        const double x = rng.normal(1.0, 2.0);
        all.add(x);
        (i < 400 ? left : right).add(x);
    }
    left.merge(right);
    EXPECT_EQ(left.count(), all.count());
    EXPECT_NEAR(left.mean(), all.mean(), 1e-9);
    EXPECT_NEAR(left.variance(), all.variance(), 1e-9);
}

TEST(RunningStats, MergeWithEmpty) {
    RunningStats a;
    a.add(1.0);
    RunningStats empty;
    a.merge(empty);
    EXPECT_EQ(a.count(), 1u);
    empty.merge(a);
    EXPECT_EQ(empty.count(), 1u);
    EXPECT_DOUBLE_EQ(empty.mean(), 1.0);
}

// -------------------------------------------------------------- Histogram

TEST(Histogram, BinningAndClamping) {
    Histogram h(0.0, 10.0, 10);
    h.add(0.5);   // bin 0
    h.add(9.5);   // bin 9
    h.add(-5.0);  // clamps to bin 0
    h.add(50.0);  // clamps to bin 9
    EXPECT_EQ(h.bin_count(0), 2u);
    EXPECT_EQ(h.bin_count(9), 2u);
    EXPECT_EQ(h.total(), 4u);
}

TEST(Histogram, Quantile) {
    Histogram h(0.0, 100.0, 100);
    for (int i = 0; i < 100; ++i) h.add(i + 0.5);
    EXPECT_NEAR(h.quantile(0.5), 50.0, 1.5);
    EXPECT_NEAR(h.quantile(0.9), 90.0, 1.5);
}

TEST(Histogram, InvalidConfig) {
    EXPECT_THROW(Histogram(1.0, 1.0, 10), ContractError);
    EXPECT_THROW(Histogram(0.0, 1.0, 0), ContractError);
}

TEST(IndexCounter, CountsAndArgmax) {
    IndexCounter c;
    c.add(3);
    c.add(3);
    c.add(1);
    EXPECT_EQ(c.count(3), 2u);
    EXPECT_EQ(c.count(1), 1u);
    EXPECT_EQ(c.count(99), 0u);
    EXPECT_EQ(c.argmax(), 3u);
    EXPECT_EQ(c.total(), 3u);
}

// ----------------------------------------------------------------- BitVec

TEST(BitVec, BasicSetGet) {
    BitVec v(130);
    EXPECT_EQ(v.size(), 130u);
    EXPECT_EQ(v.popcount(), 0u);
    v.set(0, true);
    v.set(64, true);
    v.set(129, true);
    EXPECT_TRUE(v.get(0));
    EXPECT_TRUE(v.get(64));
    EXPECT_TRUE(v.get(129));
    EXPECT_FALSE(v.get(1));
    EXPECT_EQ(v.popcount(), 3u);
}

TEST(BitVec, OutOfRangeThrows) {
    BitVec v(8);
    EXPECT_THROW(v.get(8), ContractError);
    EXPECT_THROW(v.set(8, true), ContractError);
}

TEST(BitVec, FromStringRoundTrip) {
    const std::string bits = "1010011100101";
    BitVec v = BitVec::from_string(bits);
    EXPECT_EQ(v.to_string(), bits);
    EXPECT_EQ(v.popcount(), 7u);
}

TEST(BitVec, FromStringRejectsGarbage) {
    EXPECT_THROW(BitVec::from_string("10x1"), FormatError);
}

TEST(BitVec, LongestOneRun) {
    EXPECT_EQ(BitVec::from_string("0110111101").longest_one_run(), 4u);
    EXPECT_EQ(BitVec::from_string("0000").longest_one_run(), 0u);
    EXPECT_EQ(BitVec::from_string("1111").longest_one_run(), 4u);
}

TEST(BitVec, FindFirstOne) {
    EXPECT_EQ(BitVec::from_string("0001").find_first_one(), 3u);
    EXPECT_EQ(BitVec::from_string("0000").find_first_one(), 4u);
    BitVec v(200);
    v.set(150, true);
    EXPECT_EQ(v.find_first_one(), 150u);
}

TEST(BitVec, PushBackAndAppend) {
    BitVec v;
    for (int i = 0; i < 70; ++i) v.push_back(i % 3 == 0);
    EXPECT_EQ(v.size(), 70u);
    EXPECT_EQ(v.popcount(), 24u);
    BitVec w = BitVec::from_string("11");
    v.append(w);
    EXPECT_EQ(v.size(), 72u);
    EXPECT_TRUE(v.get(70));
    EXPECT_TRUE(v.get(71));
}

TEST(BitVec, ResizeClearsNewBits) {
    BitVec v = BitVec::from_string("1111");
    v.resize(8);
    EXPECT_EQ(v.popcount(), 4u);
    for (std::size_t i = 4; i < 8; ++i) EXPECT_FALSE(v.get(i));
}

class BitVecPropertyTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(BitVecPropertyTest, PopcountMatchesNaive) {
    Rng rng(GetParam());
    const auto n = static_cast<std::size_t>(rng.uniform_int(1, 500));
    BitVec v(n);
    std::size_t expected = 0;
    for (std::size_t i = 0; i < n; ++i) {
        const bool bit = rng.bernoulli(0.5);
        v.set(i, bit);
        expected += bit;
    }
    EXPECT_EQ(v.popcount(), expected);
    EXPECT_EQ(BitVec::from_string(v.to_string()), v);
}

INSTANTIATE_TEST_SUITE_P(RandomVectors, BitVecPropertyTest,
                         ::testing::Range<std::uint64_t>(0, 24));

// --------------------------------------------------------------------- CSV

TEST(Csv, EscapingRules) {
    EXPECT_EQ(CsvWriter::escape("plain"), "plain");
    EXPECT_EQ(CsvWriter::escape("a,b"), "\"a,b\"");
    EXPECT_EQ(CsvWriter::escape("say \"hi\""), "\"say \"\"hi\"\"\"");
    EXPECT_EQ(CsvWriter::escape("line\nbreak"), "\"line\nbreak\"");
}

TEST(Csv, InMemoryRows) {
    CsvWriter csv;
    csv.row("name", "value");
    csv.row("x", 1.5);
    csv.row("with,comma", 2);
    EXPECT_EQ(csv.str(), "name,value\nx,1.5\n\"with,comma\",2\n");
}

TEST(Csv, BadPathThrows) {
    EXPECT_THROW(CsvWriter("/nonexistent_dir_xyz/file.csv"), IoError);
}

} // namespace
} // namespace deepstrike
