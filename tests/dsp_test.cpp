#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <limits>
#include <utility>
#include <vector>

#include "accel/dsp.hpp"
#include "test_helpers.hpp"
#include "util/error.hpp"

namespace deepstrike::accel {
namespace {

pdn::DelayModel nominal_delay() { return pdn::DelayModel{}; }

DspSlice make_slice(std::uint64_t seed = 1, DspTimingParams params = {}) {
    Rng rng(seed);
    return DspSlice(0, params, rng);
}

TEST(Dsp, NoFaultAtNominalVoltage) {
    const DspSlice slice = make_slice();
    const pdn::DelayModel delay = nominal_delay();
    Rng rng(2);
    for (int i = 0; i < 10000; ++i) {
        EXPECT_EQ(slice.evaluate(1.0, delay, rng), FaultKind::None);
    }
}

TEST(Dsp, AlwaysFaultsUnderDeepGlitch) {
    const DspSlice slice = make_slice();
    const pdn::DelayModel delay = nominal_delay();
    Rng rng(3);
    int faults = 0;
    for (int i = 0; i < 1000; ++i) {
        if (slice.evaluate(0.80, delay, rng) != FaultKind::None) ++faults;
    }
    EXPECT_EQ(faults, 1000);
}

TEST(Dsp, FaultRateMonotoneInDroop) {
    const DspSlice slice = make_slice();
    const pdn::DelayModel delay = nominal_delay();
    double prev_rate = -1.0;
    for (double v : {0.975, 0.960, 0.950, 0.940, 0.930, 0.915}) {
        Rng rng(4);
        int faults = 0;
        for (int i = 0; i < 4000; ++i) {
            if (slice.evaluate(v, delay, rng) != FaultKind::None) ++faults;
        }
        const double rate = faults / 4000.0;
        EXPECT_GE(rate, prev_rate - 0.02) << "at v=" << v;
        prev_rate = rate;
    }
    EXPECT_GT(prev_rate, 0.9);
}

TEST(Dsp, DuplicationAppearsBeforeRandom) {
    // At the shallow edge of the fault region, faults are (almost) all
    // duplications; deep in it they are (almost) all random.
    const DspSlice slice = make_slice();
    const pdn::DelayModel delay = nominal_delay();

    auto rates = [&](double v) {
        Rng rng(5);
        int dup = 0;
        int rnd = 0;
        for (int i = 0; i < 20000; ++i) {
            switch (slice.evaluate(v, delay, rng)) {
                case FaultKind::Duplication: ++dup; break;
                case FaultKind::Random: ++rnd; break;
                default: break;
            }
        }
        return std::pair<double, double>(dup / 20000.0, rnd / 20000.0);
    };

    const auto shallow = rates(0.955);
    EXPECT_GT(shallow.first, 0.0);
    EXPECT_GT(shallow.first, shallow.second * 2);

    const auto deep = rates(0.90);
    EXPECT_GT(deep.second, 0.9);
    EXPECT_LT(deep.first, 0.1);
}

TEST(Dsp, SafeVoltageIsActuallySafe) {
    const pdn::DelayModel delay = nominal_delay();
    for (std::uint64_t seed = 0; seed < 8; ++seed) {
        const DspSlice slice = make_slice(seed);
        const double safe = slice.safe_voltage(delay);
        Rng rng(seed + 100);
        int faults = 0;
        for (int i = 0; i < 5000; ++i) {
            if (slice.evaluate(safe + 0.001, delay, rng) != FaultKind::None) ++faults;
        }
        EXPECT_EQ(faults, 0) << "seed " << seed;
    }
}

TEST(Dsp, SafeVoltageNotOverlyConservative) {
    // A bit below safe_voltage, faults must become possible (within 25 mV).
    const DspSlice slice = make_slice(1);
    const pdn::DelayModel delay = nominal_delay();
    const double safe = slice.safe_voltage(delay);
    Rng rng(6);
    int faults = 0;
    for (int i = 0; i < 20000; ++i) {
        if (slice.evaluate(safe - 0.025, delay, rng) != FaultKind::None) ++faults;
    }
    EXPECT_GT(faults, 0);
}

TEST(Dsp, PathScaleDeratesFaultRate) {
    const DspSlice slice = make_slice(1);
    const pdn::DelayModel delay = nominal_delay();
    const double v = 0.953;
    Rng rng_full(7);
    Rng rng_derated(7);
    int full = 0;
    int derated = 0;
    for (int i = 0; i < 20000; ++i) {
        if (slice.evaluate(v, delay, rng_full, 1.0) != FaultKind::None) ++full;
        if (slice.evaluate(v, delay, rng_derated, 0.99) != FaultKind::None) ++derated;
    }
    EXPECT_LT(derated, full);
}

TEST(Dsp, ProcessVariationBoundedByClamp) {
    const DspTimingParams params{};
    const double nominal = params.clock_period_s * params.nominal_path_fraction;
    for (std::uint64_t seed = 0; seed < 50; ++seed) {
        const DspSlice slice = make_slice(seed);
        EXPECT_LT(std::abs(slice.path_delay_s() - nominal),
                  nominal * 3.1 * params.variation_sigma);
    }
}

TEST(Dsp, RelaxedLogicImmuneAtAttackDroops) {
    const DspSlice pool = make_slice(1, DspTimingParams::relaxed_logic());
    const pdn::DelayModel delay = nominal_delay();
    Rng rng(8);
    for (int i = 0; i < 2000; ++i) {
        EXPECT_EQ(pool.evaluate(0.92, delay, rng), FaultKind::None);
    }
}

TEST(Dsp, ComputePreAdderMultiply) {
    using fx::Q3_4;
    const fx::Acc r = DspSlice::compute(Q3_4::from_real(1.0), Q3_4::from_real(2.0),
                                        Q3_4::from_real(0.5));
    // (1.0 + 2.0) * 0.5 = 1.5 -> raw (16+32)*8 = 384 = 1.5 * 256.
    EXPECT_EQ(r, 384);
}

TEST(Dsp, RandomFaultValueWithinProductRange) {
    Rng rng(9);
    for (int i = 0; i < 10000; ++i) {
        const fx::Acc v = DspSlice::random_fault_value(rng);
        EXPECT_GE(v, -(128 * 256));
        EXPECT_LT(v, 128 * 256);
    }
}

TEST(Dsp, InvalidTimingRejected) {
    Rng rng(10);
    DspTimingParams bad{};
    bad.nominal_path_fraction = 1.5;
    EXPECT_THROW(DspSlice(0, bad, rng), ContractError);
    bad = DspTimingParams{};
    bad.clock_period_s = 0.0;
    EXPECT_THROW(DspSlice(0, bad, rng), ContractError);
    bad = DspTimingParams{};
    bad.op_jitter_sigma = -0.01;
    EXPECT_THROW(DspSlice(0, bad, rng), ContractError);
    bad = DspTimingParams{};
    bad.duplication_band = -0.01;
    EXPECT_THROW(DspSlice(0, bad, rng), ContractError);
}

// ------------------------------------------------- bracketed evaluation

/// `x` moved `steps` ulps up (steps > 0) or down.
double nudge(double x, std::int64_t steps) {
    const double toward = steps < 0 ? -std::numeric_limits<double>::infinity()
                                    : std::numeric_limits<double>::infinity();
    for (std::int64_t i = 0; i < std::abs(steps); ++i) x = std::nextafter(x, toward);
    return x;
}

/// Slices with random path fractions, jitter sigmas and duplication
/// bands around the product's.
std::vector<DspSlice> random_slices(Rng& pick) {
    std::vector<DspSlice> slices;
    for (std::uint32_t i = 0; i < 16; ++i) {
        DspTimingParams params;
        params.nominal_path_fraction = pick.uniform(0.8, 0.95);
        params.op_jitter_sigma = pick.uniform(0.005, 0.05);
        params.duplication_band = pick.uniform(0.005, 0.03);
        slices.emplace_back(i, params, pick);
    }
    return slices;
}

/// A delay factor for `slice` at `path_scale` that puts the outcome of
/// jitter deviate `z` where it is decided: the jitter-free delay anywhere
/// within 10% of the clock period (mode 0), or the delay with jitter z
/// within 4 ulps of the period (mode 1) or of the duplication limit
/// (mode 2).
double probe_factor(const DspSlice& slice, double path_scale, double z, int mode,
                    Rng& pick) {
    const DspTimingParams& p = slice.params();
    const double unit = slice.path_delay_s() * path_scale;
    if (mode == 0) return p.clock_period_s / unit * pick.uniform(0.9, 1.1);
    const double limit =
        mode == 1 ? p.clock_period_s : p.clock_period_s * (1.0 + p.duplication_band);
    return nudge(limit / (unit * (1.0 + (0.0 + p.op_jitter_sigma * z))),
                 pick.uniform_int(-4, 4));
}

/// The engine's TMR vote over an op's three evaluations.
FaultKind tmr_vote(const std::array<FaultKind, 3>& kinds) {
    int dup = 0;
    int rnd = 0;
    for (const FaultKind kind : kinds) {
        if (kind == FaultKind::Duplication) ++dup;
        if (kind == FaultKind::Random) ++rnd;
    }
    if (dup + rnd < 2) return FaultKind::None;
    return dup >= rnd ? FaultKind::Duplication : FaultKind::Random;
}

/// The doubles within 4 ulps either side of `edge` that lie in [lo, hi).
std::vector<double> around(double edge, double lo, double hi) {
    std::vector<double> out;
    for (std::int64_t steps = -4; steps <= 4; ++steps) {
        const double u = nudge(edge, steps);
        if (u >= lo && u < hi) out.push_back(u);
    }
    return out;
}

// bracket_fault_kind, the pure decision of evaluate_with_factor, may only
// settle an op on the outcome the eager comparison gives its exact
// deviate (testing::eager_deviate, testing::eager_fault_kind): checked at
// every u1 and u2 bucket edge of the tables (the angle's quadrant edges
// among them) and 4 ulps either side, with factors that put the exact
// delay within 4 ulps of the period and of the duplication limit, one
// evaluation per op and, as under TMR, three voted at one factor. The
// tables' margins must also hold: each range keeps the computed magnitude,
// cosine and sine at every edge point even 4 ulps off (libm's error is
// below one), and no delay within 4 ulps of a limit is ever settled, so
// no decision rests on the last bits of libm.
TEST(Dsp, BracketDecisionMatchesEagerAtBucketEdges) {
    constexpr double u1_min = 0x1.0p-53;  // the least nonzero uniform
    const JitterBrackets& brackets = jitter_brackets();
    Rng pick(88);
    std::vector<std::pair<double, double>> points;  // (u1, u2)
    for (std::size_t i = 0; i <= JitterBrackets::kMagBuckets; ++i) {
        const double edge =
            i == 0 ? u1_min : static_cast<double>(i) / JitterBrackets::kMagBuckets;
        for (const double u1 : around(edge, u1_min, 1.0)) {
            points.emplace_back(u1, pick.uniform());
        }
    }
    for (std::size_t j = 0; j <= JitterBrackets::kAngleBuckets; ++j) {
        const double edge = static_cast<double>(j) / JitterBrackets::kAngleBuckets;
        for (const double u2 : around(edge, 0.0, 1.0)) {
            points.emplace_back(std::max(pick.uniform(), u1_min), u2);
        }
    }

    const auto holds = [](const JitterBrackets::Range& range, double value) {
        return range.lo <= nudge(value, -4) && nudge(value, 4) <= range.hi;
    };
    for (const auto& [u1, u2] : points) {
        const std::size_t i = static_cast<std::size_t>(u1 * JitterBrackets::kMagBuckets);
        const std::size_t j = static_cast<std::size_t>(u2 * JitterBrackets::kAngleBuckets);
        const double angle = 2.0 * M_PI * u2;
        ASSERT_TRUE(holds(brackets.mag[i], std::sqrt(-2.0 * std::log(u1)))) << "u1 " << u1;
        ASSERT_TRUE(holds(brackets.trig[j][0], std::cos(angle))) << "u2 " << u2;
        ASSERT_TRUE(holds(brackets.trig[j][1], std::sin(angle))) << "u2 " << u2;
    }

    const std::vector<DspSlice> slices = random_slices(pick);
    const std::size_t n_deviates = 2 * points.size();
    // Deviate n is the (n % 2 == 1 ? sine : cosine) deviate of point n / 2.
    const auto deviate = [&](std::size_t n) {
        const auto& [u1, u2] = points[n / 2];
        return deepstrike::testing::eager_deviate(u1, u2, n % 2 == 1);
    };
    std::size_t settled = 0;
    std::size_t unsettled = 0;
    for (const bool tmr : {false, true}) {
        for (std::size_t n = 0; n < n_deviates; ++n) {
            const DspSlice& slice =
                slices[static_cast<std::size_t>(pick.uniform_int(0, 15))];
            const DspTimingParams& p = slice.params();
            const double path_scale = pick.bernoulli(0.5) ? 1.0 : pick.uniform(0.9, 1.0);
            const double factor = probe_factor(slice, path_scale, deviate(n),
                                               static_cast<int>(n % 3), pick);
            const double k = slice.path_delay_s() * path_scale * factor;
            const double dup_limit = p.clock_period_s * (1.0 + p.duplication_band);
            std::array<FaultKind, 3> got{};
            std::array<FaultKind, 3> want{};
            const std::size_t reps = tmr ? 3 : 1;
            for (std::size_t r = 0; r < reps; ++r) {
                const std::size_t m = (n + r) % n_deviates;
                const auto& [u1, u2] = points[m / 2];
                const double z = deviate(m);
                want[r] =
                    deepstrike::testing::eager_fault_kind(slice, factor, z, path_scale);
                const BracketedFault decided =
                    bracket_fault_kind(u1, u2, m % 2 == 1, k, p.op_jitter_sigma,
                                       p.clock_period_s, p.duplication_band);
                got[r] = decided.settled ? decided.kind : want[r];
                const double d = k * (1.0 + (0.0 + p.op_jitter_sigma * z));
                for (const double limit : {p.clock_period_s, dup_limit}) {
                    const double ulp = std::nextafter(limit, 1.0) - limit;
                    if (std::abs(d - limit) <= 4 * ulp) {
                        ASSERT_FALSE(decided.settled)
                            << "settled a delay within 4 ulps of a limit: u1 " << u1
                            << " u2 " << u2 << " factor " << factor;
                    }
                }
                if (!decided.settled) {
                    ++unsettled;
                    continue;
                }
                ++settled;
                ASSERT_EQ(decided.kind, want[r])
                    << "u1 " << u1 << " u2 " << u2 << (m % 2 == 1 ? " sine" : " cosine")
                    << " factor " << factor << " path scale " << path_scale;
            }
            if (tmr) {
                ASSERT_EQ(tmr_vote(got), tmr_vote(want)) << "op " << n;
            }
        }
    }
    EXPECT_GT(settled, 10'000u);
    EXPECT_GT(unsettled, 10'000u);
}

/// What check_against_eager saw: outcomes by kind, and how many
/// evaluations the bracket settled or only the exact deviate decided.
struct EagerCheck {
    std::array<std::size_t, 3> kinds{};
    std::size_t by_bracket = 0;
    std::size_t by_exact = 0;
};

/// Runs `evaluations` evaluations over random slices, factors and path
/// scales (under TMR, three per op at the op's factor, as the engine
/// votes) through evaluate_with_factor, and the same ops through the
/// eager comparison twice: with Rng::normal() deviates, whose stream must
/// stay stream_equal to evaluate_with_factor's, and with the eager
/// Box–Muller (testing::EagerNormal), whose xoshiro state must match.
/// Every outcome must agree.
EagerCheck check_against_eager(bool tmr, std::size_t evaluations, std::uint64_t seed) {
    Rng pick(seed);
    const std::vector<DspSlice> slices = random_slices(pick);
    Rng split(seed + 1);
    Rng full(seed + 1);
    Rng eager_rng(seed + 1);
    deepstrike::testing::EagerNormal eager;
    EagerCheck seen;
    const std::size_t reps = tmr ? 3 : 1;
    for (std::size_t e = 0; e < evaluations; e += reps) {
        const DspSlice& slice =
            slices[static_cast<std::size_t>(pick.uniform_int(0, 15))];
        const DspTimingParams& p = slice.params();
        const double path_scale = pick.bernoulli(0.5) ? 1.0 : pick.uniform(0.9, 1.0);
        Rng peek = split;
        const double factor = probe_factor(slice, path_scale, peek.normal(),
                                           static_cast<int>(pick.uniform_int(0, 2)), pick);
        const double k = slice.path_delay_s() * path_scale * factor;
        for (std::size_t r = 0; r < reps; ++r) {
            peek = split;
            const Rng::PendingNormal z = peek.pending_normal();
            if (bracket_fault_kind(z.u1, z.u2, z.sine, k, p.op_jitter_sigma,
                                   p.clock_period_s, p.duplication_band)
                    .settled) {
                ++seen.by_bracket;
            } else {
                ++seen.by_exact;
            }
            const FaultKind got = slice.evaluate_with_factor(factor, split, path_scale);
            const FaultKind want = deepstrike::testing::eager_fault_kind(
                slice, factor, full.normal(), path_scale);
            const FaultKind oracle = deepstrike::testing::eager_fault_kind(
                slice, factor, eager(eager_rng), path_scale);
            if (got != want || oracle != want) {
                ADD_FAILURE() << "evaluation " << e + r << ": factor " << factor
                              << " path scale " << path_scale << " gave "
                              << fault_kind_name(got) << ", eager "
                              << fault_kind_name(want) << " / " << fault_kind_name(oracle);
                return seen;
            }
            ++seen.kinds[static_cast<std::size_t>(got)];
            if (!stream_equal(split, full) || split.state() != eager_rng.state()) {
                ADD_FAILURE() << "streams diverged at evaluation " << e + r;
                return seen;
            }
        }
    }
    return seen;
}

// evaluate_with_factor settles an op from table bounds on its jitter's
// Box–Muller pair whenever they decide it, and takes the exact deviate
// otherwise. That must be exact: the same outcome as the eager comparison
// and the same stream position, on random factors as well as on factors
// that put the exact delay a few ulps either side of both limits.
TEST(Dsp, BracketedEvaluationMatchesEagerComparison) {
    for (const bool tmr : {false, true}) {
        const EagerCheck seen = check_against_eager(tmr, 1'050'000, tmr ? 77 : 76);
        // Not vacuous: every outcome kind and both decision paths occur
        // often.
        for (const std::size_t n : seen.kinds) EXPECT_GT(n, 10'000u) << "tmr " << tmr;
        EXPECT_GT(seen.by_bracket, 10'000u) << "tmr " << tmr;
        EXPECT_GT(seen.by_exact, 10'000u) << "tmr " << tmr;
    }
}

TEST(Dsp, FaultKindNames) {
    EXPECT_STREQ(fault_kind_name(FaultKind::None), "none");
    EXPECT_STREQ(fault_kind_name(FaultKind::Duplication), "duplication");
    EXPECT_STREQ(fault_kind_name(FaultKind::Random), "random");
}

} // namespace
} // namespace deepstrike::accel
