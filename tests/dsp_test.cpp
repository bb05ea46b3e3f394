#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <limits>
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
}

// ------------------------------------------- magnitude-first evaluation

/// A delay factor for `slice` at `path_scale` that puts k = path delay *
/// path_scale * factor where the outcome is decided: anywhere within 10%
/// of the clock period (mode 0), within 4 ulps of where k * (1 + sigma *
/// mag) meets the period (mode 1), or within 4 ulps of where k meets it
/// (mode 2). `mag` is the magnitude of the next jitter deviate.
double probe_factor(const DspSlice& slice, double path_scale, double mag, int mode,
                    Rng& pick) {
    const double period = slice.params().clock_period_s;
    const double unit = slice.path_delay_s() * path_scale;
    if (mode == 0) return period / unit * pick.uniform(0.9, 1.1);
    double factor = mode == 1
        ? period / (unit * (1.0 + (0.0 + slice.params().op_jitter_sigma * mag)))
        : period / unit;
    const std::int64_t steps = pick.uniform_int(-4, 4);
    const double toward = steps < 0 ? 0.0 : std::numeric_limits<double>::infinity();
    for (std::int64_t i = 0; i < std::abs(steps); ++i) {
        factor = std::nextafter(factor, toward);
    }
    return factor;
}

/// What check_against_eager saw: outcomes by kind, and how many
/// evaluations the magnitude bound, the quadrant test or only the exact
/// deviate decided.
struct EagerCheck {
    std::array<std::size_t, 3> kinds{};
    std::size_t by_magnitude = 0;
    std::size_t by_quadrant = 0;
    std::size_t by_deviate = 0;
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
    std::vector<DspSlice> slices;
    for (std::uint32_t i = 0; i < 16; ++i) {
        DspTimingParams params;
        params.nominal_path_fraction = pick.uniform(0.8, 0.95);
        params.op_jitter_sigma = pick.uniform(0.005, 0.05);
        params.duplication_band = pick.uniform(0.005, 0.03);
        slices.emplace_back(i, params, pick);
    }
    Rng split(seed + 1);
    Rng full(seed + 1);
    Rng eager_rng(seed + 1);
    deepstrike::testing::EagerNormal eager;
    EagerCheck seen;
    const std::size_t reps = tmr ? 3 : 1;
    for (std::size_t e = 0; e < evaluations; e += reps) {
        const DspSlice& slice =
            slices[static_cast<std::size_t>(pick.uniform_int(0, 15))];
        const double path_scale = pick.bernoulli(0.5) ? 1.0 : pick.uniform(0.9, 1.0);
        Rng peek = split;
        const double factor =
            probe_factor(slice, path_scale, peek.normal_magnitude(),
                         static_cast<int>(pick.uniform_int(0, 2)), pick);
        const double k = slice.path_delay_s() * path_scale * factor;
        const double period = slice.params().clock_period_s;
        for (std::size_t r = 0; r < reps; ++r) {
            peek = split;
            const double mag = peek.normal_magnitude();
            if (k * (1.0 + (0.0 + slice.params().op_jitter_sigma * mag)) <= period) {
                ++seen.by_magnitude;
            } else if (k <= period && peek.normal_nonpositive()) {
                ++seen.by_quadrant;
            } else {
                ++seen.by_deviate;
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

// evaluate_with_factor rules an op clean from the jitter's Box–Muller
// magnitude or its angle's quadrant whenever it can, and takes the exact
// deviate otherwise. That must be exact: the same outcome as the eager
// comparison and the same stream position, on random factors as well as
// on factors a few ulps either side of both bounds.
TEST(Dsp, MagnitudeFirstEvaluationMatchesEagerComparison) {
    for (const bool tmr : {false, true}) {
        const EagerCheck seen = check_against_eager(tmr, 1'050'000, tmr ? 77 : 76);
        // Not vacuous: every outcome kind and every decision step occurs
        // often.
        for (const std::size_t n : seen.kinds) EXPECT_GT(n, 10'000u) << "tmr " << tmr;
        EXPECT_GT(seen.by_magnitude, 10'000u) << "tmr " << tmr;
        EXPECT_GT(seen.by_quadrant, 10'000u) << "tmr " << tmr;
        EXPECT_GT(seen.by_deviate, 10'000u) << "tmr " << tmr;
    }
}

TEST(Dsp, FaultKindNames) {
    EXPECT_STREQ(fault_kind_name(FaultKind::None), "none");
    EXPECT_STREQ(fault_kind_name(FaultKind::Duplication), "duplication");
    EXPECT_STREQ(fault_kind_name(FaultKind::Random), "random");
}

} // namespace
} // namespace deepstrike::accel
