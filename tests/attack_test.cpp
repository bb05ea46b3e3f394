#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "attack/controller.hpp"
#include "attack/detector.hpp"
#include "attack/scheme_file.hpp"
#include "attack/signal_ram.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace deepstrike::attack {
namespace {

/// Builds a TDC sample whose thermometer boundary sits at `ones`.
tdc::TdcSample sample_with_ones(std::size_t ones, std::size_t width = 128) {
    tdc::TdcSample s;
    s.raw = BitVec(width);
    for (std::size_t i = 0; i < ones && i < width; ++i) s.raw.set(i, true);
    s.readout = static_cast<std::uint8_t>(s.raw.popcount());
    return s;
}

// ---------------------------------------------------------------- detector

TEST(Detector, TapWeightTracksBoundary) {
    const DnnStartDetector det{DetectorConfig{}};
    // Default taps {12, 38, 64, 87, 114}: boundary at 90 sets four of them.
    EXPECT_EQ(det.tap_hamming_weight(sample_with_ones(90)), 4);
    EXPECT_EQ(det.tap_hamming_weight(sample_with_ones(85)), 3);
    EXPECT_EQ(det.tap_hamming_weight(sample_with_ones(50)), 2);
    EXPECT_EQ(det.tap_hamming_weight(sample_with_ones(128)), 5);
    EXPECT_EQ(det.tap_hamming_weight(sample_with_ones(0)), 0);
}

TEST(Detector, TriggersAfterHoldWindow) {
    DetectorConfig cfg;
    cfg.hold_samples = 4;
    DnnStartDetector det(cfg);

    // Idle: no trigger.
    for (int i = 0; i < 20; ++i) EXPECT_FALSE(det.on_sample(sample_with_ones(90)));
    EXPECT_FALSE(det.triggered());

    // Activity begins: trigger exactly on the 4th consecutive low sample.
    EXPECT_FALSE(det.on_sample(sample_with_ones(84)));
    EXPECT_FALSE(det.on_sample(sample_with_ones(85)));
    EXPECT_FALSE(det.on_sample(sample_with_ones(83)));
    EXPECT_TRUE(det.on_sample(sample_with_ones(84)));
    EXPECT_TRUE(det.triggered());
    EXPECT_EQ(det.trigger_sample(), 23u);

    // Fires only once.
    EXPECT_FALSE(det.on_sample(sample_with_ones(84)));
}

TEST(Detector, SingleDipDoesNotTrigger) {
    DetectorConfig cfg;
    cfg.hold_samples = 4;
    DnnStartDetector det(cfg);
    for (int round = 0; round < 10; ++round) {
        det.on_sample(sample_with_ones(85)); // one low sample
        for (int i = 0; i < 5; ++i) det.on_sample(sample_with_ones(90));
    }
    EXPECT_FALSE(det.triggered());
}

TEST(Detector, ResetRearms) {
    DetectorConfig cfg;
    cfg.hold_samples = 2;
    DnnStartDetector det(cfg);
    det.on_sample(sample_with_ones(84));
    EXPECT_TRUE(det.on_sample(sample_with_ones(84)));
    det.reset();
    EXPECT_FALSE(det.triggered());
    det.on_sample(sample_with_ones(84));
    EXPECT_TRUE(det.on_sample(sample_with_ones(84)));
}

TEST(Detector, AutoRearmAfterQuietPeriod) {
    DetectorConfig cfg;
    cfg.hold_samples = 2;
    cfg.auto_rearm = true;
    cfg.rearm_samples = 8;
    DnnStartDetector det(cfg);

    det.on_sample(sample_with_ones(84));
    EXPECT_TRUE(det.on_sample(sample_with_ones(84)));

    // Sustained idle re-arms.
    for (int i = 0; i < 8; ++i) det.on_sample(sample_with_ones(90));
    EXPECT_FALSE(det.triggered());

    det.on_sample(sample_with_ones(84));
    EXPECT_TRUE(det.on_sample(sample_with_ones(84)));
}

TEST(Detector, TapOutOfRangeThrows) {
    DetectorConfig cfg;
    cfg.zone_bits = {12, 38, 64, 87, 200};
    DnnStartDetector det(cfg);
    EXPECT_THROW(det.tap_hamming_weight(sample_with_ones(90)), ContractError);
}

// -------------------------------------------------------------- scheme

TEST(AttackScheme, CompileLayout) {
    AttackScheme s;
    s.attack_delay_cycles = 3;
    s.strike_cycles = 2;
    s.gap_cycles = 1;
    s.num_strikes = 3;
    EXPECT_EQ(s.total_cycles(), 3u + 3 * 2 + 2 * 1);
    EXPECT_EQ(s.to_bits().to_string(), "00011011011");
}

TEST(AttackScheme, SingleStrikeNoGap) {
    AttackScheme s;
    s.attack_delay_cycles = 2;
    s.num_strikes = 1;
    EXPECT_EQ(s.to_bits().to_string(), "001");
}

TEST(AttackScheme, NoStrikesIsAllZeros) {
    AttackScheme s;
    s.attack_delay_cycles = 4;
    s.num_strikes = 0;
    EXPECT_EQ(s.to_bits().to_string(), "0000");
}

class SchemeRoundTripTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SchemeRoundTripTest, CompileParseIsIdentity) {
    Rng rng(GetParam());
    AttackScheme s;
    s.attack_delay_cycles = static_cast<std::size_t>(rng.uniform_int(0, 50));
    s.strike_cycles = static_cast<std::size_t>(rng.uniform_int(1, 5));
    s.gap_cycles = static_cast<std::size_t>(rng.uniform_int(1, 10));
    s.num_strikes = static_cast<std::size_t>(rng.uniform_int(1, 20));

    const AttackScheme parsed = AttackScheme::from_bits(s.to_bits());
    EXPECT_EQ(parsed.attack_delay_cycles, s.attack_delay_cycles);
    EXPECT_EQ(parsed.strike_cycles, s.strike_cycles);
    EXPECT_EQ(parsed.num_strikes, s.num_strikes);
    if (s.num_strikes > 1) {
        EXPECT_EQ(parsed.gap_cycles, s.gap_cycles);
    }
}

INSTANTIATE_TEST_SUITE_P(RandomSchemes, SchemeRoundTripTest,
                         ::testing::Range<std::uint64_t>(0, 20));

// ------------------------------------------------------------ signal RAM

TEST(SignalRam, ReplaysBitsThenZeros) {
    SignalRam ram(64);
    ram.load(BitVec::from_string("0110"));
    EXPECT_FALSE(ram.next_cycle_bit()); // not started
    ram.start();
    EXPECT_FALSE(ram.next_cycle_bit());
    EXPECT_TRUE(ram.next_cycle_bit());
    EXPECT_TRUE(ram.next_cycle_bit());
    EXPECT_FALSE(ram.next_cycle_bit());
    EXPECT_TRUE(ram.exhausted());
    EXPECT_FALSE(ram.next_cycle_bit()); // past-the-end stays low
}

TEST(SignalRam, CapacityEnforced) {
    SignalRam ram(8);
    EXPECT_THROW(ram.load(BitVec(9)), ConfigError);
    AttackScheme huge;
    huge.attack_delay_cycles = 100;
    huge.num_strikes = 1;
    EXPECT_THROW(ram.load(huge), ConfigError);
}

TEST(SignalRam, DefaultCapacityHoldsFullRunScheme) {
    SignalRam ram; // default: two BRAM36 (73,728 bits)
    AttackScheme s;
    s.attack_delay_cycles = 40000;
    s.num_strikes = 4500;
    s.gap_cycles = 2;
    EXPECT_NO_THROW(ram.load(s));
}

TEST(SignalRam, ResetRestartsReplay) {
    SignalRam ram(16);
    ram.load(BitVec::from_string("10"));
    ram.start();
    EXPECT_TRUE(ram.next_cycle_bit());
    ram.reset();
    EXPECT_FALSE(ram.running());
    ram.start();
    EXPECT_TRUE(ram.next_cycle_bit());
}

// ------------------------------------------------------------ controller

TEST(Controller, EndToEndFlow) {
    DetectorConfig dcfg;
    dcfg.hold_samples = 2;
    AttackScheme scheme;
    scheme.attack_delay_cycles = 2;
    scheme.strike_cycles = 1;
    scheme.gap_cycles = 1;
    scheme.num_strikes = 2;

    AttackController ctl(dcfg, scheme);

    // Before trigger: no strikes regardless of cycles elapsed.
    for (int i = 0; i < 5; ++i) EXPECT_FALSE(ctl.strike_bit());

    ctl.on_tdc_sample(sample_with_ones(84));
    ctl.on_tdc_sample(sample_with_ones(84));
    EXPECT_TRUE(ctl.triggered());

    // Replay: delay 2, then 1,0,1.
    EXPECT_FALSE(ctl.strike_bit());
    EXPECT_FALSE(ctl.strike_bit());
    EXPECT_TRUE(ctl.strike_bit());
    EXPECT_FALSE(ctl.strike_bit());
    EXPECT_TRUE(ctl.strike_bit());
    EXPECT_FALSE(ctl.strike_bit());
    EXPECT_TRUE(ctl.done());
}

TEST(Controller, RearmAllowsSecondInference) {
    DetectorConfig dcfg;
    dcfg.hold_samples = 1;
    AttackScheme scheme;
    scheme.num_strikes = 1;
    AttackController ctl(dcfg, scheme);

    ctl.on_tdc_sample(sample_with_ones(80));
    EXPECT_TRUE(ctl.strike_bit());
    ctl.rearm();
    EXPECT_FALSE(ctl.triggered());
    EXPECT_FALSE(ctl.strike_bit());
    ctl.on_tdc_sample(sample_with_ones(80));
    EXPECT_TRUE(ctl.strike_bit());
}

TEST(BlindController, StartsAtFixedCycle) {
    AttackScheme scheme;
    scheme.strike_cycles = 1;
    scheme.num_strikes = 1;
    BlindController ctl(scheme, 10);
    for (std::size_t c = 0; c < 10; ++c) EXPECT_FALSE(ctl.strike_bit(c));
    EXPECT_TRUE(ctl.strike_bit(10));
    EXPECT_FALSE(ctl.strike_bit(11));
}

// ------------------------------------------------------------ scheme file

TEST(SchemeFile, WriteParseRoundTrip) {
    attack::AttackScheme s;
    s.attack_delay_cycles = 8532;
    s.strike_cycles = 1;
    s.gap_cycles = 2;
    s.num_strikes = 4500;
    const std::string text = write_scheme_file(s, "strike CONV2");
    const attack::AttackScheme parsed = parse_scheme_file(text);
    EXPECT_EQ(parsed.attack_delay_cycles, s.attack_delay_cycles);
    EXPECT_EQ(parsed.strike_cycles, s.strike_cycles);
    EXPECT_EQ(parsed.gap_cycles, s.gap_cycles);
    EXPECT_EQ(parsed.num_strikes, s.num_strikes);
}

TEST(SchemeFile, DefaultsAndComments) {
    const attack::AttackScheme s = parse_scheme_file(
        "# comment line\n"
        "attack_delay = 10\n"
        "num_attacks = 3\n");
    EXPECT_EQ(s.attack_delay_cycles, 10u);
    EXPECT_EQ(s.num_strikes, 3u);
    EXPECT_EQ(s.strike_cycles, 1u);
    EXPECT_EQ(s.gap_cycles, 0u);
}

TEST(SchemeFile, MalformedInputsRejected) {
    EXPECT_THROW(parse_scheme_file("attack_delay 10\nnum_attacks = 1\n"), FormatError);
    EXPECT_THROW(parse_scheme_file("attack_delay = ten\nnum_attacks = 1\n"), FormatError);
    EXPECT_THROW(parse_scheme_file("bogus_key = 1\n"), FormatError);
    EXPECT_THROW(parse_scheme_file("attack_delay = 1\n"), FormatError); // no num_attacks
    EXPECT_THROW(parse_scheme_file("num_attacks = 1\n"), FormatError);  // no delay
    EXPECT_THROW(parse_scheme_file("attack_delay = 1\nattack_delay = 2\n"
                                   "num_attacks = 1\n"),
                 FormatError); // duplicate
    EXPECT_THROW(parse_scheme_file("attack_delay = 1\nnum_attacks = 1\n"
                                   "attack_period = 0\n"),
                 FormatError); // zero-length strikes
}

/// Outcome of handing one (possibly hostile) scheme file to the device:
/// parse it, then load it into an AttackController's signal RAM.
enum class Loaded { Accepted, FormatRejected, ConfigRejected };

Loaded load_scheme_text(const std::string& text) {
    try {
        const AttackController controller(DetectorConfig{}, parse_scheme_file(text));
        (void)controller;
        return Loaded::Accepted;
    } catch (const FormatError&) {
        return Loaded::FormatRejected;
    } catch (const ConfigError&) {
        return Loaded::ConfigRejected;
    }
}

TEST(SchemeFile, HostileLengthsEndInTypedErrors) {
    // 10^11 one-cycle strikes: the signal RAM refuses it before compiling
    // a 12.5 GB bit vector.
    EXPECT_EQ(load_scheme_text("attack_delay = 0\nnum_attacks = 100000000000\n"),
              Loaded::ConfigRejected);
    // A delay of 2^64 - 1 plus one strike wraps the scheme length to 0.
    EXPECT_EQ(load_scheme_text("attack_delay = 18446744073709551615\nnum_attacks = 1\n"),
              Loaded::FormatRejected);

    AttackScheme wraps;
    wraps.attack_delay_cycles = 1;
    wraps.num_strikes = std::size_t{1} << 32;
    wraps.strike_cycles = std::size_t{1} << 32;
    EXPECT_THROW((void)wraps.total_cycles(), ConfigError);
    EXPECT_THROW(SignalRam().load(wraps), ConfigError);
}

// Every mutant of a valid scheme file either parses and loads into an
// AttackController or ends in FormatError/ConfigError. Anything else (a
// std::bad_alloc, a contract violation) fails the test. Mutants: every
// truncation, every line duplicated, hostile values on one or two lines,
// and seeded byte flips.
TEST(SchemeFile, SeededMutantsEndInTypedErrors) {
    AttackScheme base;
    base.attack_delay_cycles = 8532;
    base.strike_cycles = 1;
    base.gap_cycles = 2;
    base.num_strikes = 4500;
    const std::string text = write_scheme_file(base, "strike CONV2");

    std::vector<std::string> lines;
    for (std::size_t begin = 0; begin < text.size();) {
        const std::size_t end = text.find('\n', begin) + 1;
        lines.push_back(text.substr(begin, end - begin));
        begin = end;
    }
    const auto join = [](const std::vector<std::string>& parts) {
        std::string out;
        for (const std::string& part : parts) out += part;
        return out;
    };

    std::vector<std::string> mutants;
    for (std::size_t cut = 0; cut < text.size(); ++cut) mutants.push_back(text.substr(0, cut));
    for (std::size_t i = 0; i < lines.size(); ++i) {
        std::vector<std::string> dup = lines;
        dup.insert(dup.begin() + static_cast<std::ptrdiff_t>(i), lines[i]);
        mutants.push_back(join(dup));
    }
    // Each value line (every line but the comment) gets every hostile
    // value, alone and paired with a second line's.
    const std::vector<std::string> values = {"0",
                                             "100000000000",
                                             "9223372036854775808",
                                             "18446744073709551615",
                                             "18446744073709551616",
                                             "-1",
                                             ""};
    const auto with_value = [&](std::vector<std::string> parts, std::size_t line,
                                const std::string& value) {
        const std::string key = parts[line].substr(0, parts[line].find('=') + 1);
        parts[line] = key + " " + value + "\n";
        return parts;
    };
    for (std::size_t a = 1; a < lines.size(); ++a) {
        for (const std::string& va : values) {
            mutants.push_back(join(with_value(lines, a, va)));
            for (std::size_t b = a + 1; b < lines.size(); ++b) {
                for (const std::string& vb : values) {
                    mutants.push_back(join(with_value(with_value(lines, a, va), b, vb)));
                }
            }
        }
    }
    Rng rng(0x5C4E3E);
    for (int i = 0; i < 2000; ++i) {
        std::string mutant = text;
        const int flips = static_cast<int>(rng.uniform_int(1, 4));
        for (int f = 0; f < flips; ++f) {
            const auto at = static_cast<std::size_t>(
                rng.uniform_int(0, static_cast<std::int64_t>(mutant.size()) - 1));
            mutant[at] = static_cast<char>(mutant[at] ^ (1 << rng.uniform_int(0, 7)));
        }
        mutants.push_back(mutant);
    }

    std::size_t outcomes[3] = {0, 0, 0};
    for (const std::string& mutant : mutants) {
        try {
            ++outcomes[static_cast<int>(load_scheme_text(mutant))];
        } catch (const std::exception& e) {
            ADD_FAILURE() << "untyped error '" << e.what() << "' on:\n" << mutant;
        }
    }
    // The mutants reach every outcome: the check is not vacuous.
    EXPECT_GT(outcomes[static_cast<int>(Loaded::Accepted)], 0u);
    EXPECT_GT(outcomes[static_cast<int>(Loaded::FormatRejected)], 0u);
    EXPECT_GT(outcomes[static_cast<int>(Loaded::ConfigRejected)], 0u);
}

} // namespace
} // namespace deepstrike::attack
