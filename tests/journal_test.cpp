// Checkpoint journal + supporting util-layer I/O primitives.
//
// The failure-mode matrix here is the journal's contract: a torn tail
// recovers silently (truncate + rerun the lost points), everything else
// — corrupt checksums, foreign fingerprints, missing headers — fails
// loudly. A journal must never silently mix stale results into a run.
#include <gtest/gtest.h>

#include <sys/resource.h>

#include <cctype>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "sim/journal.hpp"
#include "util/atomic_file.hpp"
#include "util/checksum.hpp"
#include "util/error.hpp"
#include "util/json.hpp"
#include "util/metrics.hpp"
#include "util/rng.hpp"

namespace deepstrike::sim {
namespace {

std::string temp_path(const std::string& name) {
    return ::testing::TempDir() + "ds_journal_test_" + name;
}

std::string read_file(const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    std::ostringstream buffer;
    buffer << in.rdbuf();
    return buffer.str();
}

void write_file(const std::string& path, const std::string& contents) {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << contents;
}

// ---------------------------------------------------------------- checksum

TEST(Crc32, KnownVectors) {
    // The canonical CRC-32 (IEEE 802.3) check value.
    EXPECT_EQ(crc32("123456789"), 0xCBF43926u);
    EXPECT_EQ(crc32(""), 0x00000000u);
    EXPECT_EQ(crc32("a"), 0xE8B7BE43u);
}

/// The byte-at-a-time table CRC-32: the oracle the sliced form must equal.
std::uint32_t crc32_bytewise(const unsigned char* bytes, std::size_t size,
                             std::uint32_t seed = 0) {
    std::uint32_t table[256];
    for (std::uint32_t i = 0; i < 256; ++i) {
        std::uint32_t c = i;
        for (int bit = 0; bit < 8; ++bit) c = (c & 1u) ? (0xEDB88320u ^ (c >> 1)) : (c >> 1);
        table[i] = c;
    }
    std::uint32_t c = seed ^ 0xFFFFFFFFu;
    for (std::size_t i = 0; i < size; ++i) c = table[(c ^ bytes[i]) & 0xFFu] ^ (c >> 8);
    return c ^ 0xFFFFFFFFu;
}

std::vector<unsigned char> random_bytes(Rng& rng, std::size_t size) {
    std::vector<unsigned char> bytes(size);
    for (unsigned char& b : bytes) b = static_cast<unsigned char>(rng.next() >> 56);
    return bytes;
}

// Random lengths of 0 to 4 KB at every start alignment modulo 8, each also
// chained from a random split and a random seed, and one buffer the size of
// the LeNet-5 weight file (507 KB).
TEST(Crc32, SlicedFormEqualsBytewiseOracle) {
    const std::string check = "123456789";
    EXPECT_EQ(crc32_bytewise(reinterpret_cast<const unsigned char*>(check.data()), check.size()),
              0xCBF43926u);
    Rng rng(3141);
    const std::vector<unsigned char> pool = random_bytes(rng, 4096 + 8);
    for (std::size_t align = 0; align < 8; ++align) {
        for (int trial = 0; trial < 64; ++trial) {
            const auto size = static_cast<std::size_t>(rng.uniform_int(0, 4096));
            const unsigned char* p = pool.data() + align;
            const auto seed = static_cast<std::uint32_t>(rng.next());
            ASSERT_EQ(crc32(p, size), crc32_bytewise(p, size))
                << "align " << align << ", size " << size;
            ASSERT_EQ(crc32(p, size, seed), crc32_bytewise(p, size, seed))
                << "align " << align << ", size " << size << ", seeded";
            const auto split = static_cast<std::size_t>(
                rng.uniform_int(0, static_cast<std::int64_t>(size)));
            ASSERT_EQ(crc32(p + split, size - split, crc32(p, split)), crc32_bytewise(p, size))
                << "align " << align << ", size " << size << ", split " << split;
        }
    }
    const std::vector<unsigned char> weights = random_bytes(rng, 507 * 1024 + 5);
    EXPECT_EQ(crc32(weights.data(), weights.size()),
              crc32_bytewise(weights.data(), weights.size()));
}

TEST(Crc32, SeedChainsIncrementally) {
    const std::string text = "hello, journal";
    const std::uint32_t whole = crc32(text);
    const std::uint32_t part = crc32(text.substr(7), crc32(text.substr(0, 7)));
    EXPECT_EQ(whole, part);
}

TEST(Crc32, HexFormatting) {
    EXPECT_EQ(crc32_hex(0xCBF43926u), "cbf43926");
    EXPECT_EQ(crc32_hex(0x0000000Au), "0000000a");
}

TEST(Hex, FixedWidthRoundTripsAndRejectsAnythingElse) {
    EXPECT_EQ(to_hex(0xABCDEF0123456789ULL, 16), "abcdef0123456789");
    EXPECT_EQ(to_hex(0, 16), "0000000000000000");
    EXPECT_EQ(from_hex("abcdef0123456789", 16), 0xABCDEF0123456789ULL);
    EXPECT_EQ(from_hex("0000000a", 8), 0xAu);
    Rng rng(35);
    for (int i = 0; i < 1000; ++i) {
        const std::uint64_t v = rng.next();
        EXPECT_EQ(from_hex(to_hex(v, 16), 16), v);
        EXPECT_EQ(from_hex(to_hex(v >> 32, 8), 8), v >> 32);
    }
    for (const char* bad : {"", "0000000", "000000000", "0000000A", "+000000a", "0x00000a",
                            " 000000a", "000000a ", "0000000g", "0000000a0000000a0"}) {
        EXPECT_THROW(from_hex(bad, 8), FormatError) << bad;
    }
    EXPECT_THROW(from_hex("0000000a", 16), FormatError); // 8 digits where 16 are due
    EXPECT_THROW(from_hex("000000000000000a", 8), FormatError);
    EXPECT_THROW(from_hex(std::string("0000000\0", 8), 8), FormatError);
}

// -------------------------------------------------------------- atomic file

TEST(AtomicFile, WriteReplacesAtomically) {
    const std::string path = temp_path("atomic.txt");
    atomic_write_file(path, "first");
    EXPECT_EQ(read_file(path), "first");
    atomic_write_file(path, "second, longer contents");
    EXPECT_EQ(read_file(path), "second, longer contents");
    std::remove(path.c_str());
}

TEST(AtomicFile, WriteToBadDirectoryThrowsIoError) {
    EXPECT_THROW(atomic_write_file("/nonexistent-dir/x/y.txt", "data"), IoError);
}

TEST(AtomicFile, SyncedAppendAccumulates) {
    const std::string path = temp_path("append.txt");
    {
        SyncedAppendFile file(path, /*truncate=*/true);
        file.append("one\n");
        file.append("two\n");
        file.sync();
    }
    EXPECT_EQ(read_file(path), "one\ntwo\n");
    {
        SyncedAppendFile file(path, /*truncate=*/false);
        file.append("three\n");
        file.sync();
    }
    EXPECT_EQ(read_file(path), "one\ntwo\nthree\n");
    truncate_file(path, 4);
    EXPECT_EQ(read_file(path), "one\n");
    std::remove(path.c_str());
}

// ------------------------------------------------------------------ journal

Json payload_for(std::size_t i) {
    Json p = Json::object();
    p.set("kind", "point");
    p.set("value", static_cast<std::uint64_t>(i * 10));
    return p;
}

TEST(CheckpointJournal, RoundTripsRecords) {
    const std::string path = temp_path("roundtrip.jsonl");
    {
        auto journal = CheckpointJournal::create(path, 0xABCDEF0123456789ULL, "unit");
        for (std::size_t i = 0; i < 5; ++i) journal->append(i, payload_for(i));
        journal->flush();
        EXPECT_EQ(journal->appended(), 5u);
    }
    const JournalRecovery rec =
        CheckpointJournal::recover(path, 0xABCDEF0123456789ULL, "unit");
    ASSERT_EQ(rec.records.size(), 5u);
    EXPECT_FALSE(rec.dropped_partial_tail);
    for (std::size_t i = 0; i < 5; ++i) {
        EXPECT_EQ(rec.records[i].index, i);
        EXPECT_EQ(rec.records[i].payload.at("value").as_uint(), i * 10);
        EXPECT_EQ(rec.records[i].payload.at("kind").as_string(), "point");
    }
    std::remove(path.c_str());
}

TEST(CheckpointJournal, EveryLineIsChecksummed) {
    const std::string path = temp_path("format.jsonl");
    {
        auto journal = CheckpointJournal::create(path, 7, "unit");
        journal->append(0, payload_for(0));
        journal->flush();
    }
    std::istringstream lines(read_file(path));
    std::string line;
    std::size_t count = 0;
    while (std::getline(lines, line)) {
        ++count;
        ASSERT_GE(line.size(), 10u);
        ASSERT_EQ(line[8], ' ');
        EXPECT_EQ(line.substr(0, 8), crc32_hex(crc32(line.substr(9))));
    }
    EXPECT_EQ(count, 2u); // header + 1 record
    std::remove(path.c_str());
}

TEST(CheckpointJournal, TornTailIsDroppedAndTruncated) {
    const std::string path = temp_path("torn.jsonl");
    {
        auto journal = CheckpointJournal::create(path, 42, "unit");
        journal->append(0, payload_for(0));
        journal->append(1, payload_for(1));
        journal->flush();
    }
    const std::string intact = read_file(path);
    // Simulate a crash mid-append: drop the final newline plus some bytes.
    write_file(path, intact.substr(0, intact.size() - 7));

    const JournalRecovery rec = CheckpointJournal::recover(path, 42, "unit");
    EXPECT_TRUE(rec.dropped_partial_tail);
    ASSERT_EQ(rec.records.size(), 1u);
    EXPECT_EQ(rec.records[0].index, 0u);

    // resume() truncates the torn bytes and keeps appending cleanly.
    {
        auto journal = CheckpointJournal::resume(path, 42, "unit");
        EXPECT_TRUE(journal->dropped_partial_tail());
        ASSERT_EQ(journal->recovered().size(), 1u);
        journal->append(1, payload_for(1));
        journal->flush();
    }
    const JournalRecovery healed = CheckpointJournal::recover(path, 42, "unit");
    EXPECT_FALSE(healed.dropped_partial_tail);
    ASSERT_EQ(healed.records.size(), 2u);
    EXPECT_EQ(healed.records[1].index, 1u);
    std::remove(path.c_str());
}

TEST(CheckpointJournal, CorruptChecksumBeforeTailFailsLoudly) {
    const std::string path = temp_path("corrupt.jsonl");
    {
        auto journal = CheckpointJournal::create(path, 42, "unit");
        journal->append(0, payload_for(0));
        journal->append(1, payload_for(1));
        journal->flush();
    }
    std::string bytes = read_file(path);
    // Flip one payload byte in the *middle* record (the first append):
    // a newline-terminated record failing its checksum is corruption,
    // never a recoverable torn write.
    const std::size_t second_line = bytes.find('\n') + 1;
    bytes[second_line + 20] ^= 0x01;
    write_file(path, bytes);

    EXPECT_THROW(CheckpointJournal::recover(path, 42, "unit"), FormatError);
    EXPECT_THROW(CheckpointJournal::resume(path, 42, "unit"), FormatError);
    std::remove(path.c_str());
}

TEST(CheckpointJournal, FingerprintMismatchIsConfigError) {
    const std::string path = temp_path("fingerprint.jsonl");
    {
        auto journal = CheckpointJournal::create(path, 1111, "unit");
        journal->append(0, payload_for(0));
        journal->flush();
    }
    EXPECT_THROW(CheckpointJournal::recover(path, 2222, "unit"), ConfigError);
    EXPECT_THROW(CheckpointJournal::resume(path, 2222, "unit"), ConfigError);
    // The matching fingerprint still resumes.
    EXPECT_NO_THROW(CheckpointJournal::recover(path, 1111, "unit"));
    std::remove(path.c_str());
}

TEST(CheckpointJournal, SweepNameMismatchIsConfigError) {
    const std::string path = temp_path("sweep.jsonl");
    { auto journal = CheckpointJournal::create(path, 5, "campaign"); }
    EXPECT_THROW(CheckpointJournal::recover(path, 5, "characterization"),
                 ConfigError);
    std::remove(path.c_str());
}

TEST(CheckpointJournal, MissingOrBogusHeaderIsFormatError) {
    const std::string path = temp_path("noheader.jsonl");
    write_file(path, "");
    EXPECT_THROW(CheckpointJournal::recover(path, 5, "unit"), FormatError);

    const std::string body = "{\"kind\":\"point\",\"index\":0}";
    write_file(path, crc32_hex(crc32(body)) + " " + body + "\n");
    EXPECT_THROW(CheckpointJournal::recover(path, 5, "unit"), FormatError);

    write_file(path, "not a journal at all\n");
    EXPECT_THROW(CheckpointJournal::recover(path, 5, "unit"), FormatError);
    std::remove(path.c_str());
}

TEST(CheckpointJournal, MissingFileIsIoError) {
    EXPECT_THROW(CheckpointJournal::recover(temp_path("absent.jsonl"), 5, "unit"),
                 IoError);
}

TEST(CheckpointJournal, FingerprintHexIsFixedWidth) {
    EXPECT_EQ(CheckpointJournal::fingerprint_hex(0), "0000000000000000");
    EXPECT_EQ(CheckpointJournal::fingerprint_hex(0xABCDEF0123456789ULL),
              "abcdef0123456789");
}

TEST(CheckpointJournal, ConcurrentAppendsAllSurvive) {
    const std::string path = temp_path("concurrent.jsonl");
    constexpr std::size_t kThreads = 8;
    constexpr std::size_t kPerThread = 50;
    metrics::reset();
    metrics::set_enabled(true);
    {
        auto journal = CheckpointJournal::create(path, 99, "unit");
        std::vector<std::thread> workers;
        for (std::size_t t = 0; t < kThreads; ++t) {
            workers.emplace_back([&, t] {
                for (std::size_t i = 0; i < kPerThread; ++i) {
                    journal->append(t * kPerThread + i,
                                    payload_for(t * kPerThread + i));
                }
            });
        }
        for (std::thread& w : workers) w.join();
        journal->flush();
        EXPECT_EQ(journal->appended(), kThreads * kPerThread);
    }
    // One fsync per kFsyncBatchRecords appended records, whichever thread
    // appends them: a logical count.
    const std::size_t n = kThreads * kPerThread;
    const std::size_t batch = CheckpointJournal::kFsyncBatchRecords;
    EXPECT_EQ(metrics::counter("journal.fsync_batches").total(), (n + batch - 1) / batch);
    EXPECT_EQ(metrics::counter("journal.records").total(), n);
    metrics::set_enabled(false);
    metrics::reset();
    const JournalRecovery rec = CheckpointJournal::recover(path, 99, "unit");
    ASSERT_EQ(rec.records.size(), kThreads * kPerThread);
    std::vector<bool> seen(kThreads * kPerThread, false);
    for (const JournalRecord& r : rec.records) {
        ASSERT_LT(r.index, seen.size());
        EXPECT_FALSE(seen[r.index]) << "duplicate record " << r.index;
        seen[r.index] = true;
        EXPECT_EQ(r.payload.at("value").as_uint(), r.index * 10);
    }
    std::remove(path.c_str());
}

/// Death-test child: caps its own file size just past the journal's
/// header, so the first record's write() stops short and its retry fails
/// with EFBIG. Exits 0 when that append and every later call threw IoError.
[[noreturn]] void fail_a_write_then_exit(const std::string& path) {
    auto journal = CheckpointJournal::create(path, 7, "unit");
    std::signal(SIGXFSZ, SIG_IGN);
    rlimit limit{};
    getrlimit(RLIMIT_FSIZE, &limit);
    rlimit capped = limit;
    capped.rlim_cur = static_cast<rlim_t>(read_file(path).size() + 10);
    if (setrlimit(RLIMIT_FSIZE, &capped) != 0) std::_Exit(2);
    int io_errors = 0;
    const auto count_io_error = [&](const auto& call) {
        try {
            call();
        } catch (const IoError&) {
            ++io_errors;
        }
    };
    count_io_error([&] { journal->append(0, payload_for(0)); });
    // Room again: the journal still refuses, since the file now ends in a
    // torn line.
    setrlimit(RLIMIT_FSIZE, &limit);
    count_io_error([&] { journal->append(1, payload_for(1)); });
    count_io_error([&] { journal->flush(); });
    count_io_error([&] { journal->append(2, payload_for(2)); });
    std::_Exit(io_errors == 4 ? 0 : 1);
}

TEST(CheckpointJournal, FailedWriteThrowsFromThatCallAndEveryLaterOne) {
    const std::string path = temp_path("efbig.jsonl");
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    EXPECT_EXIT(fail_a_write_then_exit(path), ::testing::ExitedWithCode(0), "");
    // The child left a header and a torn tail, which recovery drops.
    const JournalRecovery rec = CheckpointJournal::recover(path, 7, "unit");
    EXPECT_TRUE(rec.records.empty());
    EXPECT_TRUE(rec.dropped_partial_tail);
    std::remove(path.c_str());
}

TEST(CheckpointJournal, ResumeAfterEveryPrefixLengthIsConsistent) {
    // Property sweep over crash positions: whatever byte the file is cut
    // at, recovery either returns a clean prefix of records or (before
    // the header completes) refuses — never garbage.
    const std::string path = temp_path("prefix.jsonl");
    {
        auto journal = CheckpointJournal::create(path, 3, "unit");
        for (std::size_t i = 0; i < 3; ++i) journal->append(i, payload_for(i));
        journal->flush();
    }
    const std::string intact = read_file(path);
    const std::size_t header_len = intact.find('\n') + 1;
    for (std::size_t cut = 0; cut <= intact.size(); ++cut) {
        write_file(path, intact.substr(0, cut));
        if (cut < header_len) {
            EXPECT_THROW(CheckpointJournal::recover(path, 3, "unit"), FormatError)
                << "cut=" << cut;
            continue;
        }
        const JournalRecovery rec = CheckpointJournal::recover(path, 3, "unit");
        EXPECT_EQ(rec.dropped_partial_tail, cut != intact.size() &&
                                                intact[cut > 0 ? cut - 1 : 0] != '\n')
            << "cut=" << cut;
        for (std::size_t i = 0; i < rec.records.size(); ++i) {
            EXPECT_EQ(rec.records[i].index, i);
        }
    }
    std::remove(path.c_str());
}

// Whole journal files, mutated many seeded ways: byte flips, truncations,
// duplicated keys, checksum-field and header edits, non-JSON numbers and
// huge lengths (checksums recomputed wherever the edit is past the
// framing). Every mutant must end in a typed FormatError or ConfigError,
// or recover a prefix of the honest records byte for byte (a torn tail
// or a clean cut). None may crash, hang or read as another journal.
TEST(CheckpointJournal, SeededFileMutantsEndInTypedErrorsOrAValidPrefix) {
    const std::string path = temp_path("mutants.jsonl");
    const std::uint64_t fingerprint = 0x5EEDULL;
    {
        auto journal = CheckpointJournal::create(path, fingerprint, "unit");
        for (std::size_t i = 0; i < 4; ++i) journal->append(i, payload_for(i));
        journal->flush();
    }
    const std::string honest = read_file(path);
    const JournalRecovery reference = CheckpointJournal::recover(path, fingerprint, "unit");
    ASSERT_EQ(reference.records.size(), 4u);
    // Line bodies (the JSON after "<crc> "), header first.
    std::vector<std::string> bodies;
    {
        std::istringstream in(honest);
        for (std::string line; std::getline(in, line);) bodies.push_back(line.substr(9));
    }
    ASSERT_EQ(bodies.size(), 5u);

    const auto frame = [](const std::string& body) {
        return crc32_hex(crc32(body)) + " " + body + "\n";
    };
    // The honest file with line k replaced by `line` (newline included).
    const auto with_line = [&](std::size_t k, const std::string& line) {
        std::string out;
        for (std::size_t j = 0; j < bodies.size(); ++j) {
            out += j == k ? line : frame(bodies[j]);
        }
        return out;
    };
    // Body k with its first `from` replaced by `to`, reframed.
    const auto edited = [&](std::size_t k, const std::string& from, const std::string& to) {
        std::string body = bodies[k];
        const std::size_t at = body.find(from);
        EXPECT_NE(at, std::string::npos) << from;
        if (at != std::string::npos) body.replace(at, from.size(), to);
        return with_line(k, frame(body));
    };

    std::size_t typed = 0;
    std::size_t prefixes = 0;
    const auto check = [&](const std::string& what, const std::string& bytes) {
        if (bytes == honest) return;
        write_file(path, bytes);
        try {
            const JournalRecovery rec = CheckpointJournal::recover(path, fingerprint, "unit");
            ASSERT_LE(rec.records.size(), reference.records.size()) << what;
            for (std::size_t i = 0; i < rec.records.size(); ++i) {
                EXPECT_EQ(rec.records[i].index, reference.records[i].index) << what;
                EXPECT_EQ(rec.records[i].payload.dump(), reference.records[i].payload.dump())
                    << what;
            }
            ASSERT_LE(rec.valid_bytes, bytes.size()) << what;
            EXPECT_TRUE(bytes.compare(0, rec.valid_bytes, honest, 0, rec.valid_bytes) == 0)
                << what << ": the recovered prefix is not the honest file's";
            // Whatever follows the valid prefix is one torn line.
            EXPECT_EQ(rec.dropped_partial_tail, rec.valid_bytes != bytes.size()) << what;
            EXPECT_EQ(bytes.find('\n', rec.valid_bytes), std::string::npos) << what;
            ++prefixes;
        } catch (const FormatError&) {
            ++typed;
        } catch (const ConfigError&) {
            ++typed;
        } catch (const std::exception& e) {
            ADD_FAILURE() << what << ": untyped " << e.what();
        }
    };

    Rng rng(2024);
    const auto pick = [&](std::size_t n) {
        return static_cast<std::size_t>(rng.uniform_int(0, static_cast<std::int64_t>(n) - 1));
    };
    for (int m = 0; m < 300; ++m) {
        std::string bytes = honest;
        const std::size_t at = pick(bytes.size());
        bytes[at] = static_cast<char>(bytes[at] ^ static_cast<char>(1 + pick(255)));
        check("byte flip at " + std::to_string(at), bytes);
    }
    for (int m = 0; m < 100; ++m) {
        const std::size_t cut = pick(honest.size());
        check("truncation at " + std::to_string(cut), honest.substr(0, cut));
    }
    for (std::size_t k = 0; k < bodies.size(); ++k) {
        const std::string line = "line " + std::to_string(k);
        const Json parsed = Json::parse(bodies[k]);
        for (const std::string& key : parsed.keys()) {
            const std::string body = bodies[k];
            const std::string member = "\"" + key + "\":" + parsed.at(key).dump();
            check(line + ": duplicated key " + key,
                  with_line(k, frame(body.substr(0, body.size() - 1) + "," + member + "}")));
            check(line + ": duplicated key " + key + " first",
                  with_line(k, frame("{" + member + "," + body.substr(1))));
        }
        const std::string crc = crc32_hex(crc32(bodies[k]));
        std::string upper = crc;
        for (char& c : upper) c = static_cast<char>(std::toupper(static_cast<unsigned char>(c)));
        std::string digit = crc;
        const std::size_t at = pick(8);
        digit[at] = digit[at] == '0' ? '1' : '0';
        for (const std::string& field :
             {upper + " ", digit + " ", crc.substr(1) + " ", crc + "0 ", crc + "\t",
              crc + "  ", std::string(), "0x" + crc.substr(2) + " ", crc.substr(0, 7) + "g "}) {
            check(line + ": checksum field '" + field + "'", with_line(k, field + bodies[k] + "\n"));
        }
        check(line + ": a blank line before it", with_line(k, "\n" + frame(bodies[k])));
        check(line + ": trailing garbage", with_line(k, frame(bodies[k] + "x")));
        check(line + ": an array body", with_line(k, frame("[" + bodies[k] + "]")));
    }
    // Header edits past the framing.
    check("magic", edited(0, "deepstrike-journal", "deepstrike-journaI"));
    check("version 2", edited(0, "\"version\":1", "\"version\":2"));
    check("version 01", edited(0, "\"version\":1", "\"version\":01"));
    check("version +1", edited(0, "\"version\":1", "\"version\":+1"));
    check("version 1.0", edited(0, "\"version\":1", "\"version\":1.0"));
    check("version as a string", edited(0, "\"version\":1", "\"version\":\"1\""));
    check("another sweep", edited(0, "\"sweep\":\"unit\"", "\"sweep\":\"unix\""));
    check("no sweep", edited(0, "\"sweep\":\"unit\",", ""));
    check("another fingerprint", edited(0, "5eed", "5eec"));
    check("an upper-case fingerprint", edited(0, "5eed", "5EED"));
    check("no fingerprint", edited(0, "\"fingerprint\"", "\"fingerprints\""));
    check("a second header", with_line(1, frame(bodies[0])));
    // Record indices that are not JSON or not an index.
    for (const char* index : {"007", "+1", "1e999", "-1", "1.0", "\"1\"", "1e2", ".5"}) {
        check(std::string("index ") + index,
              edited(2, "\"index\":1", std::string("\"index\":") + index));
    }
    check("no index", edited(2, "\"index\":1", "\"indexes\":1"));
    // Huge lengths.
    check("a 100000-digit index",
          edited(2, "\"index\":1", "\"index\":1" + std::string(100000, '0')));
    check("a 100000-deep array", with_line(3, frame("{\"index\":2,\"v\":" +
                                                     std::string(100000, '[') +
                                                     std::string(100000, ']') + "}")));
    {
        std::string keys = "{";
        for (int i = 0; i < 100000; ++i) keys += "\"k" + std::to_string(i) + "\":0,";
        keys.back() = '}';
        check("100000 keys and no index", with_line(4, frame(keys)));
    }
    check("a 1 MB line with a bad checksum",
          with_line(2, "00000000 \"" + std::string(1 << 20, 'x') + "\"\n"));
    check("a 1 MB torn tail", honest + "00000000 {\"index\":4,\"v\":\"" +
                                  std::string(1 << 20, 'x'));

    EXPECT_GT(typed, 0u);
    EXPECT_GT(prefixes, 0u);
    std::remove(path.c_str());
}

} // namespace
} // namespace deepstrike::sim
