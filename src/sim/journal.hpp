// Crash-safe checkpoint journal for sweep execution.
//
// Campaigns are the longest-running workloads in this repo; before this
// layer existed a crash, OOM kill or poisoned point discarded every
// completed point. The journal makes completed work durable: as each
// sweep point finishes, its result is appended as one self-delimiting,
// checksummed JSONL record, and `deepstrike campaign --resume` replays
// the journal to skip completed points — producing a final report
// byte-identical to an uninterrupted run (the records carry IEEE-754
// bit patterns for floating-point results, so restore is bit-exact).
//
// On-disk format — one record per line, every line identical in shape:
//
//   <crc32 hex, 8 chars> <space> <single-line JSON object> <newline>
//
// The first record is a header carrying a magic string, the format
// version, the sweep name, and a 64-bit fingerprint of everything that
// determines the sweep's results (config, planned schemes, seeds). A
// resumed run recomputes its own fingerprint and refuses a journal
// whose fingerprint differs — stale results are never silently mixed
// into a new configuration.
//
// Durability model: append() writes its record's whole line with one
// write() on the calling thread, under the journal's mutex, and fsyncs
// once kFsyncBatchRecords records are unsynced; flush() fsyncs the rest.
// A crash can lose at most the last un-synced batch (those points simply
// rerun on resume) and can tear at most the final line (dropped on
// recovery, detected by the missing newline / failing checksum at EOF). A
// failing checksum anywhere *before* the tail is corruption, not a torn
// write, and recovery fails loudly instead of guessing.
#pragma once

#include <cstdint>
#include <exception>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "util/atomic_file.hpp"
#include "util/json.hpp"

namespace deepstrike::sim {

/// One recovered journal record: the sweep-point index it belongs to
/// plus the full payload object as appended.
struct JournalRecord {
    std::size_t index = 0;
    Json payload;
};

/// Result of validating an existing journal file.
struct JournalRecovery {
    std::vector<JournalRecord> records;
    /// A torn final line was found and dropped (crash mid-append).
    bool dropped_partial_tail = false;
    /// Byte length of the valid prefix (the file is truncated to this
    /// before further appends).
    std::uint64_t valid_bytes = 0;
};

class CheckpointJournal {
public:
    /// append() fsyncs once this many records are unsynced (flush() and
    /// the destructor fsync the rest).
    static constexpr std::size_t kFsyncBatchRecords = 8;

    /// Creates (or truncates) `path` and writes the header record.
    static std::unique_ptr<CheckpointJournal> create(const std::string& path,
                                                     std::uint64_t fingerprint,
                                                     const std::string& sweep);

    /// Validates an existing journal and reopens it for appending.
    /// A torn trailing line is truncated away; recovered records are
    /// available via recovered(). Throws IoError when the file cannot
    /// be read, FormatError on corruption (bad header, bad checksum,
    /// malformed record), ConfigError when the fingerprint or sweep
    /// name does not match.
    static std::unique_ptr<CheckpointJournal> resume(const std::string& path,
                                                     std::uint64_t fingerprint,
                                                     const std::string& sweep);

    /// Validation-only form of resume() (file untouched). Same failure
    /// contract.
    static JournalRecovery recover(const std::string& path,
                                   std::uint64_t fingerprint,
                                   const std::string& sweep);

    ~CheckpointJournal(); // flushes; an error there is dropped

    CheckpointJournal(const CheckpointJournal&) = delete;
    CheckpointJournal& operator=(const CheckpointJournal&) = delete;

    /// Appends one record: writes its line, then fsyncs if that makes
    /// kFsyncBatchRecords unsynced records. Thread-safe. Throws IoError
    /// when the write or fsync fails, and from every later append() and
    /// flush(), since the file may now end in a torn line.
    void append(std::size_t index, Json payload);

    /// Fsyncs every record appended so far. Throws IoError as append().
    void flush();

    const std::vector<JournalRecord>& recovered() const { return recovered_.records; }
    bool dropped_partial_tail() const { return recovered_.dropped_partial_tail; }
    const std::string& path() const { return path_; }
    std::uint64_t fingerprint() const { return fingerprint_; }

    /// Records appended through this handle (excludes recovered ones).
    std::size_t appended() const;

    /// Formats the 64-bit fingerprint field (16 lowercase hex digits).
    static std::string fingerprint_hex(std::uint64_t fingerprint);

private:
    CheckpointJournal(const std::string& path, std::uint64_t fingerprint,
                      const std::string& sweep, bool fresh, JournalRecovery recovery);

    /// Writes `line` (a flush passes none) and fsyncs when due. Caller
    /// holds mutex_.
    void persist(std::string_view line);
    static std::string format_record(const Json& payload);

    std::string path_;
    std::uint64_t fingerprint_ = 0;
    JournalRecovery recovered_;
    SyncedAppendFile file_;

    mutable std::mutex mutex_;
    std::size_t appended_ = 0; // records written through this handle
    std::size_t synced_ = 0;   // of those, records fsynced
    std::exception_ptr error_; // the first failed write or fsync
};

} // namespace deepstrike::sim
