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
// Durability model: append() is called from worker threads at point
// completion and only enqueues the serialized line; a dedicated writer
// thread drains the queue, writes whole lines, and fsyncs in batches —
// the sweep hot path never waits on the disk. A crash can lose at most
// the last un-synced batch (those points simply rerun on resume) and
// can tear at most the final line (dropped on recovery, detected by
// the missing newline / failing checksum at EOF). A failing checksum
// anywhere *before* the tail is corruption, not a torn write, and
// recovery fails loudly instead of guessing.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
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
    /// The writer fsyncs after this many appended records (and at
    /// flush/close).
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

    /// Validation-only form of resume() (no writer started, file
    /// untouched). Same failure contract.
    static JournalRecovery recover(const std::string& path,
                                   std::uint64_t fingerprint,
                                   const std::string& sweep);

    ~CheckpointJournal(); // flushes and joins the writer thread

    CheckpointJournal(const CheckpointJournal&) = delete;
    CheckpointJournal& operator=(const CheckpointJournal&) = delete;

    /// Appends one record. Thread-safe; returns after enqueueing (the
    /// writer thread persists asynchronously). Throws IoError if a
    /// previous write already failed.
    void append(std::size_t index, Json payload);

    /// Blocks until every record appended so far is written and fsynced.
    void flush();

    const std::vector<JournalRecord>& recovered() const { return recovered_.records; }
    bool dropped_partial_tail() const { return recovered_.dropped_partial_tail; }
    const std::string& path() const { return path_; }
    std::uint64_t fingerprint() const { return fingerprint_; }

    /// Records appended through this handle (excludes recovered ones).
    std::size_t appended() const;

    /// Formats / parses the 64-bit fingerprint field ("%016x" hex).
    static std::string fingerprint_hex(std::uint64_t fingerprint);

private:
    CheckpointJournal(const std::string& path, std::uint64_t fingerprint,
                      const std::string& sweep, bool fresh, JournalRecovery recovery);

    void writer_loop();
    void enqueue_line(std::string line);
    static std::string format_record(const Json& payload);

    std::string path_;
    std::uint64_t fingerprint_ = 0;
    JournalRecovery recovered_;
    SyncedAppendFile file_;

    std::mutex mutex_;
    std::condition_variable wake_writer_;
    std::condition_variable drained_;
    std::vector<std::string> pending_;
    std::size_t appended_ = 0;        // records handed to enqueue_line
    std::size_t persisted_ = 0;       // records written + fsynced
    std::size_t sync_goal_ = 0;       // flush() target: fsync through here
    bool stop_ = false;
    std::exception_ptr write_error_;
    std::thread writer_;
};

} // namespace deepstrike::sim
