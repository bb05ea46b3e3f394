#include "sim/journal.hpp"

#include <fstream>
#include <sstream>
#include <utility>

#include "util/checksum.hpp"
#include "util/error.hpp"
#include "util/metrics.hpp"

namespace deepstrike::sim {

namespace {

constexpr const char* kMagic = "deepstrike-journal";
constexpr std::int64_t kVersion = 1;

// Record framing: fixed-width crc32 hex, one space, compact JSON, newline.
constexpr std::size_t kCrcChars = 8;

void count_records(std::size_t n) {
    if (metrics::enabled()) {
        metrics::counter("journal.records", "records",
                         "checkpoint records appended to journals")
            .add(n);
    }
}

void count_fsync_batch() {
    if (metrics::enabled()) {
        metrics::counter("journal.fsync_batches", "batches",
                         "journal write batches flushed to stable storage")
            .add();
    }
}

void count_recovered(std::size_t n) {
    if (metrics::enabled()) {
        metrics::counter("journal.records_recovered", "records",
                         "checkpoint records restored from journals on resume")
            .add(n);
    }
}

} // namespace

std::string CheckpointJournal::fingerprint_hex(std::uint64_t fingerprint) {
    return to_hex(fingerprint, 16);
}

std::string CheckpointJournal::format_record(const Json& payload) {
    const std::string body = payload.dump();
    return crc32_hex(crc32(body)) + " " + body + "\n";
}

JournalRecovery CheckpointJournal::recover(const std::string& path,
                                           std::uint64_t fingerprint,
                                           const std::string& sweep) {
    std::ifstream in(path, std::ios::binary);
    if (!in) throw IoError("cannot read journal " + path);
    std::ostringstream buffer;
    buffer << in.rdbuf();
    const std::string text = buffer.str();

    JournalRecovery recovery;
    bool saw_header = false;
    std::size_t pos = 0;
    while (pos < text.size()) {
        const std::size_t nl = text.find('\n', pos);
        if (nl == std::string::npos) {
            // No terminating newline: append() writes each record's
            // newline as its final byte, so an unterminated tail is a
            // torn write from a crash mid-append — recoverable.
            recovery.dropped_partial_tail = true;
            break;
        }
        const std::string line = text.substr(pos, nl - pos);
        const std::size_t record_number = recovery.records.size() + 1;
        if (line.size() < kCrcChars + 2 || line[kCrcChars] != ' ') {
            throw FormatError("journal " + path + ": record " +
                              std::to_string(record_number) + " is malformed");
        }
        const std::string body = line.substr(kCrcChars + 1);
        std::uint64_t expected = 0;
        try {
            expected = from_hex(std::string_view(line).substr(0, kCrcChars), kCrcChars);
        } catch (const FormatError&) {
            throw FormatError("journal " + path + ": record " +
                              std::to_string(record_number) + " has a malformed checksum");
        }
        if (crc32(body) != expected) {
            // A newline-terminated record was fully written, so a bad
            // checksum here is corruption, not a torn tail. Refusing is
            // the only option that never mixes stale data into results.
            throw FormatError("journal " + path + ": record " +
                              std::to_string(record_number) +
                              " failed its checksum (corrupt journal)");
        }
        Json payload;
        try {
            payload = Json::parse(body);
        } catch (const FormatError& e) {
            throw FormatError("journal " + path + ": record " +
                              std::to_string(record_number) + ": " + e.what());
        }

        if (!saw_header) {
            const Json* magic = payload.find("magic");
            const Json* version = payload.find("version");
            if (magic == nullptr || !magic->is_string() ||
                magic->as_string() != kMagic || version == nullptr) {
                throw FormatError("journal " + path + ": missing header record");
            }
            if (version->as_int() != kVersion) {
                throw FormatError("journal " + path + ": unsupported version " +
                                  std::to_string(version->as_int()));
            }
            if (payload.at("sweep").as_string() != sweep) {
                throw ConfigError("journal " + path + " belongs to sweep '" +
                                  payload.at("sweep").as_string() +
                                  "', expected '" + sweep + "'");
            }
            if (payload.at("fingerprint").as_string() !=
                fingerprint_hex(fingerprint)) {
                throw ConfigError(
                    "journal " + path + " fingerprint " +
                    payload.at("fingerprint").as_string() +
                    " does not match this configuration (" +
                    fingerprint_hex(fingerprint) +
                    "); the sweep setup changed — delete the journal or rerun "
                    "with the original configuration");
            }
            saw_header = true;
        } else {
            JournalRecord record;
            record.index = payload.at("index").as_uint();
            record.payload = std::move(payload);
            recovery.records.push_back(std::move(record));
        }
        pos = nl + 1;
        recovery.valid_bytes = pos;
    }
    if (!saw_header) {
        throw FormatError("journal " + path + ": missing header record");
    }
    count_recovered(recovery.records.size());
    return recovery;
}

CheckpointJournal::CheckpointJournal(const std::string& path,
                                     std::uint64_t fingerprint,
                                     const std::string& sweep, bool fresh,
                                     JournalRecovery recovery)
    : path_(path),
      fingerprint_(fingerprint),
      recovered_(std::move(recovery)),
      file_(path, /*truncate=*/fresh) {
    if (fresh) {
        Json header = Json::object();
        header.set("magic", kMagic);
        header.set("version", kVersion);
        header.set("sweep", sweep);
        header.set("fingerprint", fingerprint_hex(fingerprint));
        // The header is written synchronously: a journal file either
        // starts with a valid header or recovery rejects it outright.
        file_.append(format_record(header));
        file_.sync();
    }
}

std::unique_ptr<CheckpointJournal> CheckpointJournal::create(
    const std::string& path, std::uint64_t fingerprint, const std::string& sweep) {
    return std::unique_ptr<CheckpointJournal>(new CheckpointJournal(
        path, fingerprint, sweep, /*fresh=*/true, JournalRecovery{}));
}

std::unique_ptr<CheckpointJournal> CheckpointJournal::resume(
    const std::string& path, std::uint64_t fingerprint, const std::string& sweep) {
    JournalRecovery recovery = recover(path, fingerprint, sweep);
    // Drop any torn tail before appending so the file returns to the
    // uniform every-line-valid shape.
    truncate_file(path, recovery.valid_bytes);
    return std::unique_ptr<CheckpointJournal>(
        new CheckpointJournal(path, fingerprint, sweep, /*fresh=*/false, std::move(recovery)));
}

CheckpointJournal::~CheckpointJournal() {
    try {
        flush();
    } catch (...) {
        // A destructor must not throw. A caller that must know the tail
        // is durable calls flush() first, as every sweep does.
    }
}

void CheckpointJournal::append(std::size_t index, Json payload) {
    payload.set("index", static_cast<std::uint64_t>(index));
    const std::string line = format_record(payload);
    std::lock_guard<std::mutex> lock(mutex_);
    persist(line);
}

void CheckpointJournal::flush() {
    std::lock_guard<std::mutex> lock(mutex_);
    persist({});
}

std::size_t CheckpointJournal::appended() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return appended_;
}

void CheckpointJournal::persist(std::string_view line) {
    // After a failed write or fsync the file may end in a torn line, so
    // nothing more is written through this handle.
    if (error_) std::rethrow_exception(error_);
    try {
        if (!line.empty()) {
            file_.append(line);
            ++appended_;
            count_records(1);
        }
        const std::size_t unsynced = appended_ - synced_;
        if (unsynced >= kFsyncBatchRecords || (line.empty() && unsynced > 0)) {
            file_.sync();
            synced_ = appended_;
            count_fsync_batch();
        }
    } catch (...) {
        error_ = std::current_exception();
        throw;
    }
}

} // namespace deepstrike::sim
