#include "sim/journal.hpp"

#include <cstdio>
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
    char buf[17];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(fingerprint));
    return buf;
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
            // No terminating newline: the writer appends each record's
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
        const std::string crc_text = line.substr(0, kCrcChars);
        const std::string body = line.substr(kCrcChars + 1);
        std::uint32_t expected = 0;
        for (char c : crc_text) {
            expected <<= 4;
            if (c >= '0' && c <= '9') expected |= static_cast<std::uint32_t>(c - '0');
            else if (c >= 'a' && c <= 'f') expected |= static_cast<std::uint32_t>(c - 'a' + 10);
            else
                throw FormatError("journal " + path + ": record " +
                                  std::to_string(record_number) +
                                  " has a malformed checksum");
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
    writer_ = std::thread([this] { writer_loop(); });
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
    {
        std::lock_guard<std::mutex> lock(mutex_);
        stop_ = true;
    }
    wake_writer_.notify_all();
    if (writer_.joinable()) writer_.join();
}

void CheckpointJournal::append(std::size_t index, Json payload) {
    payload.set("index", static_cast<std::uint64_t>(index));
    enqueue_line(format_record(payload));
    count_records(1);
}

void CheckpointJournal::enqueue_line(std::string line) {
    {
        std::lock_guard<std::mutex> lock(mutex_);
        if (write_error_) std::rethrow_exception(write_error_);
        if (stop_) throw IoError("journal " + path_ + " is closed");
        pending_.push_back(std::move(line));
        ++appended_;
    }
    wake_writer_.notify_one();
}

void CheckpointJournal::flush() {
    std::unique_lock<std::mutex> lock(mutex_);
    if (write_error_) std::rethrow_exception(write_error_);
    const std::size_t goal = appended_;
    if (goal > sync_goal_) sync_goal_ = goal;
    wake_writer_.notify_one();
    drained_.wait(lock, [&] { return persisted_ >= goal || write_error_; });
    if (write_error_) std::rethrow_exception(write_error_);
}

std::size_t CheckpointJournal::appended() const {
    std::lock_guard<std::mutex> lock(const_cast<std::mutex&>(mutex_));
    return appended_;
}

void CheckpointJournal::writer_loop() {
    // `written` and `persisted_` are mutated only by this thread
    // (persisted_ under the lock, so flush() can read it safely).
    std::size_t written = 0;
    std::unique_lock<std::mutex> lock(mutex_);
    while (true) {
        wake_writer_.wait(lock, [&] {
            return stop_ || !pending_.empty() || sync_goal_ > persisted_;
        });
        std::vector<std::string> batch;
        batch.swap(pending_);
        const bool stopping = stop_;
        const std::size_t sync_goal = sync_goal_;
        lock.unlock();

        std::exception_ptr error;
        std::size_t new_persisted = persisted_;
        try {
            if (!batch.empty()) {
                // One write per drained batch, one fsync per durability
                // point — the sweep hot path never blocks on either.
                std::size_t total = 0;
                for (const std::string& line : batch) total += line.size();
                std::string buffer;
                buffer.reserve(total);
                for (const std::string& line : batch) buffer += line;
                file_.append(buffer);
                written += batch.size();
            }
            if (written > new_persisted &&
                (written - new_persisted >= kFsyncBatchRecords ||
                 stopping || sync_goal > new_persisted)) {
                file_.sync();
                count_fsync_batch();
                new_persisted = written;
            }
        } catch (...) {
            error = std::current_exception();
        }

        lock.lock();
        if (error) {
            if (!write_error_) write_error_ = error;
            // Unblock flushers; they observe write_error_ and rethrow.
            written = appended_;
            persisted_ = written;
        } else {
            persisted_ = new_persisted;
        }
        drained_.notify_all();
        if (stop_ && pending_.empty() && persisted_ >= written) return;
    }
}

} // namespace deepstrike::sim
