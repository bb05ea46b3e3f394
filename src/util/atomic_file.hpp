// Crash-safe file primitives for the checkpoint/resume layer.
//
// Two things live here, both built on POSIX open/write/fsync/rename, so
// the file layer needs a POSIX host:
//
//   - atomic_write_file(): publish a whole file atomically via
//     write-to-temp + fsync + rename, so readers (and a resumed run)
//     never observe a half-written report.
//   - SyncedAppendFile: an append-only handle with explicit sync(),
//     the byte sink under sim::CheckpointJournal. Appends are plain
//     write() calls; durability points are chosen by the caller (the
//     journal fsyncs once per batch of records).
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

namespace deepstrike {

/// Atomically replaces `path` with `contents`: writes `path` + a unique
/// suffix, fsyncs, then rename()s over the target (atomic on POSIX).
/// Throws IoError when any step fails; the temp file is cleaned up.
void atomic_write_file(const std::string& path, std::string_view contents);

/// Append-only file handle with caller-controlled durability.
class SyncedAppendFile {
public:
    /// Opens `path` for appending, creating it if needed; `truncate`
    /// empties any existing content first. Throws IoError.
    SyncedAppendFile(const std::string& path, bool truncate);
    ~SyncedAppendFile();

    SyncedAppendFile(const SyncedAppendFile&) = delete;
    SyncedAppendFile& operator=(const SyncedAppendFile&) = delete;

    /// Appends bytes (one write syscall). Throws IoError on short writes.
    void append(std::string_view bytes);

    /// Flushes appended bytes to stable storage (fsync). Throws IoError.
    void sync();

    const std::string& path() const { return path_; }

private:
    std::string path_;
    int fd_ = -1;
};

/// Truncates `path` to `length` bytes (dropping a torn journal tail
/// before re-appending). Throws IoError.
void truncate_file(const std::string& path, std::uint64_t length);

} // namespace deepstrike
