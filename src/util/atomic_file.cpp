#include "util/atomic_file.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstring>

#include "util/error.hpp"

namespace deepstrike {

namespace {

[[noreturn]] void throw_io(const std::string& path, const char* op) {
    throw IoError(std::string(op) + " " + path + ": " + std::strerror(errno));
}

/// fsync the directory containing `path` so the rename itself is durable.
void sync_parent_dir(const std::string& path) {
    const std::size_t slash = path.find_last_of('/');
    const std::string dir = slash == std::string::npos ? "." : path.substr(0, slash);
    const int fd = ::open(dir.empty() ? "/" : dir.c_str(), O_RDONLY);
    if (fd < 0) return; // best effort: some filesystems refuse O_RDONLY dirs
    ::fsync(fd);
    ::close(fd);
}

} // namespace

void atomic_write_file(const std::string& path, std::string_view contents) {
    const std::string tmp = path + ".tmp." + std::to_string(::getpid());
    const int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
    if (fd < 0) throw_io(tmp, "open");

    std::size_t written = 0;
    while (written < contents.size()) {
        const ssize_t n =
            ::write(fd, contents.data() + written, contents.size() - written);
        if (n < 0) {
            if (errno == EINTR) continue;
            ::close(fd);
            ::unlink(tmp.c_str());
            throw_io(tmp, "write");
        }
        written += static_cast<std::size_t>(n);
    }
    if (::fsync(fd) != 0 || ::close(fd) != 0) {
        ::unlink(tmp.c_str());
        throw_io(tmp, "fsync");
    }
    if (::rename(tmp.c_str(), path.c_str()) != 0) {
        ::unlink(tmp.c_str());
        throw_io(path, "rename");
    }
    sync_parent_dir(path);
}

SyncedAppendFile::SyncedAppendFile(const std::string& path, bool truncate)
    : path_(path) {
    const int flags = O_WRONLY | O_CREAT | O_APPEND | (truncate ? O_TRUNC : 0);
    fd_ = ::open(path.c_str(), flags, 0644);
    if (fd_ < 0) throw_io(path, "open");
}

SyncedAppendFile::~SyncedAppendFile() {
    if (fd_ >= 0) ::close(fd_);
}

void SyncedAppendFile::append(std::string_view bytes) {
    std::size_t written = 0;
    while (written < bytes.size()) {
        const ssize_t n = ::write(fd_, bytes.data() + written, bytes.size() - written);
        if (n < 0) {
            if (errno == EINTR) continue;
            throw_io(path_, "write");
        }
        written += static_cast<std::size_t>(n);
    }
}

void SyncedAppendFile::sync() {
    if (::fsync(fd_) != 0) throw_io(path_, "fsync");
}

void truncate_file(const std::string& path, std::uint64_t length) {
    if (::truncate(path.c_str(), static_cast<off_t>(length)) != 0) {
        throw_io(path, "truncate");
    }
}

} // namespace deepstrike
