#include "exp/atomic_file.h"

#include <atomic>
#include <cstdio>
#include <cstdint>
#include <stdexcept>
#include <system_error>

#if defined(__unix__) || defined(__APPLE__)
#define SUDOKU_ATOMIC_FILE_POSIX 1
#include <fcntl.h>
#include <unistd.h>
#else
#include <fstream>
#endif

namespace sudoku::exp {

namespace {

[[noreturn]] void raise(const std::filesystem::path& path, const std::string& what) {
  throw std::runtime_error("atomic_write_file: " + what + " '" + path.string() + "'");
}

// Writer-unique temporary suffix. Concurrent publishers of the same path
// (fleet siblings emitting one artifact, or two worker threads saving at
// once) must not share a staging name: with a fixed ".tmp" one writer
// renames the other's half-written temp into place, or renames it away and
// fails the loser with ENOENT. pid + a process-local counter keeps every
// staging file private, so concurrent writes degrade to
// last-rename-wins over complete files.
std::string tmp_suffix() {
  static std::atomic<std::uint64_t> counter{0};
  const std::uint64_t n = counter.fetch_add(1, std::memory_order_relaxed);
#if SUDOKU_ATOMIC_FILE_POSIX
  return ".tmp." + std::to_string(static_cast<long>(::getpid())) + "." +
         std::to_string(n);
#else
  return ".tmp." + std::to_string(n);
#endif
}

}  // namespace

void atomic_write_file(const std::filesystem::path& path,
                       const std::string& contents, FileDurability durability) {
  const std::filesystem::path tmp = path.string() + tmp_suffix();

#if SUDOKU_ATOMIC_FILE_POSIX
  const int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) raise(tmp, "cannot create temporary");
  std::size_t written = 0;
  while (written < contents.size()) {
    const ssize_t n =
        ::write(fd, contents.data() + written, contents.size() - written);
    if (n < 0) {
      if (errno == EINTR) continue;
      ::close(fd);
      ::unlink(tmp.c_str());
      raise(tmp, "write failed for");
    }
    written += static_cast<std::size_t>(n);
  }
  const bool flushed = durability == FileDurability::kFull ? ::fsync(fd) == 0 : true;
  if (!flushed || ::close(fd) != 0) {
    ::unlink(tmp.c_str());
    raise(tmp, "flush failed for");
  }
  if (::rename(tmp.c_str(), path.c_str()) != 0) {
    ::unlink(tmp.c_str());
    raise(path, "rename failed for");
  }
  // Persist the rename itself; a failure here (e.g. network fs) leaves the
  // file published but possibly not durable — not worth failing the run.
  if (durability == FileDurability::kFull) {
    const int dirfd = ::open(path.parent_path().empty()
                                 ? "."
                                 : path.parent_path().c_str(),
                             O_RDONLY | O_DIRECTORY);
    if (dirfd >= 0) {
      ::fsync(dirfd);
      ::close(dirfd);
    }
  }
#else
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    out << contents;
    out.flush();
    if (!out) {
      std::error_code ignored;
      std::filesystem::remove(tmp, ignored);
      raise(tmp, "write failed for");
    }
  }
  std::error_code ec;
  std::filesystem::rename(tmp, path, ec);
  if (ec) {
    std::error_code ignored;
    std::filesystem::remove(tmp, ignored);
    raise(path, "rename failed for");
  }
#endif
}

bool atomic_create_file(const std::filesystem::path& path,
                        const std::string& contents) {
#if SUDOKU_ATOMIC_FILE_POSIX
  const int fd = ::open(path.c_str(), O_WRONLY | O_CREAT | O_EXCL, 0644);
  if (fd < 0) {
    if (errno == EEXIST) return false;
    raise(path, "exclusive create failed for");
  }
  std::size_t written = 0;
  while (written < contents.size()) {
    const ssize_t n =
        ::write(fd, contents.data() + written, contents.size() - written);
    if (n < 0) {
      if (errno == EINTR) continue;
      break;  // the claim exists; truncated diagnostics are acceptable
    }
    written += static_cast<std::size_t>(n);
  }
  ::close(fd);
  return true;
#else
  // Portable approximation: std::ofstream with noreplace is C++23; emulate
  // with an existence check + create. Not atomic against other processes,
  // which is why the fleet queue is documented POSIX-only.
  if (std::filesystem::exists(path)) return false;
  std::ofstream out(path, std::ios::binary);
  if (!out) raise(path, "exclusive create failed for");
  out << contents;
  return true;
#endif
}

}  // namespace sudoku::exp
