// Hardened POSIX I/O helpers: every raw read/write/send/recv the
// project performs outside the epoll loop's eventfd plumbing goes
// through here, so EINTR retry and short-I/O continuation live in one
// place — and so the fault-injection shim (util/fault_injection.h) can
// intercept each call deterministically.
//
// Also home to the two ends of every artifact.  MappedFile is the one way
// the .gsbg/.gsbc/.gsbci readers get at their bytes: a whole file mapped
// read-only through open_for_read and mmap_read (so the shim sees each
// open and map), unmapped on destruction, and able to hand the pages of
// a consumed range back to the kernel.  FileWriter is the crash-safe
// writer shared by their builders: it writes to `<path>.tmp.<pid>`,
// fsyncs the file and its directory, and atomically renames into place,
// so a reader never observes a partial container and a crash leaves only
// a removable temp file (see find_stale_temps).  A mapping outlives a
// rename over its path: it keeps reading the file it mapped.

#ifndef GSB_UTIL_IO_H
#define GSB_UTIL_IO_H

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include <sys/socket.h>
#include <sys/types.h>

namespace gsb::util::io {

// -- syscall wrappers (EINTR-retrying, fault-injectable) --------------------
//
// The *_some calls behave like the underlying syscall minus EINTR: they
// may return short but never -1/EINTR.  The *_full calls additionally
// loop over short transfers; they return false with errno set on a real
// error (write_full, pwrite_full) or on error/premature EOF (read_full,
// pread_full).  The positioned pair never moves the file offset, so
// threads may share one descriptor.

ssize_t read_some(int fd, void* buf, std::size_t n) noexcept;
ssize_t recv_some(int fd, void* buf, std::size_t n, int flags) noexcept;
ssize_t send_some(int fd, const void* buf, std::size_t n, int flags) noexcept;
bool read_full(int fd, void* buf, std::size_t n) noexcept;
bool write_full(int fd, const void* buf, std::size_t n) noexcept;
bool pwrite_full(int fd, const void* buf, std::size_t n,
                 std::uint64_t offset) noexcept;
bool pread_full(int fd, void* buf, std::size_t n,
                std::uint64_t offset) noexcept;

/// accept4(SOCK_NONBLOCK | SOCK_CLOEXEC) with EINTR retry and fault
/// interception; -1/errno like accept (ENOSYS off Linux).
int accept_nonblock(int listen_fd) noexcept;

/// Non-blocking connect with an optional bound: sets O_NONBLOCK on
/// \p fd, starts the connect, polls up to \p timeout_ms for the
/// handshake (0 = wait forever), and reads back SO_ERROR.  The fd stays
/// non-blocking.  Returns 0 on success, -1 with errno set (ETIMEDOUT on
/// expiry).  Fault point: Op::kConnect.
int connect_with_timeout(int fd, const struct sockaddr* addr,
                         socklen_t addr_len, std::size_t timeout_ms) noexcept;

/// open(O_RDONLY | O_CLOEXEC) with EINTR retry and fault interception.
int open_for_read(const char* path) noexcept;

/// fsync with EINTR retry and fault interception; 0 or -1/errno.
int fsync_fd(int fd) noexcept;

/// rename with fault interception; 0 or -1/errno.
int rename_path(const char* from, const char* to) noexcept;

/// PROT_READ MAP_PRIVATE mmap of [0, bytes) with fault interception;
/// MAP_FAILED on error.
void* mmap_read(std::size_t bytes, int fd) noexcept;

// -- read-only file mapping -------------------------------------------------

/// A whole file mapped PROT_READ/MAP_PRIVATE.  Move-only; unmaps on
/// destruction.  An empty file maps to no bytes (the readers' header
/// checks reject it).
class MappedFile {
 public:
  MappedFile() = default;
  /// Maps \p path.  Throws std::runtime_error "<what>: cannot open
  /// '<path>' for reading: <errno text>" (likewise "cannot stat" and
  /// "mmap failed for"), so each reader's errors keep its format prefix.
  MappedFile(const std::string& path, const char* what);
  ~MappedFile();
  MappedFile(MappedFile&& other) noexcept;
  MappedFile& operator=(MappedFile&& other) noexcept;
  MappedFile(const MappedFile&) = delete;
  MappedFile& operator=(const MappedFile&) = delete;

  [[nodiscard]] const char* data() const noexcept { return data_; }
  [[nodiscard]] std::size_t size() const noexcept { return size_; }
  [[nodiscard]] std::span<const unsigned char> bytes() const noexcept {
    return {reinterpret_cast<const unsigned char*>(data_), size_};
  }

  /// Drops the resident pages that lie wholly inside bytes [begin, end):
  /// clean file pages, read again from the file on the next access.
  void drop_pages(std::size_t begin, std::size_t end) const noexcept;

 private:
  const char* data_ = nullptr;
  std::size_t size_ = 0;
};

// -- crash-safe artifact writer ---------------------------------------------

/// Buffered writer with atomic-publish semantics.  All data lands in
/// `<path>.tmp.<pid>`; commit() flushes, fsyncs the file, fsyncs the
/// parent directory, and renames over `path`.  If the writer is
/// destroyed (or commit fails) before a successful commit, the temp
/// file is unlinked — the final path is either the complete artifact or
/// untouched.  All methods throw std::runtime_error on I/O failure.
class FileWriter {
 public:
  explicit FileWriter(std::string path);
  ~FileWriter();
  FileWriter(const FileWriter&) = delete;
  FileWriter& operator=(const FileWriter&) = delete;

  /// Appends at the sequential position (buffered).
  void write(const void* data, std::size_t n);
  /// Random-access overwrite of already-written bytes (flushes the
  /// buffer first); used to patch headers after the payload is known.
  void write_at(std::uint64_t offset, const void* data, std::size_t n);
  /// Flush + fsync(file) + close + fsync(dir) + rename; records the
  /// fsync latency in the per-stage gsb_fsync_microseconds histogram.
  void commit();

  [[nodiscard]] std::uint64_t bytes_written() const noexcept {
    return position_;
  }
  [[nodiscard]] const std::string& path() const noexcept { return path_; }
  [[nodiscard]] const std::string& temp_path() const noexcept {
    return temp_;
  }

 private:
  void flush_buffer();
  void discard() noexcept;
  [[noreturn]] void fail(const std::string& what);

  std::string path_;
  std::string temp_;
  int fd_ = -1;
  bool committed_ = false;
  std::uint64_t position_ = 0;
  std::vector<char> buffer_;
};

/// "<path>.tmp.<pid>" for this process.
std::string temp_path_for(const std::string& path);

// -- stale temp-file scan ---------------------------------------------------

struct StaleTemp {
  std::string path;
  long pid = 0;
};

/// Files in `dir` matching `*.tmp.<pid>` whose pid no longer exists —
/// the debris a crashed FileWriter leaves behind.  Temps owned by live
/// processes (an in-flight build) are not reported.
std::vector<StaleTemp> find_stale_temps(const std::string& dir);

}  // namespace gsb::util::io

#endif  // GSB_UTIL_IO_H
