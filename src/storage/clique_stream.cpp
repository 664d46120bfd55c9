#include "storage/clique_stream.h"

#include <algorithm>
#include <cstring>
#include <stdexcept>

#include "util/io.h"

namespace gsb::storage {
namespace {

constexpr std::size_t kIoBuffer = 1 << 16;  ///< 64 KiB writer chunks
/// Reader windows: a scan drops each one's pages once past it.  A multiple
/// of every page size the kernel uses, so windows are whole pages.
constexpr std::size_t kReadWindow = 1 << 16;

[[noreturn]] void fail(const std::string& what) {
  throw std::runtime_error("gsbc: " + what);
}

/// Decodes the record at \p pos into \p out and advances \p pos past it:
/// a size in [1, n], then members below n, ascending (every delta >= 1).
/// The one parse of a `.gsbc` record; next() and read_record() share it.
void decode_record(std::span<const unsigned char> bytes, std::size_t& pos,
                   std::uint64_t n, std::vector<graph::VertexId>& out) {
  const std::uint64_t size = decode_leb128(bytes, pos);
  // Each member takes at least one byte, which also bounds the reserve.
  if (size == 0 || size > n || size > bytes.size() - pos) {
    fail("record size out of range");
  }
  out.clear();
  out.reserve(size);
  std::uint64_t member = decode_leb128(bytes, pos);
  if (member >= n) fail("member id out of range");
  out.push_back(static_cast<graph::VertexId>(member));
  for (std::uint64_t i = 1; i < size; ++i) {
    const std::uint64_t delta = decode_leb128(bytes, pos);
    if (delta == 0) fail("non-ascending member delta");
    if (delta >= n - member) fail("member id out of range");  // no wrap
    member += delta;
    out.push_back(static_cast<graph::VertexId>(member));
  }
}

void serialize_header(char (&buffer)[kGsbcHeaderBytes],
                      const GsbcHeader& header) {
  std::memset(buffer, 0, sizeof(buffer));
  std::memcpy(buffer, kGsbcMagic, sizeof(kGsbcMagic));
  std::memcpy(buffer + 8, &header.version, 4);
  std::memcpy(buffer + 12, &header.flags, 4);
  std::memcpy(buffer + 16, &header.n, 8);
  std::memcpy(buffer + 24, &header.clique_count, 8);
  std::memcpy(buffer + 32, &header.member_total, 8);
  std::memcpy(buffer + 40, &header.max_size, 8);
  std::memcpy(buffer + 48, &header.checksum, 8);
}

}  // namespace

// --- LEB128 varints ---------------------------------------------------------

void append_leb128(std::vector<unsigned char>& out, std::uint64_t value) {
  while (value >= 0x80) {
    out.push_back(static_cast<unsigned char>(value) | 0x80u);
    value >>= 7;
  }
  out.push_back(static_cast<unsigned char>(value));
}

std::uint64_t decode_leb128(std::span<const unsigned char> bytes,
                            std::size_t& pos) {
  std::uint64_t value = 0;
  unsigned shift = 0;
  while (true) {
    if (pos == bytes.size()) fail("truncated varint");
    const unsigned char byte = bytes[pos++];
    if (shift >= 63 && (byte >> 1) != 0) fail("varint overflow");
    if (shift > 0 && byte == 0) fail("over-long varint encoding");
    value |= static_cast<std::uint64_t>(byte & 0x7Fu) << shift;
    if ((byte & 0x80u) == 0) return value;
    shift += 7;
  }
}

// --- writer -----------------------------------------------------------------

GsbcWriter::GsbcWriter(const std::string& path, std::size_t order)
    : path_(path), out_(std::make_unique<util::io::FileWriter>(path)) {
  header_.n = order;
  char raw[kGsbcHeaderBytes];
  serialize_header(raw, header_);  // placeholder; patched in close()
  out_->write(raw, sizeof(raw));
  buffer_.reserve(kIoBuffer);
  open_ = true;
}

// An abandoned writer discards its temp file (FileWriter's destructor);
// the destination path is untouched.
GsbcWriter::~GsbcWriter() = default;

void GsbcWriter::put_varint(std::uint64_t value) {
  append_leb128(buffer_, value);
}

void GsbcWriter::flush_buffer() {
  if (buffer_.empty()) return;
  sum_.update(buffer_.data(), buffer_.size());
  out_->write(buffer_.data(), buffer_.size());
  payload_bytes_ += buffer_.size();
  buffer_.clear();
}

void GsbcWriter::append(std::span<const graph::VertexId> clique) {
  if (!open_) fail("append on a closed writer");
  if (clique.empty()) fail("empty clique");
  scratch_.assign(clique.begin(), clique.end());
  std::sort(scratch_.begin(), scratch_.end());
  // Validate fully before emitting a single byte: a rejected clique must
  // leave the stream exactly as it was (a caller may catch and continue).
  if (scratch_.back() >= header_.n) {
    fail("member id out of range for the declared vertex universe");
  }
  for (std::size_t i = 1; i < scratch_.size(); ++i) {
    if (scratch_[i] == scratch_[i - 1]) fail("duplicate member in clique");
  }
  put_varint(scratch_.size());
  put_varint(scratch_.front());
  for (std::size_t i = 1; i < scratch_.size(); ++i) {
    put_varint(scratch_[i] - scratch_[i - 1]);
  }
  ++header_.clique_count;
  header_.member_total += scratch_.size();
  header_.max_size = std::max<std::uint64_t>(header_.max_size,
                                             scratch_.size());
  if (buffer_.size() >= kIoBuffer) flush_buffer();
}

GsbcWriteStats GsbcWriter::close() {
  if (!open_) fail("double close");
  open_ = false;
  flush_buffer();
  header_.checksum = sum_.digest();
  char raw[kGsbcHeaderBytes];
  serialize_header(raw, header_);
  out_->write_at(0, raw, sizeof(raw));
  out_->commit();  // fsync + atomic rename into path_
  return GsbcWriteStats{header_.clique_count, header_.member_total,
                        header_.max_size,
                        kGsbcHeaderBytes + payload_bytes_};
}

// --- reader -----------------------------------------------------------------

GsbcReader GsbcReader::open(const std::string& path, const Options& options) {
  GsbcReader reader;
  reader.file_ = std::make_shared<const util::io::MappedFile>(path, "gsbc");
  const util::io::MappedFile& file = *reader.file_;
  const char* raw = file.data();
  if (file.size() < kGsbcHeaderBytes) fail("file shorter than the header");
  if (std::memcmp(raw, kGsbcMagic, sizeof(kGsbcMagic)) != 0) {
    fail("bad magic (not a .gsbc file)");
  }
  GsbcHeader& header = reader.header_;
  std::memcpy(&header.version, raw + 8, 4);
  std::memcpy(&header.flags, raw + 12, 4);
  std::memcpy(&header.n, raw + 16, 8);
  std::memcpy(&header.clique_count, raw + 24, 8);
  std::memcpy(&header.member_total, raw + 32, 8);
  std::memcpy(&header.max_size, raw + 40, 8);
  std::memcpy(&header.checksum, raw + 48, 8);
  if (header.version != kGsbcVersion) {
    fail("unsupported version " + std::to_string(header.version));
  }
  if (header.max_size > header.member_total ||
      (header.clique_count == 0) != (header.member_total == 0)) {
    fail("inconsistent header counts");
  }

  // Bound the payload by the header counts before trusting either: every
  // record is at least one byte per varint (size + members) and at most ten,
  // so a truncated stream or trailing garbage is rejected at open — not
  // after a half-parsed header has already been reported.
  const std::uint64_t payload = file.size() - kGsbcHeaderBytes;
  const std::uint64_t varints = header.clique_count + header.member_total;
  if (payload < varints) {
    fail("file truncated: " + std::to_string(payload) +
         " payload bytes cannot hold " + std::to_string(header.clique_count) +
         " cliques");
  }
  if (payload > 10 * varints) {  // varints <= payload < 2^60: no overflow
    fail(varints == 0 ? "trailing bytes in an empty stream"
                      : "file size inconsistent with header counts");
  }

  if (options.verify_checksum) {
    // One window at a time, each dropped once hashed, like a scan.
    Fnv1a sum;
    for (std::size_t window = 0; window < file.size();
         window += kReadWindow) {
      const std::size_t begin = std::max(window, kGsbcHeaderBytes);
      const std::size_t end = std::min(file.size(), window + kReadWindow);
      sum.update(raw + begin, end - begin);
      file.drop_pages(window, end);
    }
    if (sum.digest() != header.checksum) fail("checksum mismatch");
  }
  return reader;
}

GsbcReader GsbcReader::scan() const {
  GsbcReader reader;
  reader.file_ = file_;
  reader.header_ = header_;
  return reader;
}

bool GsbcReader::next(std::vector<graph::VertexId>& out) {
  if (pos_ == file_->size()) {
    if (cliques_read_ != header_.clique_count) {
      fail("stream ended after " + std::to_string(cliques_read_) + " of " +
           std::to_string(header_.clique_count) + " cliques");
    }
    // The payload checksum does not protect the header, so the aggregate
    // fields are cross-checked against what the scan actually decoded —
    // a doctored member_total/max_size must not survive a clean drain.
    if (members_read_ != header_.member_total) {
      fail("header claims " + std::to_string(header_.member_total) +
           " members, stream holds " + std::to_string(members_read_));
    }
    if (max_seen_ != header_.max_size) {
      fail("header max clique size disagrees with the stream");
    }
    return false;
  }
  if (cliques_read_ == header_.clique_count) {
    fail("trailing bytes after the declared clique count");
  }
  decode_record(file_->bytes(), pos_, header_.n, out);
  ++cliques_read_;
  members_read_ += out.size();
  max_seen_ = std::max<std::uint64_t>(max_seen_, out.size());
  // Hand back the whole windows behind the cursor: a scan keeps one window
  // (plus the kernel's fault-around) of the file resident.
  if (pos_ - dropped_ >= kReadWindow) {
    const std::size_t behind = pos_ / kReadWindow * kReadWindow;
    file_->drop_pages(dropped_, behind);
    dropped_ = behind;
  }
  return true;
}

void GsbcReader::read_record(std::uint64_t begin, std::uint64_t end,
                             std::vector<graph::VertexId>& out) const {
  if (begin < kGsbcHeaderBytes || begin >= end || end > file_->size()) {
    fail("record range [" + std::to_string(begin) + ", " +
         std::to_string(end) + ") out of bounds");
  }
  std::size_t pos = begin;
  decode_record(file_->bytes().first(end), pos, header_.n, out);
  if (pos != end) {
    fail("record at byte " + std::to_string(begin) + " has trailing bytes");
  }
}

}  // namespace gsb::storage
