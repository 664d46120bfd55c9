#ifndef GSB_STORAGE_CLIQUE_STREAM_H
#define GSB_STORAGE_CLIQUE_STREAM_H

/// \file clique_stream.h
/// Sequential writer and iterator reader for the `.gsbc` clique-stream
/// container (byte layout in gsbc_format.h / docs/FORMATS.md).
///
/// The writer is an append-only sink: one buffered pass, O(largest clique)
/// memory, header (counts + checksum) patched on close.  It accepts
/// cliques in any member order and canonicalizes to ascending ids before
/// delta coding, so it can sit directly behind any enumerator's
/// CliqueCallback.  The reader maps the file once (util::io::MappedFile)
/// and decodes every record with one parser, both in its strict forward
/// scan — `analysis::clique_spectrum`, participation counting and
/// paraclique seeding all consume that in O(1) clique memory, which is the
/// whole point: the clique set never has to exist in RAM at once — and in
/// read_record, the `.gsbci`-driven random access.  A scan hands the pages
/// it has consumed back to the kernel, so it keeps one 64 KiB window of
/// the file resident however long the stream is.

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "graph/graph.h"
#include "storage/gsbc_format.h"
#include "util/io.h"

namespace gsb::storage {

/// --- LEB128 varints ---------------------------------------------------------
/// The `.gsbc` record coding, exposed so the `.gsbci` index and the tests
/// can share the exact encoder/decoder the stream uses.

/// Appends the unsigned LEB128 encoding of \p value (1..10 bytes).
void append_leb128(std::vector<unsigned char>& out, std::uint64_t value);

/// Decodes one varint starting at \p pos, advancing \p pos past it.
/// Throws std::runtime_error on truncation, on values that overflow 64
/// bits, and on non-canonical (over-long) encodings — a trailing 0x00
/// continuation byte never appears in a minimal encoding.
std::uint64_t decode_leb128(std::span<const unsigned char> bytes,
                            std::size_t& pos);

/// Totals reported by GsbcWriter::close().
struct GsbcWriteStats {
  std::uint64_t clique_count = 0;
  std::uint64_t member_total = 0;
  std::uint64_t max_size = 0;
  std::uint64_t file_bytes = 0;
};

/// Streaming `.gsbc` writer.
class GsbcWriter {
 public:
  /// Opens `<path>.tmp.<pid>` for writing and reserves the header.
  /// \p order is the vertex universe of the source graph (member ids
  /// must be < order).  Nothing appears at \p path until close().
  GsbcWriter(const std::string& path, std::size_t order);

  /// Discards the temp file if close() was never called: an abandoned
  /// or crashed writer never publishes a partial stream.
  ~GsbcWriter();

  GsbcWriter(const GsbcWriter&) = delete;
  GsbcWriter& operator=(const GsbcWriter&) = delete;

  /// Appends one clique (any member order; duplicates are invalid and
  /// rejected, as is an id >= order or an empty clique).
  void append(std::span<const graph::VertexId> clique);

  /// Flushes, patches the header with counts and checksum, fsyncs, and
  /// atomically renames the temp file into place.
  GsbcWriteStats close();

  [[nodiscard]] std::uint64_t clique_count() const noexcept {
    return header_.clique_count;
  }

 private:
  void put_varint(std::uint64_t value);
  void flush_buffer();

  std::string path_;
  std::unique_ptr<util::io::FileWriter> out_;
  GsbcHeader header_;
  Fnv1a sum_;
  std::vector<unsigned char> buffer_;
  std::vector<graph::VertexId> scratch_;  ///< sort buffer, one clique
  std::uint64_t payload_bytes_ = 0;
  bool open_ = false;
};

/// `.gsbc` reader over a read-only mapping of the file.  Copies share the
/// mapping; each copy is its own cursor.
class GsbcReader {
 public:
  struct Options {
    /// Re-hash the payload at open and reject on checksum mismatch (one
    /// extra sequential pass).  Off by default, as for .gsbg.
    bool verify_checksum = false;
  };

  /// Maps \p path, validating magic, version and header/file coherence.
  /// Throws std::runtime_error on any malformation.
  static GsbcReader open(const std::string& path, const Options& options);
  static GsbcReader open(const std::string& path) {
    return open(path, Options{});
  }

  [[nodiscard]] const GsbcHeader& header() const noexcept { return header_; }
  [[nodiscard]] std::size_t order() const noexcept { return header_.n; }
  [[nodiscard]] std::uint64_t clique_count() const noexcept {
    return header_.clique_count;
  }
  [[nodiscard]] std::uint64_t member_total() const noexcept {
    return header_.member_total;
  }
  [[nodiscard]] std::uint64_t max_size() const noexcept {
    return header_.max_size;
  }
  /// Size of the mapped file.
  [[nodiscard]] std::uint64_t file_bytes() const noexcept {
    return file_->size();
  }

  /// Reads the next clique into \p out (ascending member ids).  Returns
  /// false at a clean end of stream; throws on truncation, malformed
  /// varints, non-ascending members, ids >= order(), or a record count
  /// that disagrees with the header.
  bool next(std::vector<graph::VertexId>& out);

  /// Absolute file offset of the record the next next() call will decode
  /// (the `.gsbci` builder records these for random access).
  [[nodiscard]] std::uint64_t next_record_offset() const noexcept {
    return pos_;
  }

  /// A reader at the first record of the same mapping (no reopen).
  [[nodiscard]] GsbcReader scan() const;

  /// Decodes the one record that fills file bytes [begin, end) into \p out;
  /// throws if the range is out of bounds, the record is malformed, or
  /// bytes of the range are left over.  Leaves the scan cursor alone.
  void read_record(std::uint64_t begin, std::uint64_t end,
                   std::vector<graph::VertexId>& out) const;

 private:
  GsbcReader() = default;

  std::shared_ptr<const util::io::MappedFile> file_;
  GsbcHeader header_;
  std::size_t pos_ = kGsbcHeaderBytes;  ///< offset of the next record
  std::size_t dropped_ = 0;  ///< pages below this offset were handed back
  std::uint64_t cliques_read_ = 0;
  std::uint64_t members_read_ = 0;
  std::uint64_t max_seen_ = 0;
};

}  // namespace gsb::storage

#endif  // GSB_STORAGE_CLIQUE_STREAM_H
