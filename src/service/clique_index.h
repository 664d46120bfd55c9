#ifndef GSB_SERVICE_CLIQUE_INDEX_H
#define GSB_SERVICE_CLIQUE_INDEX_H

/// \file clique_index.h
/// The `.gsbci` clique-index sidecar: builder and memory-mapped reader.
///
/// `build_clique_index` makes two forward passes over one mapping of a
/// `.gsbc` (offsets and participation counts, then CSR posting fill —
/// O(member_total) memory, never a materialized clique set) and writes the
/// sidecar spec'd in storage/gsbci_format.h.  `CliqueIndex` memory-maps
/// the sidecar — opening is O(1) work plus validation scans — and serves
/// per-vertex posting lists and per-clique byte offsets.  The query
/// engine decodes record `clique_offset(id)` of the entry's mapped stream
/// with storage::GsbcReader::read_record, which is what lets
/// `cliques-containing v` touch |postings(v)| records instead of
/// rescanning the stream.

#include <cstdint>
#include <span>
#include <string>

#include "graph/graph.h"
#include "storage/gsbci_format.h"
#include "util/io.h"

namespace gsb::service {

/// Totals reported by build_clique_index().
struct CliqueIndexBuildStats {
  std::uint64_t clique_count = 0;
  std::uint64_t posting_total = 0;
  std::uint64_t file_bytes = 0;
};

/// Scans \p gsbc_path once and writes the `.gsbci` sidecar to \p out_path.
/// Throws std::runtime_error on any stream malformation or write failure.
CliqueIndexBuildStats build_clique_index(const std::string& gsbc_path,
                                         const std::string& out_path);

/// Default sidecar path for a stream: `X.gsbc` -> `X.gsbci` (any other
/// extension just gains `.gsbci`).
std::string default_index_path(const std::string& gsbc_path);

/// Memory-mapped `.gsbci` reader.
class CliqueIndex {
 public:
  /// Maps \p path read-only, validating magic, version, exact file size,
  /// monotone offset arrays and posting bounds.  Throws std::runtime_error
  /// on any malformation.
  static CliqueIndex open(const std::string& path);

  [[nodiscard]] bool is_open() const noexcept {
    return file_.data() != nullptr;
  }
  [[nodiscard]] const storage::GsbciHeader& header() const noexcept {
    return header_;
  }
  [[nodiscard]] std::size_t order() const noexcept { return header_.n; }
  [[nodiscard]] std::uint64_t clique_count() const noexcept {
    return header_.clique_count;
  }
  [[nodiscard]] std::uint64_t posting_total() const noexcept {
    return header_.posting_total;
  }
  /// Header checksum of the companion `.gsbc` this index was built from.
  [[nodiscard]] std::uint64_t source_checksum() const noexcept {
    return header_.source_checksum;
  }

  /// Ascending clique ids whose records contain \p v.
  [[nodiscard]] std::span<const std::uint64_t> postings(
      graph::VertexId v) const noexcept {
    return postings_.subspan(posting_offsets_[v],
                             posting_offsets_[v + 1] - posting_offsets_[v]);
  }

  /// Number of cliques containing \p v — participation without touching
  /// the stream at all.
  [[nodiscard]] std::uint64_t participation(graph::VertexId v) const noexcept {
    return posting_offsets_[v + 1] - posting_offsets_[v];
  }

  /// Absolute byte offset of record \p clique_id in the companion stream.
  [[nodiscard]] std::uint64_t clique_offset(std::uint64_t clique_id)
      const noexcept {
    return clique_offsets_[clique_id];
  }

 private:
  storage::GsbciHeader header_;
  util::io::MappedFile file_;
  std::span<const std::uint64_t> clique_offsets_;
  std::span<const std::uint64_t> posting_offsets_;
  std::span<const std::uint64_t> postings_;
};

}  // namespace gsb::service

#endif  // GSB_SERVICE_CLIQUE_INDEX_H
