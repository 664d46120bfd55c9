#ifndef GSB_STORAGE_MAPPED_GRAPH_H
#define GSB_STORAGE_MAPPED_GRAPH_H

/// \file mapped_graph.h
/// Memory-mapped read access to a `.gsbg` graph container.
///
/// Opening is O(n + m) and maps the file read-only; no adjacency data is
/// copied.  It validates the header and section table and every CSR row
/// (targets below n, strictly ascending, no self-loop, every arc with its
/// reverse), and checks the bitmap's padding bits one 1 MiB window at a
/// time, handing each checked window's pages back to the kernel.  When the
/// file carries a bitmap section, view() exposes it through the same
/// graph::GraphView every clique algorithm consumes, together with the CSR
/// lists (GraphView::for_each_neighbor), so enumeration, maximum clique,
/// paracliques and hub analysis run directly off disk — the OS pages in
/// exactly the rows the algorithms touch, and a step that only lists
/// neighbours reads the CSR, which is the storage/compute separation the
/// genome-scale instances need.
///
/// Files without a bitmap section (written with bitmap=false for
/// compactness) are still fully usable through load(), which materializes
/// an in-memory Graph from the CSR sections.

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "graph/graph.h"
#include "graph/graph_view.h"
#include "storage/gsbg_format.h"
#include "util/io.h"

namespace gsb::storage {

class MappedGraph {
 public:
  struct Options {
    /// Re-hash the payload at open and reject on checksum mismatch, then
    /// check that every bitmap row holds exactly its CSR targets (the
    /// kernels trust degree(v) to describe row v).  Costs one sequential
    /// pass over the file plus one over the bitmap; off by default so that
    /// opening stays O(n) for trusted files.
    bool verify_checksum = false;
  };

  /// Maps \p path read-only, validating magic, version, section table, CSR
  /// rows and bitmap padding.  Throws std::runtime_error on any
  /// malformation.
  static MappedGraph open(const std::string& path, const Options& options);
  static MappedGraph open(const std::string& path) {
    return open(path, Options{});
  }

  [[nodiscard]] bool is_open() const noexcept {
    return file_.data() != nullptr;
  }
  [[nodiscard]] std::size_t order() const noexcept { return header_.n; }
  [[nodiscard]] std::size_t num_edges() const noexcept { return header_.m; }
  [[nodiscard]] double density() const noexcept;
  [[nodiscard]] const GsbgHeader& header() const noexcept { return header_; }
  [[nodiscard]] const std::vector<GsbgSection>& sections() const noexcept {
    return sections_;
  }
  [[nodiscard]] std::size_t file_bytes() const noexcept {
    return file_.size();
  }

  [[nodiscard]] bool has_bitmap() const noexcept { return bitmap_ != nullptr; }
  [[nodiscard]] bool degree_sorted() const noexcept {
    return (header_.flags & kFlagDegreeSorted) != 0;
  }

  [[nodiscard]] std::size_t degree(graph::VertexId v) const noexcept {
    return degrees_[v];
  }

  /// CSR accessors (always present).
  [[nodiscard]] std::span<const std::uint64_t> csr_offsets() const noexcept {
    return offsets_;
  }
  [[nodiscard]] std::span<const std::uint32_t> csr_targets() const noexcept {
    return targets_;
  }
  /// Sorted neighbors of \p v straight out of the mapped CSR.
  [[nodiscard]] std::span<const std::uint32_t> csr_row(graph::VertexId v)
      const noexcept {
    return targets_.subspan(offsets_[v], offsets_[v + 1] - offsets_[v]);
  }

  /// Stored-id -> original-id permutation; empty unless degree_sorted().
  [[nodiscard]] std::span<const std::uint32_t> permutation() const noexcept {
    return permutation_;
  }

  /// Zero-copy adjacency view over the mapped bitmap section, whose
  /// for_each_neighbor reads the CSR sections.  Throws if the file was
  /// written without a bitmap.  The view (and anything holding it) must not
  /// outlive this MappedGraph.
  [[nodiscard]] graph::GraphView view() const;

  /// Materializes an in-memory Graph from the CSR sections.
  [[nodiscard]] graph::Graph load() const;

  /// Full payload checksum pass; throws on mismatch.
  void verify_checksum() const;

 private:
  /// Throws unless every CSR row is strictly ascending, below n, free of
  /// self-loops, and every arc {v, u} appears in both rows.  O(n + m).
  void check_csr_rows() const;
  /// Throws if a bitmap row has a bit at a position >= n: the bit-string
  /// kernels rely on the writer's invariant that those are zero, so it is
  /// checked at open rather than left to the optional checksum pass.
  /// Reading each row's last word touches every page of the bitmap, so the
  /// check walks it in 1 MiB windows and drops each one's pages (only the
  /// bitmap's whole pages) once checked.
  void check_bitmap_padding() const;
  /// Throws unless every bitmap row's set bits are exactly its CSR row.
  void verify_bitmap_rows() const;

  GsbgHeader header_;
  std::vector<GsbgSection> sections_;
  util::io::MappedFile file_;
  std::span<const std::uint64_t> offsets_;
  std::span<const std::uint32_t> targets_;
  const std::uint64_t* bitmap_ = nullptr;
  std::size_t words_per_row_ = 0;
  std::span<const std::uint32_t> permutation_;
  std::vector<std::size_t> degrees_;  ///< from CSR offsets, for GraphView
};

}  // namespace gsb::storage

#endif  // GSB_STORAGE_MAPPED_GRAPH_H
