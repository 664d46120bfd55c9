#ifndef GSB_GRAPH_GRAPH_VIEW_H
#define GSB_GRAPH_GRAPH_VIEW_H

/// \file graph_view.h
/// Non-owning, backend-agnostic read view of a bitmap-adjacency graph.
///
/// Every clique algorithm in core/, analysis/ and parallel/ consumes a graph
/// through exactly this surface: order, degrees, per-vertex neighborhood
/// bit strings, and ascending neighbour lists (for_each_neighbor).  A
/// GraphView can be built from
///   * an in-memory graph::Graph (implicit conversion — existing callers
///     compile unchanged), or
///   * the bitmap section of a memory-mapped .gsbg file
///     (storage::MappedGraph::view()), in which case the enumerators run
///     directly off disk: the OS pages in only the rows they touch.  Such a
///     view also carries the file's CSR sections, and for_each_neighbor
///     reads those: a step that only lists neighbours costs the degree, and
///     faults in no bitmap page.
///
/// The view borrows: its source (and, for mapped graphs, the mapping) must
/// outlive it.  Construction is O(n) (a row-pointer table); all accessors
/// are as cheap as the Graph originals.

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

#include "bitset/bitset_view.h"
#include "graph/graph.h"

namespace gsb::graph {

class GraphView {
 public:
  using Word = bits::BitsetView::Word;

  GraphView() = default;

  /// View of an in-memory graph (intentionally implicit so `const Graph&`
  /// call sites keep working against view-based signatures).
  GraphView(const Graph& g);  // NOLINT

  /// View over a contiguous row-major bitmap: row v occupies
  /// words_per_row words starting at base + v * words_per_row.  \p degrees
  /// must hold n entries and outlive the view.  This is the mapped-file
  /// entry point.  When given, \p csr_offsets (n + 1 entries) and
  /// \p csr_targets list each row's set bits in ascending order (row v's
  /// are csr_targets[csr_offsets[v] .. csr_offsets[v + 1])); they must
  /// outlive the view too.
  GraphView(const Word* base, std::size_t words_per_row, std::size_t n,
            std::size_t num_edges, const std::size_t* degrees,
            const std::uint64_t* csr_offsets = nullptr,
            const std::uint32_t* csr_targets = nullptr);

  [[nodiscard]] std::size_t order() const noexcept { return n_; }
  [[nodiscard]] std::size_t num_edges() const noexcept { return num_edges_; }

  /// Edge density: m / (n choose 2).
  [[nodiscard]] double density() const noexcept {
    return edge_density(n_, num_edges_);
  }

  [[nodiscard]] bool has_edge(VertexId u, VertexId v) const noexcept {
    return neighbors(u).test(v);
  }

  /// The neighborhood bit string N(v).
  [[nodiscard]] bits::BitsetView neighbors(VertexId v) const noexcept {
    return bits::BitsetView(rows_[v], n_);
  }

  [[nodiscard]] std::size_t degree(VertexId v) const noexcept {
    return degrees_[v];
  }

  /// Flat degree array (n entries), as Graph::degrees_data.
  [[nodiscard]] const std::size_t* degrees_data() const noexcept {
    return degrees_;
  }

  [[nodiscard]] std::size_t max_degree() const noexcept;

  /// Calls \p fn(u) for each neighbour u >= \p from of \p v in ascending
  /// id order: from the CSR lists when the view has them, otherwise from
  /// the set bits of v's row, read from u's word on.
  template <typename Fn>
  void for_each_neighbor(VertexId v, Fn&& fn, VertexId from = 0) const {
    if (csr_offsets_ != nullptr) {
      for_each_listed(v, fn, from);
      return;
    }
    constexpr std::size_t kWordBits = bits::BitsetView::kWordBits;
    const Word* row = rows_[v];
    const std::size_t words = bits::BitsetView::word_count(n_);
    std::size_t w = from / kWordBits;
    Word word = w < words ? row[w] & (~Word{0} << (from % kWordBits)) : 0;
    while (w < words) {
      for (; word != 0; word &= word - 1) {
        fn(static_cast<VertexId>(w * kWordBits + static_cast<std::size_t>(
                                                     __builtin_ctzll(word))));
      }
      if (++w < words) word = row[w];
    }
  }

  /// Neighbor indices of \p v in increasing order.
  [[nodiscard]] std::vector<VertexId> neighbor_list(VertexId v) const {
    std::vector<VertexId> out;
    out.reserve(degree(v));
    for_each_neighbor(v, [&out](VertexId u) { out.push_back(u); });
    return out;
  }

  /// All edges as (u < v) pairs in lexicographic order.
  [[nodiscard]] std::vector<std::pair<VertexId, VertexId>> edge_list() const;

 private:
  /// for_each_neighbor over the CSR lists.  Kept out of line: inlined
  /// beside the row loop, it left that loop short of registers, and a
  /// k-core peel over rows ran at half speed.
  template <typename Fn>
  [[gnu::noinline]] void for_each_listed(VertexId v, Fn& fn,
                                         VertexId from) const {
    const std::uint32_t* end = csr_targets_ + csr_offsets_[v + 1];
    for (const std::uint32_t* u =
             std::lower_bound(csr_targets_ + csr_offsets_[v], end, from);
         u != end; ++u) {
      fn(static_cast<VertexId>(*u));
    }
  }

  std::size_t n_ = 0;
  std::size_t num_edges_ = 0;
  std::vector<const Word*> rows_;   ///< row word pointers, one per vertex
  const std::size_t* degrees_ = nullptr;
  const std::uint64_t* csr_offsets_ = nullptr;  ///< null: no CSR lists
  const std::uint32_t* csr_targets_ = nullptr;
};

}  // namespace gsb::graph

#endif  // GSB_GRAPH_GRAPH_VIEW_H
