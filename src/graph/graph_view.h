#ifndef GSB_GRAPH_GRAPH_VIEW_H
#define GSB_GRAPH_GRAPH_VIEW_H

/// \file graph_view.h
/// Non-owning, backend-agnostic read view of a bitmap-adjacency graph.
///
/// Every clique algorithm in core/, analysis/ and parallel/ consumes a graph
/// through exactly this surface: order, degrees, and per-vertex neighborhood
/// bit strings.  A GraphView can be built from
///   * an in-memory graph::Graph (implicit conversion — existing callers
///     compile unchanged), or
///   * the bitmap section of a memory-mapped .gsbg file
///     (storage::MappedGraph::view()), in which case the enumerators run
///     directly off disk: the OS pages in only the rows they touch.
///
/// The view borrows: its source (and, for mapped graphs, the mapping) must
/// outlive it.  Construction is O(n) (a row-pointer table); all accessors
/// are as cheap as the Graph originals.

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
  /// entry point.
  GraphView(const Word* base, std::size_t words_per_row, std::size_t n,
            std::size_t num_edges, const std::size_t* degrees);

  [[nodiscard]] std::size_t order() const noexcept { return n_; }
  [[nodiscard]] std::size_t num_edges() const noexcept { return num_edges_; }

  /// Edge density: m / (n choose 2).
  [[nodiscard]] double density() const noexcept {
    const double n = static_cast<double>(n_);
    if (n < 2) return 0.0;
    return static_cast<double>(num_edges_) / (n * (n - 1.0) / 2.0);
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

  /// Neighbor indices of \p v in increasing order.
  [[nodiscard]] std::vector<VertexId> neighbor_list(VertexId v) const {
    return neighbors(v).to_vector();
  }

  /// All edges as (u < v) pairs in lexicographic order.
  [[nodiscard]] std::vector<std::pair<VertexId, VertexId>> edge_list() const;

 private:
  std::size_t n_ = 0;
  std::size_t num_edges_ = 0;
  std::vector<const Word*> rows_;   ///< row word pointers, one per vertex
  const std::size_t* degrees_ = nullptr;
};

}  // namespace gsb::graph

#endif  // GSB_GRAPH_GRAPH_VIEW_H
