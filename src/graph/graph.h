#ifndef GSB_GRAPH_GRAPH_H
#define GSB_GRAPH_GRAPH_H

/// \file graph.h
/// Undirected graph with bitmap adjacency — the data representation the
/// paper builds its framework on.
///
/// Each vertex stores its neighborhood as a DynamicBitset over the full
/// vertex universe, so that
///   * adjacency tests are single bit probes,
///   * common-neighbor computations are word-parallel ANDs, and
///   * the structures are directly sharable across threads (read-only during
///     enumeration, mirroring the paper's globally addressable memory usage).
///
/// For an n-vertex graph this costs n * ceil(n/64) * 8 bytes; at the paper's
/// largest instance (n = 12,422) that is ~19 MB, trivially in-core.

#include <cstdint>
#include <vector>

#include "bitset/dynamic_bitset.h"

namespace gsb::graph {

using VertexId = std::uint32_t;

/// Edge density of \p edges edges on \p order vertices: m / (n choose 2),
/// 0 below two vertices.
inline double edge_density(std::size_t order, std::size_t edges) noexcept {
  const double n = static_cast<double>(order);
  if (n < 2) return 0.0;
  return static_cast<double>(edges) / (n * (n - 1.0) / 2.0);
}

/// Simple undirected graph (no self-loops, no multi-edges).
class Graph {
 public:
  /// Empty graph on \p n vertices.
  explicit Graph(std::size_t n = 0);

  /// Builds a graph from an explicit edge list (duplicates and self-loops
  /// are ignored).
  static Graph from_edges(std::size_t n,
                          const std::vector<std::pair<VertexId, VertexId>>& edges);

  /// Number of vertices.
  [[nodiscard]] std::size_t order() const noexcept { return rows_.size(); }

  /// Number of edges.
  [[nodiscard]] std::size_t num_edges() const noexcept { return num_edges_; }

  /// Edge density: m / (n choose 2).
  [[nodiscard]] double density() const noexcept;

  /// Inserts edge {u, v}.  No-op for self-loops or existing edges.
  void add_edge(VertexId u, VertexId v);

  /// Removes edge {u, v} if present.
  void remove_edge(VertexId u, VertexId v);

  /// Adjacency test (single bit probe).
  [[nodiscard]] bool has_edge(VertexId u, VertexId v) const noexcept {
    return rows_[u].test(v);
  }

  /// The neighborhood bit string N(v) — the operand of the paper's bitwise
  /// common-neighbor updates.
  [[nodiscard]] const bits::DynamicBitset& neighbors(VertexId v) const noexcept {
    return rows_[v];
  }

  /// Degree of \p v.
  [[nodiscard]] std::size_t degree(VertexId v) const noexcept {
    return degrees_[v];
  }

  /// Flat degree array (n entries) — the backing store GraphView borrows.
  [[nodiscard]] const std::size_t* degrees_data() const noexcept {
    return degrees_.data();
  }

  /// Maximum degree over all vertices (0 for the empty graph).
  [[nodiscard]] std::size_t max_degree() const noexcept;

  /// Neighbor indices of \p v in increasing order.
  [[nodiscard]] std::vector<VertexId> neighbor_list(VertexId v) const;

  /// All edges as (u < v) pairs in lexicographic order.
  [[nodiscard]] std::vector<std::pair<VertexId, VertexId>> edge_list() const;

  /// Structural equality (same order, same edge set).
  bool operator==(const Graph& other) const noexcept;

  /// Bytes used by the adjacency bitmaps.
  [[nodiscard]] std::size_t adjacency_bytes() const noexcept;

 private:
  std::vector<bits::DynamicBitset> rows_;
  std::vector<std::size_t> degrees_;
  std::size_t num_edges_ = 0;
};

}  // namespace gsb::graph

#endif  // GSB_GRAPH_GRAPH_H
