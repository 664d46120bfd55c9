#ifndef GSB_GRAPH_TRANSFORMS_H
#define GSB_GRAPH_TRANSFORMS_H

/// \file transforms.h
/// Structural graph transformations used across the framework:
///   * complement        — the clique ↔ vertex-cover / independent-set bridge
///                         exploited by the FPT maximum-clique route (§2.1);
///   * k-core reduction  — the paper's §2.2 preprocessing ("eliminate all
///                         vertices of degree less than k-1"), iterated to a
///                         fixed point;
///   * induced subgraphs, connected components, degeneracy order, relabeling.

#include <vector>

#include "bitset/dynamic_bitset.h"
#include "graph/graph.h"
#include "graph/graph_view.h"

namespace gsb::graph {

/// Complement graph (no self-loops).
Graph complement(const Graph& g);

/// Subgraph induced by \p vertices (need not be sorted; duplicates ignored).
/// `mapping[i]` gives the original id of new vertex i (sorted ascending).
/// Each member's higher neighbours (GraphView::for_each_neighbor from the
/// member on) are tested against a mask of the set and each hit ranked
/// into a local id: O(Σ deg) over a view's CSR lists, plus the row's words
/// from the member's own on over rows.
struct InducedSubgraph {
  Graph graph;
  std::vector<VertexId> mapping;  ///< new id -> original id
};
InducedSubgraph induced_subgraph(const GraphView& g,
                                 const std::vector<VertexId>& vertices);

/// The vertices of degree at least 1, ascending.
std::vector<VertexId> vertices_with_edges(const GraphView& g);

/// Vertices surviving iterated peeling of vertices with degree < k
/// (the k-core).  For k-clique search pass k-1 per the paper's rule: a
/// vertex of a k-clique has at least k-1 neighbors *within the clique*.
/// Peels through GraphView::for_each_neighbor: O(n + m) over a view's CSR
/// lists, reading no bitmap row.
bits::DynamicBitset kcore_mask(const GraphView& g, std::size_t k);

/// The k-core as a reduced graph (may be empty).
InducedSubgraph kcore_subgraph(const GraphView& g, std::size_t k);

/// Degeneracy ordering (repeatedly remove a minimum-degree vertex).
/// Accepts any GraphView, so the ordering can be computed directly off a
/// memory-mapped .gsbg (the degeneracy-ordered Bron–Kerbosch outer loop
/// depends on this); like kcore_mask it reads neighbours through
/// for_each_neighbor, in ascending order from lists and rows alike, so the
/// order is the same from both.
struct DegeneracyResult {
  std::vector<VertexId> order;  ///< removal order
  std::size_t degeneracy = 0;   ///< max degree at removal time
};
DegeneracyResult degeneracy_order(const GraphView& g);

/// Connected components: `component[v]` in [0, count).
struct Components {
  std::vector<std::uint32_t> component;
  std::size_t count = 0;
};
Components connected_components(const Graph& g);

/// Relabels vertices: new vertex i is old `perm[i]`.  `perm` must be a
/// permutation of [0, n).
Graph relabel(const Graph& g, const std::vector<VertexId>& perm);

}  // namespace gsb::graph

#endif  // GSB_GRAPH_TRANSFORMS_H
