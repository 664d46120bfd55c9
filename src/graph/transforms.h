#ifndef GSB_GRAPH_TRANSFORMS_H
#define GSB_GRAPH_TRANSFORMS_H

/// \file transforms.h
/// Structural graph transformations used across the framework:
///   * complement        — the clique ↔ vertex-cover / independent-set bridge
///                         exploited by the FPT maximum-clique route (§2.1);
///   * core decomposition — the paper's §2.2 preprocessing ("eliminate all
///                         vertices of degree less than k-1", iterated) and
///                         Bron–Kerbosch's root order, from one peel;
///   * induced subgraphs, connected components, relabeling.

#include <cstdint>
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

/// The core decomposition: one peel removes a vertex of least degree at a
/// time, the one filed last at that degree (filed in ascending id order,
/// then whenever a removal lowers its degree); `core[v]` is the largest
/// degree at removal up to v's.  It reads for_each_neighbor, so a mapped
/// view peels in O(n + m) over CSR, in the in-memory graph's order.
struct CoreDecomposition {
  std::vector<VertexId> order;      ///< removal order
  std::vector<std::uint32_t> core;  ///< core number of each vertex
  std::size_t degeneracy = 0;       ///< the largest core number
};
CoreDecomposition core_decomposition(const GraphView& g);

/// The k-core, {v : core[v] >= k}: the same peel, stopped once the least
/// degree left reaches k.  For k-clique search pass k-1 per the paper's
/// rule: a vertex of a k-clique has at least k-1 neighbors in the clique.
bits::DynamicBitset kcore_mask(const GraphView& g, std::size_t k);

/// The k-core as a reduced graph (may be empty).
InducedSubgraph kcore_subgraph(const GraphView& g, std::size_t k);

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
