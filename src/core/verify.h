#ifndef GSB_CORE_VERIFY_H
#define GSB_CORE_VERIFY_H

/// \file verify.h
/// Clique validation and a structurally independent reference enumerator.
/// Every production algorithm in this library is tested against
/// `reference_maximal_cliques`, which is written with different data
/// structures (sorted vectors, no bitmaps) precisely so that a shared bug is
/// unlikely.

#include <span>
#include <vector>

#include "core/clique.h"
#include "graph/graph.h"

namespace gsb::core {

/// True iff \p vertices are pairwise adjacent and duplicate-free.
bool is_clique(const graph::Graph& g, std::span<const VertexId> vertices);

/// True iff \p vertices form a clique that no vertex of \p g extends.
bool is_maximal_clique(const graph::Graph& g,
                       std::span<const VertexId> vertices);

/// Sorts each clique and sorts the list, for order-insensitive comparison.
std::vector<Clique> normalize(std::vector<Clique> cliques);

/// Filters to cliques whose size lies in \p range (after normalize-style
/// copying; input untouched).
std::vector<Clique> filter_by_size(const std::vector<Clique>& cliques,
                                   const SizeRange& range);

/// Independent maximal-clique enumerator (Tomita-pivoted recursion over
/// sorted neighbor intersections: plain vectors, no bitmaps).
/// Exponential; intended for test-sized graphs.
std::vector<Clique> reference_maximal_cliques(const graph::Graph& g);

/// Exhaustive subset-based enumerator for tiny graphs (n <= 20): checks all
/// 2^n subsets.  The slowest and most trustworthy oracle.
std::vector<Clique> exhaustive_maximal_cliques(const graph::Graph& g);

/// All k-cliques (maximal or not) by canonical extension; reference for the
/// k-clique enumerator.
std::vector<Clique> reference_kcliques(const graph::Graph& g, std::size_t k);

}  // namespace gsb::core

#endif  // GSB_CORE_VERIFY_H
