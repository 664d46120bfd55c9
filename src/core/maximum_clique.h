#ifndef GSB_CORE_MAXIMUM_CLIQUE_H
#define GSB_CORE_MAXIMUM_CLIQUE_H

/// \file maximum_clique.h
/// Maximum clique: bounds and an exact branch-and-bound solver.
///
/// The paper (§2.1) uses maximum clique to fix the *upper* bound of the
/// enumeration window (and lists further uses: microarray threshold
/// selection, cis-regulatory elements, phylogeny).  Its preferred exact
/// route is FPT vertex cover on the complement (src/fpt); the greedy-
/// coloring-bounded branch-and-bound here is the direct alternative used to
/// cross-validate that route and to serve dense instances where the
/// complement is large.

#include <cstdint>
#include <span>
#include <vector>

#include "core/clique.h"
#include "graph/graph_view.h"

namespace gsb::core {

/// How many of g's highest-degree vertices maximum_clique(g) grows its
/// greedy lower bound from.
inline constexpr std::size_t kMaxCliqueSeeds = 8;

/// The first \p count of the vertices [0, degrees.size()) after one
/// `std::sort` of all of them by descending degree (ties in that sort's
/// order): the seeds of greedy_clique_lower_bound and maximum_clique.
std::vector<VertexId> highest_degree_vertices(
    std::span<const std::size_t> degrees, std::size_t count);

/// Greedy lower bound: grows a clique from each of the highest-degree
/// seeds; returns the best found (a valid clique, not necessarily maximum).
Clique greedy_clique_lower_bound(const graph::GraphView& g,
                                 std::size_t seeds = kMaxCliqueSeeds);

/// Greedy (Welsh–Powell) coloring upper bound: chi_greedy >= omega.
std::size_t greedy_coloring_upper_bound(const graph::GraphView& g);

/// Exact maximum clique result.
struct MaxCliqueResult {
  Clique clique;
  std::uint64_t tree_nodes = 0;
  double seconds = 0.0;
};

/// Exact maximum clique by branch-and-bound with greedy-coloring pruning
/// (Tomita-style).  Exponential worst case; effective on the sparse
/// correlation graphs this framework targets.  The search starts from the
/// greedy lower bound over g's kMaxCliqueSeeds highest-degree vertices.
MaxCliqueResult maximum_clique(const graph::GraphView& g);

/// The same search with its lower bound grown greedily from \p seeds, in
/// order (the first strictly largest clique wins).  Given the seeds
/// maximum_clique(g) would pick, it returns the same result.
MaxCliqueResult maximum_clique(const graph::GraphView& g,
                               std::span<const VertexId> seeds);

}  // namespace gsb::core

#endif  // GSB_CORE_MAXIMUM_CLIQUE_H
