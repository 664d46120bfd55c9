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

/// The first \p count of the vertices [0, degrees.size()) in the order
/// (degree descending, id ascending), selected with one
/// `std::partial_sort`: the seeds of greedy_clique_lower_bound and
/// maximum_clique.  The order is total, so the seeds do not depend on the
/// standard library's sort.
std::vector<VertexId> highest_degree_vertices(
    std::span<const std::size_t> degrees, std::size_t count);

/// Greedy lower bound: grows a clique from each of the highest-degree
/// seeds, in order, by repeatedly adding the candidate with the most
/// neighbours among the candidates (ties: lowest id); returns the first
/// strictly largest (a valid clique, not necessarily maximum).  Each seed's
/// neighbourhood is re-indexed into ⌈deg/64⌉-word local rows first.
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
///
/// Only the root colours g's n-bit rows.  Each root branch v re-indexes its
/// candidates (N(v) minus the root vertices already expanded) into
/// ascending local ids with ⌈k/64⌉-word rows, k <= deg(v), and every node
/// below it colours, branches and prunes on those rows.  Local ids are
/// monotone in g's ids, so the search visits the same tree (`tree_nodes`)
/// and returns the same clique as one that ran every node on n-bit rows;
/// of several maximum cliques it returns the first found.
MaxCliqueResult maximum_clique(const graph::GraphView& g);

}  // namespace gsb::core

#endif  // GSB_CORE_MAXIMUM_CLIQUE_H
