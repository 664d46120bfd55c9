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

/// The greedy clique of one seed, sorted: starting from {seed}, repeatedly
/// adds the candidate with the most neighbours among the candidates (ties:
/// lowest id), on the seed's neighbourhood re-indexed into ⌈deg/64⌉-word
/// local rows.  It depends only on the subgraph induced by the seed and its
/// neighbours, so it stays valid until an edge inside that set goes.
Clique greedy_clique(const graph::GraphView& g, VertexId seed);

/// Greedy lower bound: the first strictly largest greedy_clique over the
/// \p seeds highest-degree vertices, in highest_degree_vertices order (a
/// valid clique, not necessarily maximum).
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
/// and returns the same clique as one that ran every node on n-bit rows:
/// the greedy bound when no clique beats it, otherwise the first maximum
/// clique in colour order.
MaxCliqueResult maximum_clique(const graph::GraphView& g);

/// The \p omega_bound of a caller that knows no upper bound on ω.
inline constexpr std::size_t kUnknownOmega = SIZE_MAX;

/// maximum_clique(g)'s clique, searched from a lower bound the caller
/// already holds and, when it knows one, below an upper bound on ω.
/// \p lower must be greedy_clique_lower_bound(g) (a caller that keeps each
/// seed's greedy_clique may rebuild it by the same first-strictly-largest
/// rule) and \p omega_bound at least ω(g).
///
/// With kUnknownOmega this is maximum_clique(g)'s search.  With a bound t
/// it targets t: it prunes where |R| + colour <= max(|best|, t - 1), stops
/// at the first clique of t vertices, and retries at t - 1 only once a run
/// has found none; when the target reaches |lower| it returns \p lower.
/// The answer is unchanged: the untargeted search returns \p lower when
/// that is maximum, and otherwise the first ω-clique in colour order, and
/// every node on the path to that clique has |R| + colour >= ω, so no prune
/// below ω cuts it and a run at target ω reaches it first.  `tree_nodes`
/// sums the runs.
MaxCliqueResult maximum_clique_from(const graph::GraphView& g, Clique lower,
                                    std::size_t omega_bound = kUnknownOmega);

}  // namespace gsb::core

#endif  // GSB_CORE_MAXIMUM_CLIQUE_H
