#ifndef GSB_ANALYSIS_PARACLIQUE_H
#define GSB_ANALYSIS_PARACLIQUE_H

/// \file paraclique.h
/// Paraclique extraction.
///
/// The paper motivates "cliques, paracliques and other forms of
/// densely-connected subgraphs" for separating co-variation sources in
/// expression networks: measurement noise turns true modules into
/// near-cliques, so after a maximum clique is found it is "glommed"
/// outward with vertices adjacent to almost all current members.

#include "core/clique.h"
#include "core/maximum_clique.h"
#include "graph/graph_view.h"
#include "storage/clique_stream.h"

namespace gsb::analysis {

/// Glom policy: a vertex joins when it is adjacent to at least one member
/// and misses at most `glom` members of the current paraclique.  The test
/// saturates: any glom at least the paraclique's size (up to SIZE_MAX)
/// admits every vertex adjacent to a member.
struct ParacliqueOptions {
  std::size_t glom = 1;  ///< allowed non-neighbors per joining vertex
};

/// Result of one extraction.
struct Paraclique {
  core::Clique members;       ///< sorted member vertices
  std::size_t seed_size = 0;  ///< size of the seed clique
  double density = 0.0;       ///< edge density of the induced subgraph
};

/// Grows a paraclique from \p seed_clique (assumed to be a clique of g).
///
/// Pass semantics: each pass scans the non-members in ascending vertex
/// order, and a vertex counts as a member the moment it joins.  So a
/// joiner's neighbors above the scan cursor are tested against the grown
/// set in the same pass, while those below it wait for the next pass.
/// Growth stops after a pass admits nobody.
/// A pass costs the frontier (non-members adjacent to a member) plus one
/// walk of N(u) per joining u.
Paraclique grow_paraclique(const graph::GraphView& g,
                           const core::Clique& seed_clique,
                           const ParacliqueOptions& options = {});

/// Convenience: finds a maximum clique (branch and bound) and gloms it.
Paraclique extract_paraclique(const graph::GraphView& g,
                              const ParacliqueOptions& options = {});

/// Seeds from a `.gsbc` clique stream instead of re-running maximum clique:
/// one forward pass keeps the largest streamed clique (ties: first
/// encountered) in O(1) clique memory and gloms it.  Drains the reader;
/// throws if the stream is empty.  Stream ids must live in \p g's vertex
/// namespace.
Paraclique extract_paraclique_from_stream(const graph::GraphView& g,
                                          storage::GsbcReader& stream,
                                          const ParacliqueOptions& options = {});

/// Iteratively extracts paracliques: each round gloms a maximum clique of
/// the residue (g minus the edges of earlier paracliques) and removes the
/// paraclique's edges, until the maximum clique has fewer than \p min_size
/// vertices.  A seed needs an edge, so a \p min_size below 2 acts as 2.
/// The residue holds only the vertices of g with an edge, in ascending
/// order, so g's isolated vertices change no round.  Each round's seed is
/// core::maximum_clique(residue)'s clique, found with what earlier rounds
/// proved: rounds only delete edges, so the last round's ω bounds this
/// one's and the search targets it (core::maximum_clique_from), and each
/// seed's greedy clique is kept until an edge among the seed and its
/// neighbours goes (before {u, v} is deleted, those of u, v and every
/// common neighbour of u and v are dropped).  Each round records one
/// `paraclique-round` stage span on the timeline.
/// Round 0's search is core::maximum_clique(g)'s; \p maximum, when given,
/// receives its result in g's ids (core::maximum_clique(g) without edges).
std::vector<Paraclique> extract_all_paracliques(
    const graph::GraphView& g, std::size_t min_size,
    const ParacliqueOptions& options = {},
    core::MaxCliqueResult* maximum = nullptr);

}  // namespace gsb::analysis

#endif  // GSB_ANALYSIS_PARACLIQUE_H
