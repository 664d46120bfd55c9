#ifndef GSB_CORE_BRON_KERBOSCH_H
#define GSB_CORE_BRON_KERBOSCH_H

/// \file bron_kerbosch.h
/// The recursive-backtracking maximal-clique enumerators the paper uses as
/// baselines (§2.2, [40]), plus the modern degeneracy-ordered variant that
/// serves as the scalable speed baseline:
///
///  * **Base BK** — Bron & Kerbosch's Algorithm 457, version 1: EXTEND
///    selects candidates in presentation order.
///  * **Improved BK** — version 2: the selected vertex is chosen with the
///    highest number of connections to the remaining CANDIDATES, and after
///    returning from a branch only vertices *not* adjacent to that pivot are
///    selected, which prunes re-discovery of overlapping cliques.
///  * **Degeneracy BK** — the outer loop visits vertices in degeneracy
///    order (graph::core_decomposition); vertex v roots an independent
///    subtree whose CANDIDATES are v's later-ordered neighbors and whose
///    NOT set its earlier-ordered ones, searched with max-candidate
///    pivoting over CANDIDATES ∪ NOT.  The deepest candidate set is
///    bounded by the degeneracy.  degeneracy_bk is parallel_bk
///    (parallel_bk.h) at one worker: the independent roots run as
///    contiguous range jobs, and the cliques come out in root order.
///
/// All variants maintain the three dynamically changing sets of the paper's
/// description — COMPSUB (the clique in progress), CANDIDATES and NOT — as
/// bitmap sets so the intersections are word-parallel.  Every variant
/// consumes a graph::GraphView, so they run identically over an in-memory
/// graph::Graph (implicit conversion) and over the bitmap section of a
/// memory-mapped .gsbg container.  None emits in the paper's non-decreasing
/// size order (that is the Clique Enumerator's job); they are the
/// correctness yardstick and the speed baseline.

#include <cstdint>

#include "core/clique.h"
#include "graph/graph_view.h"

namespace gsb::core {

/// Statistics returned by any variant.
struct BronKerboschStats {
  /// Maximal cliques found, inside the size window or not (the window
  /// filters emission only); count the sink's calls for those emitted.
  std::uint64_t maximal_cliques = 0;
  std::uint64_t tree_nodes = 0;       ///< EXTEND invocations
  std::size_t max_depth = 0;          ///< deepest COMPSUB
};

enum class BronKerboschVariant {
  kBase,       ///< version 1: candidates in presentation order
  kImproved,   ///< version 2: pivot on max-connectivity candidate
  kDegeneracy  ///< degeneracy-ordered roots + max-candidate pivoting
};

/// Enumerates all maximal cliques of \p g, streaming each to \p sink.
/// Optionally restricts emission to sizes in \p range (the search itself is
/// unpruned — BK cannot bound by size without losing maximality witnesses,
/// which is exactly the motivation for the paper's k-clique seeding).
BronKerboschStats bron_kerbosch(const graph::GraphView& g,
                                const CliqueCallback& sink,
                                BronKerboschVariant variant,
                                const SizeRange& range = {});

/// Convenience wrappers.
BronKerboschStats base_bk(const graph::GraphView& g,
                          const CliqueCallback& sink,
                          const SizeRange& range = {});
BronKerboschStats improved_bk(const graph::GraphView& g,
                              const CliqueCallback& sink,
                              const SizeRange& range = {});
/// parallel_bk at one worker, in its deterministic (root) order.
BronKerboschStats degeneracy_bk(const graph::GraphView& g,
                                const CliqueCallback& sink,
                                const SizeRange& range = {});

}  // namespace gsb::core

#endif  // GSB_CORE_BRON_KERBOSCH_H
