#ifndef GSB_CORE_CLIQUE_ENUMERATOR_H
#define GSB_CORE_CLIQUE_ENUMERATOR_H

/// \file clique_enumerator.h
/// **Clique Enumerator** — the paper's novel maximal-clique enumeration
/// algorithm (§2.3).
///
/// Properties (all per the paper):
///   * emits maximal cliques in **non-decreasing order of size**, so a run
///     can be bounded by a size range [Init_K, upper] and its progress
///     tracked level by level;
///   * stores only *candidate* k-cliques, factorized into sub-lists that
///     share a (k−1)-clique prefix (see sublist.h), deleting each sub-list
///     as soon as its (k+1)-cliques have been generated;
///   * decides maximality with one bitwise-AND + any-bit test on
///     common-neighbor bit strings;
///   * partitions naturally into independent per-sub-list tasks, which
///     the one driver (parallel_enumerator.h) runs as range jobs on any
///     number of workers.
///
/// The run is seeded either from the edge list (Init_K ≤ 2) or by the §2.2
/// k-clique enumerator at Init_K ≥ 3, after the degree-based preprocessing
/// (vertices that cannot belong to an Init_K-clique are peeled off).

#include <functional>

#include "core/clique.h"
#include "core/enumeration_stats.h"
#include "graph/graph_view.h"
#include "util/memory_tracker.h"

namespace gsb::core {

/// Tuning and instrumentation options for a Clique Enumerator run.
struct CliqueEnumeratorOptions {
  /// Size window: `range.lo` is the paper's Init_K; `range.hi` the upper
  /// bound (0 = enumerate to the maximum clique).
  SizeRange range{3, 0};

  /// Apply iterated (Init_K−1)-core peeling before enumeration (§2.2's
  /// degree preprocessing, iterated to a fixed point).  Exact: removed
  /// vertices can neither join nor witness non-maximality of any clique of
  /// size ≥ Init_K.
  bool use_kcore = true;

  /// Record per-sub-list costs for the Altix machine-model replays.
  bool record_trace = false;

  /// Byte accounting sink; defaults to the process-global tracker.
  util::MemoryTracker* tracker = nullptr;

  /// Invoked after each level with that level's statistics.
  std::function<void(const LevelStats&)> progress;
};

/// Runs the Clique Enumerator over \p g on one worker, streaming every
/// maximal clique with size in the option range to \p sink (vertex ids are
/// in g's namespace, sorted ascending) in non-decreasing size order, then
/// lexicographically.  This is enumerate_maximal_cliques_parallel with
/// `threads = 1`, so its cliques, order and statistics are the
/// multithreaded run's at every thread count.  \p g is a GraphView, so the
/// run works identically over an in-memory Graph (implicit conversion) or
/// a memory-mapped .gsbg adjacency (storage::MappedGraph::view()).
EnumerationStats enumerate_maximal_cliques(const graph::GraphView& g,
                                           const CliqueCallback& sink,
                                           const CliqueEnumeratorOptions&
                                               options = {});

}  // namespace gsb::core

#endif  // GSB_CORE_CLIQUE_ENUMERATOR_H
