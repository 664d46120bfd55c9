#ifndef GSB_CORE_PARALLEL_ENUMERATOR_H
#define GSB_CORE_PARALLEL_ENUMERATOR_H

/// \file parallel_enumerator.h
/// The Clique Enumerator's one driver (§2.3), for any number of workers on
/// a shared-memory machine.  enumerate_maximal_cliques is this driver at
/// one worker.
///
/// Structure, per the paper:
///   * threads are synchronized level-by-level so cliques are still emitted
///     in non-decreasing order of size;
///   * a sub-list is an independent unit of work, and the sub-lists live
///     in shared memory, so work moves between threads by address, never
///     by copy;
///   * the seeding phase (k-clique enumeration at Init_K) is parallelized
///     over the canonical seed pairs (or roots at Init_K = 2).
///
/// Each round — seeding, then one per level — is one par::JobGraph run
/// over contiguous task ranges: seed pairs, then runs of the previous
/// level's sub-lists.  Ranges are sized from the round's task count and
/// worker count, and idle workers steal unstarted ranges (the runtime
/// form of §2.3's transfers to "light-loaded (or idle)" threads).  Each
/// job writes its cliques, child sub-lists and counters to its own slot;
/// the calling thread drains the slots in job order between rounds.  The
/// next level is the list of those chunks, so nothing merges per
/// sub-list, and the emission sequence — by size, then lexicographically
/// — is the same at every thread count.  The paper's centralized plan-time
/// balancer (altix::LoadBalancer, src/altix/load_balancer.h) plans only the
/// Altix machine-model replay.

#include "core/clique.h"
#include "core/clique_enumerator.h"
#include "core/enumeration_stats.h"
#include "graph/graph_view.h"

namespace gsb::core {

/// Options for the multithreaded run: the Clique Enumerator's options
/// plus the schedule.
struct ParallelOptions : CliqueEnumeratorOptions {
  /// Worker count; 0 = hardware concurrency.
  std::size_t threads = 0;
  /// Runtime transfers: idle workers steal unstarted range jobs from other
  /// workers' queues (par::JobGraph::Options::steal).  Disable to measure
  /// the static-plan-only ablation, where ranges are dealt round-robin.
  bool dynamic_claiming = true;
};

/// Per-thread / scheduling metrics on top of the common statistics.
struct ParallelEnumerationStats {
  EnumerationStats base;
  std::size_t threads = 0;
  /// busy seconds per thread for the seeding round.
  std::vector<double> seed_thread_seconds;
  /// busy seconds per thread per level: [level][thread].
  std::vector<std::vector<double>> level_thread_seconds;
  /// total busy seconds per thread (seed + levels) — Figure 8's quantity.
  std::vector<double> thread_busy_seconds;
  /// range jobs stolen by an idle worker, summed over seeding and levels.
  std::uint64_t total_transfers = 0;
};

/// Runs the multithreaded Clique Enumerator.  Cliques are streamed to
/// \p sink on the calling thread, between levels, never concurrently, and
/// in the same sequence at every thread count.
ParallelEnumerationStats enumerate_maximal_cliques_parallel(
    const graph::GraphView& g, const CliqueCallback& sink,
    const ParallelOptions& options = {});

}  // namespace gsb::core

#endif  // GSB_CORE_PARALLEL_ENUMERATOR_H
