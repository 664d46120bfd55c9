#ifndef GSB_CORE_PARALLEL_BK_H
#define GSB_CORE_PARALLEL_BK_H

/// \file parallel_bk.h
/// The degeneracy-ordered Bron–Kerbosch driver, for any number of workers.
/// degeneracy_bk (bron_kerbosch.h) is this driver at one worker.
///
/// Vertex v_i of the degeneracy order roots an independent subtree holding
/// exactly the maximal cliques whose earliest-ordered member is v_i, so the
/// roots partition the output.  This driver fans them out over
/// par::JobGraph:
///
///   * the degeneracy order is cut into contiguous root ranges, a fixed
///     number per worker, one job each, added in root order with no home
///     queue;
///   * a worker that drains its own queue steals unstarted ranges from
///     the other workers' queues (§2.3's transfers to "light-loaded (or
///     idle)" threads) — dense subtrees cannot serialize the run;
///   * emission goes through a reorder buffer: each range's cliques are
///     buffered until every earlier range has been emitted, so with
///     `deterministic` (the default) the sink observes root order — the
///     same sequence at every worker count.  Pending bytes are tracked
///     (MemTag::kCliqueStorage) and held to a window
///     (`reorder_window_bytes` plus in-flight ranges) by backpressure on
///     claiming, never the full output — which is what lets `gsb cliques
///     --clique-out` spill cliques to a .gsbc stream at terabyte-scale
///     outputs.
///
/// At one worker no thread pool is built: the jobs run inline on the
/// calling thread.  The sink is never invoked concurrently.

#include <cstdint>
#include <vector>

#include "core/bron_kerbosch.h"
#include "core/clique.h"
#include "graph/graph_view.h"
#include "util/memory_tracker.h"

namespace gsb::core {

/// Options for one run.
struct ParallelBkOptions {
  /// Emission size window (the search itself is unpruned, as in the
  /// classical variants).
  SizeRange range{};
  /// Worker count; 0 = hardware concurrency.
  std::size_t threads = 0;
  /// Emit cliques in root order regardless of thread count
  /// (reorder-buffer merge).  When false, each range's cliques are
  /// emitted as soon as the range completes — same clique *set*, lower
  /// latency, order dependent on scheduling.
  bool deterministic = true;
  /// Soft cap on reorder-buffer bytes awaiting emission (deterministic
  /// mode).  When pending output exceeds it, workers are redirected to
  /// claim the next-to-emit range instead of new work — or wait if that
  /// range is already running — so the merge drains instead of letting
  /// the remaining output pile up in RAM.  Peak pending can overshoot by
  /// the in-flight ranges' outputs.
  /// 0 = unbounded.
  std::size_t reorder_window_bytes = 64u << 20;
  /// Byte accounting sink; defaults to the process-global tracker.
  util::MemoryTracker* tracker = nullptr;
};

/// Scheduling and memory metrics on top of the common statistics.
struct ParallelBkStats {
  BronKerboschStats base;
  std::size_t threads = 0;
  std::size_t degeneracy = 0;      ///< of the input graph
  std::uint64_t steals = 0;        ///< range jobs stolen by an idle worker
  double total_seconds = 0.0;
  /// busy seconds per thread (CPU time inside claimed ranges).
  std::vector<double> thread_busy_seconds;
  /// High-water mark of reorder-buffer bytes awaiting emission — the
  /// quantity the bounded-output tests assert stays far below the total
  /// clique bytes.
  std::size_t peak_pending_bytes = 0;
};

/// Runs the degeneracy-ordered Bron–Kerbosch.  The clique set is the same
/// for every thread count; with options.deterministic the emission
/// *sequence* is too (degeneracy_bk's).
ParallelBkStats parallel_bk(const graph::GraphView& g,
                            const CliqueCallback& sink,
                            const ParallelBkOptions& options = {});

}  // namespace gsb::core

#endif  // GSB_CORE_PARALLEL_BK_H
