#ifndef GSB_PIPELINE_OVERLAP_H
#define GSB_PIPELINE_OVERLAP_H

/// \file overlap.h
/// Overlapped execution of the pipeline's analysis stages.
///
/// `gsb pipeline` historically ran maximum clique -> enumeration ->
/// paraclique -> hubs strictly in sequence, although only the hub
/// report actually consumes the enumeration's output.  This runner
/// expresses the stages as a par::JobGraph: the enumeration sweep and
/// paraclique extraction execute concurrently, an optional prefetch job
/// walks the mapped .gsbg container so page-in hides behind compute, and
/// the hub ranking is released the moment the enumeration finishes.  The
/// maximum clique is the extraction's first round, searched once.
///
/// The enumeration stage produces the paper's Clique Enumerator output —
/// the maximal cliques in the size window, by size, then lexicographically
/// by member ids in the view's id space — from an output-sensitive engine:
/// parallel Bron–Kerbosch over the (Init_K−1)-core, which holds every
/// maximal clique of size >= Init_K and every witness to its maximality.
/// Its completion-order output goes through storage::CliqueSorter (sorted
/// in memory under a fixed budget, spilled as sorted runs past it), so
/// collected cliques and the .gsbc stream equal the enumerator's byte for
/// byte.  `gsb cliques --engine enumerator` still runs the paper's engine.
///
/// Determinism: the sort fixes the emission order whatever the schedule,
/// and stages only share the read-only graph view, so results — and the
/// .gsbc stream — are byte-identical at any thread count, staged or
/// overlapped.  With `overlap = false` (or no pool) the same jobs execute
/// inline in submission order, which *is* the staged pipeline;
/// bench_pipeline compares the two modes.

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "analysis/clique_stats.h"
#include "analysis/hubs.h"
#include "analysis/paraclique.h"
#include "core/clique.h"
#include "core/maximum_clique.h"
#include "core/parallel_bk.h"
#include "parallel/job_graph.h"
#include "storage/clique_sort.h"
#include "storage/clique_stream.h"
#include "storage/mapped_graph.h"

namespace gsb::pipeline {

struct AnalysisOptions {
  /// Enumeration size window (CLI --init-k/--max-k).
  core::SizeRange range{4, 0};
  /// Worker threads for the enumeration stage itself (0 = cores,
  /// 1 = one worker) — same meaning as --threads.
  std::size_t threads = 0;
  std::size_t glom = 1;
  std::size_t min_paraclique = 5;
  std::size_t hub_count = 10;
  /// Non-empty: stream cliques to this .gsbc instead of collecting.
  /// Sorted runs past the sort budget are spilled next to it, as
  /// `<clique_out>.run<i>.tmp.<pid>`.
  std::string clique_out;
  /// Stored-id -> original-label mapping for the .gsbc stream (null =
  /// identity; degree-sorted containers pass their permutation).
  std::function<graph::VertexId(graph::VertexId)> original_id;
  /// When set, an async job touches the container's pages ahead of the
  /// compute stages (no-op for in-memory graphs).
  const storage::MappedGraph* prefetch = nullptr;
  /// true: stages overlap on a scheduler pool; false: same jobs run
  /// inline in submission order (the staged baseline).
  bool overlap = true;
};

struct AnalysisResult {
  /// core::maximum_clique(g)'s result, from paraclique round 0's search.
  core::MaxCliqueResult maximum;
  /// The Bron–Kerbosch run over the (Init_K−1)-core.  Its
  /// `base.maximal_cliques` also counts the core's maximal cliques below
  /// the window; `spectrum.total` is the number emitted.
  core::ParallelBkStats enumeration;
  /// Collected cliques (empty when streamed to .gsbc).
  std::vector<core::Clique> cliques;
  /// Per-vertex clique participation (filled on the streamed path).
  std::vector<std::uint32_t> participation;
  analysis::CliqueSpectrum spectrum;
  storage::GsbcWriteStats stream;  ///< valid when `streamed`
  storage::CliqueSortStats sorted;  ///< valid when `streamed`
  bool streamed = false;
  std::vector<analysis::Paraclique> paracliques;
  std::vector<analysis::HubReport> hubs;
  std::uint64_t prefetched_bytes = 0;
  /// Scheduler counters for this run — the single source of truth the
  /// pipeline report and `gsb serve --metrics` both quote.
  par::JobGraphStats sched;
  double seconds = 0.0;
};

/// Runs maximum clique, bounded enumeration, paraclique extraction and
/// hub ranking over \p g per \p options.  Throws on I/O failure of the
/// .gsbc writer; any stage failure cancels the remaining stages.
AnalysisResult run_analysis(const graph::GraphView& g,
                            const AnalysisOptions& options);

}  // namespace gsb::pipeline

#endif  // GSB_PIPELINE_OVERLAP_H
