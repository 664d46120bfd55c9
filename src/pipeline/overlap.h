#ifndef GSB_PIPELINE_OVERLAP_H
#define GSB_PIPELINE_OVERLAP_H

/// \file overlap.h
/// Overlapped execution of the pipeline's analysis stages.
///
/// `gsb pipeline` historically ran maximum clique -> enumeration ->
/// paraclique -> hubs strictly in sequence, although only the hub
/// report actually consumes the enumeration's output.  This runner
/// expresses the stages as a par::JobGraph: maximum clique, the
/// enumeration sweep, and paraclique extraction execute concurrently,
/// an optional prefetch job walks the mapped .gsbg container so page-in
/// hides behind compute, and the hub ranking is released the moment the
/// enumeration finishes.
///
/// Determinism: every stage runs the same code as the staged pipeline,
/// and stages only share the read-only graph view, so results — and the
/// .gsbc stream written by the enumeration job — are byte-identical to
/// a staged run at any thread count.  With `overlap = false` (or no
/// pool) the same jobs execute inline in submission order, which *is*
/// the staged pipeline; bench_pipeline compares the two modes.

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "analysis/clique_stats.h"
#include "analysis/hubs.h"
#include "analysis/paraclique.h"
#include "core/clique.h"
#include "core/enumeration_stats.h"
#include "core/maximum_clique.h"
#include "parallel/job_graph.h"
#include "storage/clique_stream.h"
#include "storage/mapped_graph.h"

namespace gsb::pipeline {

struct AnalysisOptions {
  /// Enumeration size window (CLI --init-k/--max-k).
  core::SizeRange range{4, 0};
  /// Worker threads for the enumeration sweep itself (0 = cores,
  /// 1 = one worker) — same meaning as --threads.
  std::size_t threads = 0;
  std::size_t glom = 1;
  std::size_t min_paraclique = 5;
  std::size_t hub_count = 10;
  /// Non-empty: stream cliques to this .gsbc instead of collecting.
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
  core::MaxCliqueResult maximum;
  core::EnumerationStats enumeration;
  /// Collected cliques (empty when streamed to .gsbc).
  std::vector<core::Clique> cliques;
  /// Per-vertex clique participation (filled on the streamed path).
  std::vector<std::uint32_t> participation;
  analysis::CliqueSpectrum spectrum;
  storage::GsbcWriteStats stream;  ///< valid when `streamed`
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
