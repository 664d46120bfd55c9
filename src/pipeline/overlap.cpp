#include "pipeline/overlap.h"

#include <algorithm>
#include <functional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/parallel_bk.h"
#include "graph/transforms.h"
#include "parallel/thread_pool.h"
#include "storage/clique_sort.h"
#include "util/timer.h"

namespace gsb::pipeline {

namespace {

/// Touches one word per page of the container's CSR sections so the
/// kernel faults them in while the compute stages start on whatever is
/// already resident.  Returns the bytes walked.
std::uint64_t prefetch_container(const storage::MappedGraph& mapped) {
  constexpr std::size_t kPage = 4096;
  std::uint64_t sink = 0;
  std::uint64_t bytes = 0;
  const auto offsets = mapped.csr_offsets();
  for (std::size_t i = 0; i < offsets.size(); i += kPage / sizeof(offsets[0])) {
    sink += offsets[i];
  }
  bytes += offsets.size_bytes();
  const auto targets = mapped.csr_targets();
  for (std::size_t i = 0; i < targets.size(); i += kPage / sizeof(targets[0])) {
    sink += targets[i];
  }
  bytes += targets.size_bytes();
  // The sum is unused; keep the loads observable so they are not elided.
  asm volatile("" : : "r"(sink));
  return bytes;
}

}  // namespace

AnalysisResult run_analysis(const graph::GraphView& g,
                            const AnalysisOptions& options) {
  util::Timer timer;
  AnalysisResult result;
  result.streamed = !options.clique_out.empty();

  // Three stages, at most three runnable at once with the prefetch job;
  // the enumeration stage parallelizes internally with its own worker
  // team, so the scheduler pool only needs enough workers to keep the
  // independent stages and the prefetch job concurrent.  Clamped to the
  // hardware unless the caller asked for a thread count explicitly (an
  // explicit request opts into oversubscription, like every other
  // --threads site): with a single core and no request, stage overlap is
  // pure oversubscription, and a one-worker pool takes JobGraph's inline
  // path — identical to staged.
  const std::size_t parallelism =
      options.threads != 0
          ? options.threads
          : std::max<std::size_t>(1, std::thread::hardware_concurrency());
  const std::size_t stage_workers =
      options.overlap ? std::min<std::size_t>(3, parallelism) : 1;
  par::ThreadPool pool(stage_workers);
  par::JobGraph graph(options.overlap && stage_workers > 1 ? &pool : nullptr);

  // Stage jobs carry timeline labels so a --trace-out capture shows the
  // overlap schedule as named lanes (prefetch visible against compute).
  const auto add_stage = [&graph](std::string label,
                                  std::function<void(std::size_t)> body) {
    par::JobGraph::JobSpec spec;
    spec.run = std::move(body);
    spec.label = std::move(label);
    return graph.add(std::move(spec));
  };

  if (options.prefetch != nullptr && options.prefetch->is_open()) {
    const storage::MappedGraph* mapped = options.prefetch;
    add_stage("prefetch", [&result, mapped](std::size_t) {
      result.prefetched_bytes = prefetch_container(*mapped);
    });
  }

  const par::JobId enum_job = add_stage(
      "enumeration", [&result, &g, &options](std::size_t) {
    // BK over the (Init_K-1)-core finds exactly the maximal cliques of g
    // in the window (the argument CliqueEnumeratorOptions::use_kcore
    // documents); the core's ascending id mapping keeps lex order, so
    // sorting in core ids gives the enumerator's emission sequence.
    const std::size_t lo = std::max<std::size_t>(options.range.lo, 1);
    graph::InducedSubgraph kcore;
    if (lo > 1) kcore = graph::kcore_subgraph(g, lo - 1);
    const bool reduced = lo > 1 && kcore.graph.order() < g.order();
    const graph::GraphView work = reduced ? graph::GraphView(kcore.graph) : g;
    core::ParallelBkOptions bk;
    bk.range = options.range;
    bk.threads = options.threads;
    bk.deterministic = false;  // completion order: the sort fixes it

    if (!result.streamed) {
      core::CliqueCollector collector;
      result.enumeration = core::parallel_bk(work, collector.callback(), bk);
      result.cliques = std::move(collector.cliques());
      for (core::Clique& clique : result.cliques) {
        std::sort(clique.begin(), clique.end());
        if (reduced) {
          for (auto& v : clique) v = kcore.mapping[v];
        }
      }
      std::sort(result.cliques.begin(), result.cliques.end(),
                [](const core::Clique& a, const core::Clique& b) {
                  return storage::emission_less(a, b);
                });
      result.spectrum = analysis::clique_spectrum(result.cliques);
      return;
    }
    storage::GsbcWriter writer(options.clique_out, g.order());
    storage::CliqueSorter sorter(work.order(), options.clique_out);
    result.enumeration = core::parallel_bk(
        work,
        [&sorter](std::span<const graph::VertexId> clique) {
          sorter.add(clique);
        },
        bk);
    result.participation.assign(g.order(), 0);
    std::vector<graph::VertexId> members;
    result.sorted = sorter.finish([&](std::span<const graph::VertexId> clique) {
      members.assign(clique.begin(), clique.end());
      for (auto& v : members) {
        if (reduced) v = kcore.mapping[v];
        ++result.participation[v];
      }
      result.spectrum.add(members.size());
      if (options.original_id) {
        for (auto& v : members) v = options.original_id(v);
      }
      writer.append(members);
    });
    result.stream = writer.close();
    result.spectrum.finalize();
  });

  add_stage("paracliques", [&result, &g, &options](std::size_t) {
    analysis::ParacliqueOptions para;
    para.glom = options.glom;
    result.paracliques = analysis::extract_all_paracliques(
        g, options.min_paraclique, para, &result.maximum);
  });

  par::JobGraph::JobSpec hubs;
  hubs.label = "hubs";
  hubs.deps = {enum_job};
  hubs.run = [&result, &g, &options](std::size_t) {
    result.hubs = result.streamed
                      ? analysis::top_hubs(g, result.participation,
                                           options.hub_count)
                      : analysis::top_hubs(g, result.cliques,
                                           options.hub_count);
  };
  graph.add(std::move(hubs));

  graph.run();
  result.sched = graph.stats();
  result.seconds = timer.seconds();
  return result;
}

}  // namespace gsb::pipeline
