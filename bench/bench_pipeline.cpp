// End-to-end pipeline benchmarks (google-benchmark): staged vs
// overlapped execution of the analysis stages, per ROADMAP ("measure
// end-to-end pipeline wall-clock, not per-stage").  Run via the
// `bench_pipeline_json` target to emit BENCH_pipeline.json, the
// artifact CI uploads and checks for overlapped <= staged.
//
//   * staged: maximum clique -> enumeration -> paraclique -> hubs run
//     strictly in sequence (the pre-scheduler `gsb pipeline` shape);
//   * overlapped: the same stages as a par::JobGraph — independent
//     stages run concurrently, hubs release the moment enumeration
//     finishes, and a prefetch job pages the .gsbg container in behind
//     compute;
//   * both again with the .gsbc spill path, whose stream must stay
//     byte-identical between modes (scheduler_test and the robustness
//     chaos suite assert that; here it is the I/O-heavy variant);
//   * the paraclique stage alone, on a wide sparse graph shaped like the
//     out-of-core co-expression run, where its per-round cost dominates.

#include <benchmark/benchmark.h>

#include <chrono>
#include <filesystem>
#include <string>

#include "analysis/paraclique.h"
#include "graph/generators.h"
#include "graph/graph_view.h"
#include "obs/timeline.h"
#include "pipeline/overlap.h"
#include "storage/gsbg_writer.h"
#include "storage/mapped_graph.h"
#include "util/rng.h"

namespace {

namespace fs = std::filesystem;

struct Fixture {
  gsb::graph::Graph graph;
  std::string gsbg_path;
  std::string gsbc_path;

  Fixture() {
    gsb::util::Rng rng(2005);
    gsb::graph::ModuleGraphConfig config;
    config.n = 1800;
    config.num_modules = 200;
    config.max_module_size = 16;
    config.overlap = 0.3;
    graph = gsb::graph::planted_modules(config, rng).graph;
    gsbg_path = (fs::temp_directory_path() / "bench_pipeline.gsbg").string();
    gsbc_path = (fs::temp_directory_path() / "bench_pipeline.gsbc").string();
    gsb::storage::write_gsbg_file(graph, gsbg_path);
  }
  ~Fixture() {
    std::error_code ec;
    fs::remove(gsbg_path, ec);
    fs::remove(gsbc_path, ec);
  }
};

const Fixture& fixture() {
  static Fixture f;
  return f;
}

gsb::pipeline::AnalysisOptions base_options(std::size_t threads,
                                            bool overlap) {
  gsb::pipeline::AnalysisOptions options;
  options.range = gsb::core::SizeRange{4, 0};
  options.threads = threads;
  options.overlap = overlap;
  return options;
}

void run_analysis_bench(benchmark::State& state, bool overlap,
                        bool spill) {
  const gsb::graph::GraphView g(fixture().graph);
  const auto threads = static_cast<std::size_t>(state.range(0));
  std::uint64_t cliques = 0;
  std::uint64_t steals = 0;
  for (auto _ : state) {
    auto options = base_options(threads, overlap);
    if (spill) options.clique_out = fixture().gsbc_path;
    const auto result = gsb::pipeline::run_analysis(g, options);
    cliques = result.spectrum.total;
    steals += result.sched.jobs_stolen;
    benchmark::DoNotOptimize(result.hubs.data());
  }
  std::error_code ec;
  fs::remove(fixture().gsbc_path, ec);
  state.SetItemsProcessed(static_cast<std::int64_t>(
      cliques * static_cast<std::uint64_t>(state.iterations())));
  state.counters["sched_steals"] = static_cast<double>(steals);
}

void BM_PipelineStaged(benchmark::State& state) {
  run_analysis_bench(state, /*overlap=*/false, /*spill=*/false);
}
BENCHMARK(BM_PipelineStaged)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

void BM_PipelineOverlapped(benchmark::State& state) {
  run_analysis_bench(state, /*overlap=*/true, /*spill=*/false);
}
BENCHMARK(BM_PipelineOverlapped)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

void BM_PipelineStagedSpill(benchmark::State& state) {
  run_analysis_bench(state, /*overlap=*/false, /*spill=*/true);
}
BENCHMARK(BM_PipelineStagedSpill)
    ->Arg(2)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

void BM_PipelineOverlappedSpill(benchmark::State& state) {
  run_analysis_bench(state, /*overlap=*/true, /*spill=*/true);
}
BENCHMARK(BM_PipelineOverlappedSpill)
    ->Arg(2)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

// The mapped-container variant exercises the prefetch job: page-in of
// the .gsbg happens behind the compute stages instead of inside them.
void BM_PipelineOverlappedMapped(benchmark::State& state) {
  const auto mapped = gsb::storage::MappedGraph::open(fixture().gsbg_path);
  const gsb::graph::GraphView g = mapped.view();
  std::uint64_t cliques = 0;
  for (auto _ : state) {
    auto options = base_options(static_cast<std::size_t>(state.range(0)),
                                /*overlap=*/true);
    options.prefetch = &mapped;
    const auto result = gsb::pipeline::run_analysis(g, options);
    cliques = result.spectrum.total;
    benchmark::DoNotOptimize(result.prefetched_bytes);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(
      cliques * static_cast<std::uint64_t>(state.iterations())));
}
BENCHMARK(BM_PipelineOverlappedMapped)
    ->Arg(2)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

// The timeline acceptance number: the same overlapped run with the
// journal off, then on (job + queue-wait + steal + stage spans live).
// The per-run delta divided by the baseline lands in
// `timeline_overhead_pct` — the budget is < 3%, mirroring
// `instr_overhead_pct` on the serving side, and the .gsbc stream is
// byte-identical either way (scheduler_test pins that part).
void BM_PipelineTimelineOverhead(benchmark::State& state) {
  const gsb::graph::GraphView g(fixture().graph);
  const auto threads = static_cast<std::size_t>(state.range(0));
  gsb::obs::TimelineJournal& journal = gsb::obs::TimelineJournal::global();
  using Clock = std::chrono::steady_clock;

  double off_seconds = 0.0;
  double on_seconds = 0.0;
  std::uint64_t cliques = 0;
  for (auto _ : state) {
    auto options = base_options(threads, /*overlap=*/true);
    journal.set_enabled(false);
    const auto off_start = Clock::now();
    const auto off_result = gsb::pipeline::run_analysis(g, options);
    off_seconds += std::chrono::duration<double>(Clock::now() - off_start)
                       .count();
    journal.reset();
    journal.set_enabled(true);
    const auto on_start = Clock::now();
    const auto on_result = gsb::pipeline::run_analysis(g, options);
    on_seconds += std::chrono::duration<double>(Clock::now() - on_start)
                      .count();
    journal.set_enabled(false);
    cliques = off_result.spectrum.total;
    benchmark::DoNotOptimize(on_result.spectrum.total);
  }
  journal.reset();
  state.SetItemsProcessed(static_cast<std::int64_t>(
      2 * cliques * static_cast<std::uint64_t>(state.iterations())));
  state.counters["timeline_overhead_pct"] =
      off_seconds > 0.0 ? (on_seconds / off_seconds - 1.0) * 100.0 : 0.0;
}
BENCHMARK(BM_PipelineTimelineOverhead)
    ->Arg(2)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime()
    ->MinTime(2.0);

// Iterative paraclique extraction (glom 1, min size 5) on a sparse
// planted-module graph shaped like the out-of-core co-expression run:
// ~12k vertices, about one edge per vertex, noisy modules of at most 40.
// A small n would hide a per-round cost that grows with n rather than
// with the paraclique.  Items are paracliques.
void BM_ParacliqueExtraction(benchmark::State& state) {
  static const gsb::graph::Graph graph = [] {
    gsb::util::Rng rng(2005);
    gsb::graph::ModuleGraphConfig config;
    config.n = 12000;
    config.num_modules = 150;
    config.max_module_size = 40;
    config.p_in = 0.9;
    config.overlap = 0.1;
    config.background_edges = 3000;
    return gsb::graph::planted_modules(config, rng).graph;
  }();
  std::size_t paracliques = 0;
  for (auto _ : state) {
    const auto found = gsb::analysis::extract_all_paracliques(
        graph, 5, gsb::analysis::ParacliqueOptions{1});
    paracliques = found.size();
    benchmark::DoNotOptimize(found.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(
      paracliques * static_cast<std::size_t>(state.iterations())));
  state.counters["paracliques"] = static_cast<double>(paracliques);
  state.counters["edges"] = static_cast<double>(graph.num_edges());
}
BENCHMARK(BM_ParacliqueExtraction)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
