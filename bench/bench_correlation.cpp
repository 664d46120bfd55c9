// Correlation-engine benchmarks (google-benchmark): the perf trajectory of
// the pipeline's dominant cost, the all-pairs gene correlation sweep.  Run
// via the `bench_correlation_json` target (or directly with
// --benchmark_out) to emit BENCH_correlation.json, the artifact CI uploads
// alongside BENCH_storage.json:
//
//   * scalar all-pairs sweep (profile_dot row loops — the pre-kernel
//     baseline, kept as the reference);
//   * screened all-pairs sweep at 1/2/4/8 threads and |rho| >= 0, 0.3
//     and 0.85 (sweep_resident, the sweep both builders run: an exact
//     8-bit integer screen with profile_dot rechecks where few pairs pass,
//     the exact double block product where most do);
//   * the full in-memory graph build (standardize + sweep + bitmap graph);
//   * the tiled out-of-core .gsbg build at 1/2/4/8 threads (kernel plus
//     scratch/spill I/O);
//   * one 128 × 128-row, 96-sample block pair at |rho| >= 0.70 through
//     BlockPairScan, one row per screen kernel this CPU runs
//     (BM_ScreenBlockPair/<kernel>); the JSON context's screen_kernel
//     names the body the sweeps above ran.
//
// Every variant reports pairs/s (items) on the same synthetic matrices, so
// blocked-vs-scalar speedup and thread scaling read directly off the JSON.

#include <benchmark/benchmark.h>

#include <cmath>
#include <cstdint>
#include <filesystem>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "bio/corr_kernel.h"
#include "bio/correlation.h"
#include "bio/generator.h"
#include "bio/normalize.h"
#include "bio/tiled_correlation.h"
#include "parallel/thread_pool.h"
#include "util/rng.h"

namespace {

namespace fs = std::filesystem;

constexpr double kThreshold = 0.85;

struct Fixture {
  gsb::bio::ExpressionMatrix expression;
  gsb::bio::StandardizedRows rows;  // Spearman-standardized once, not timed
};

const Fixture& fixture(std::size_t genes, std::size_t samples) {
  static std::map<std::pair<std::size_t, std::size_t>,
                  std::unique_ptr<Fixture>>
      cache;
  auto& slot = cache[{genes, samples}];
  if (!slot) {
    slot = std::make_unique<Fixture>();
    gsb::util::Rng rng(2005);
    gsb::bio::MicroarrayConfig config;
    config.genes = genes;
    config.samples = samples;
    config.modules = genes / 40 + 1;
    auto data = gsb::bio::generate_microarray(config, rng);
    gsb::bio::quantile_normalize(data.expression);
    slot->expression = std::move(data.expression);
    slot->rows = gsb::bio::standardize_rows(
        slot->expression, gsb::bio::CorrelationMethod::kSpearman, nullptr);
  }
  return *slot;
}

double pairs_of(std::size_t genes) {
  return static_cast<double>(genes) * static_cast<double>(genes - 1) / 2.0;
}

/// The pre-kernel baseline: scalar profile_dot over the upper triangle.
void BM_AllPairsScalar(benchmark::State& state) {
  const auto genes = static_cast<std::size_t>(state.range(0));
  const auto samples = static_cast<std::size_t>(state.range(1));
  const Fixture& f = fixture(genes, samples);
  std::uint64_t edges = 0;
  for (auto _ : state) {
    edges = 0;
    for (std::size_t i = 0; i < genes; ++i) {
      if (f.rows.valid[i] == 0) continue;
      const double* row_i = f.rows.rows.row(i);
      for (std::size_t j = i + 1; j < genes; ++j) {
        if (f.rows.valid[j] == 0) continue;
        const double corr =
            gsb::bio::profile_dot(row_i, f.rows.rows.row(j), samples);
        edges += std::fabs(corr) >= kThreshold;
      }
    }
    benchmark::DoNotOptimize(edges);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(
      static_cast<double>(state.iterations()) * pairs_of(genes)));
  state.counters["edges"] = static_cast<double>(edges);
}
BENCHMARK(BM_AllPairsScalar)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime()
    ->Args({512, 64})
    ->Args({2048, 64});

/// The resident sweep over the standardized rows, threads in arg 2 (1 = no
/// pool), the |rho| threshold in hundredths in arg 3.
void BM_AllPairsBlocked(benchmark::State& state) {
  const auto genes = static_cast<std::size_t>(state.range(0));
  const auto samples = static_cast<std::size_t>(state.range(1));
  const auto threads = static_cast<std::size_t>(state.range(2));
  const double threshold = static_cast<double>(state.range(3)) / 100.0;
  const Fixture& f = fixture(genes, samples);
  std::optional<gsb::par::ThreadPool> pool;
  if (threads > 1) pool.emplace(threads);
  std::uint64_t edges = 0;
  for (auto _ : state) {
    edges = 0;
    gsb::bio::sweep_resident(
        f.rows.rows, f.rows.valid.data(), 0,
        gsb::bio::BlockPairScan(samples, threshold), pool ? &*pool : nullptr,
        [&](const std::vector<gsb::bio::CorrHit>& hits) {
          edges += hits.size();
        });
    benchmark::DoNotOptimize(edges);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(
      static_cast<double>(state.iterations()) * pairs_of(genes)));
  state.counters["edges"] = static_cast<double>(edges);
}
/// |rho| >= 0 (every pair passes: exact blocks), 0.3 (a few percent pass)
/// and 0.85 (the screen's regime).
void AllPairsBlockedArgs(benchmark::internal::Benchmark* bench) {
  for (const std::int64_t hundredths : {0, 30, 85}) {
    bench->Args({512, 64, 1, hundredths});
    for (const std::int64_t threads : {1, 2, 4, 8}) {
      bench->Args({2048, 64, threads, hundredths});
    }
  }
}
BENCHMARK(BM_AllPairsBlocked)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime()
    ->Apply(AllPairsBlockedArgs);

/// Full in-memory build: standardization + blocked sweep + bitmap graph.
void BM_InMemoryGraphBuild(benchmark::State& state) {
  const auto genes = static_cast<std::size_t>(state.range(0));
  const auto samples = static_cast<std::size_t>(state.range(1));
  const auto threads = static_cast<std::size_t>(state.range(2));
  const Fixture& f = fixture(genes, samples);
  gsb::bio::CorrelationGraphOptions options;
  options.method = gsb::bio::CorrelationMethod::kSpearman;
  options.threshold = kThreshold;
  options.threads = threads;
  for (auto _ : state) {
    gsb::util::Rng rng(1);
    const auto result =
        gsb::bio::build_correlation_graph(f.expression, options, rng);
    benchmark::DoNotOptimize(result.graph.num_edges());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(
      static_cast<double>(state.iterations()) * pairs_of(genes)));
}
BENCHMARK(BM_InMemoryGraphBuild)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime()
    ->Args({2048, 64, 1})
    ->Args({2048, 64, 4});

/// Tiled out-of-core build: blocked kernel + scratch/spill/container I/O.
void BM_TiledGsbgBuild(benchmark::State& state) {
  const auto genes = static_cast<std::size_t>(state.range(0));
  const auto samples = static_cast<std::size_t>(state.range(1));
  const auto threads = static_cast<std::size_t>(state.range(2));
  const Fixture& f = fixture(genes, samples);
  const std::string out =
      (fs::temp_directory_path() / "bench_correlation.gsbg").string();
  gsb::bio::TiledCorrelationOptions options;
  options.method = gsb::bio::CorrelationMethod::kSpearman;
  options.threshold = kThreshold;
  options.tile_rows = 512;
  options.threads = threads;
  std::uint64_t edges = 0;
  for (auto _ : state) {
    const auto result =
        gsb::bio::build_correlation_gsbg(f.expression, out, options);
    edges = result.edges;
    benchmark::DoNotOptimize(edges);
  }
  std::error_code ec;
  fs::remove(out, ec);
  state.SetItemsProcessed(static_cast<std::int64_t>(
      static_cast<double>(state.iterations()) * pairs_of(genes)));
  state.counters["edges"] = static_cast<double>(edges);
}
BENCHMARK(BM_TiledGsbgBuild)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime()
    ->Args({2048, 64, 1})
    ->Args({2048, 64, 2})
    ->Args({2048, 64, 4})
    ->Args({2048, 64, 8});

/// One block pair through BlockPairScan on \p kernel's screen: quantized
/// panels filled once (not timed), then the scan (screen, recheck).  The
/// blocks are rows [0, 128) and [1024, 1152) of a 2048-gene matrix, so
/// few pairs pass, as in a genome-scale sweep.
void BM_ScreenBlockPair(benchmark::State& state,
                        gsb::bio::detail::ScreenKernel kernel) {
  constexpr std::size_t kRows = 128;
  constexpr std::size_t kSamples = 96;
  const Fixture& f = fixture(2048, kSamples);
  const gsb::bio::BlockPairScan scan(kSamples, 0.70, kernel);
  gsb::bio::ScreenPanel panels[2] = {gsb::bio::ScreenPanel(kRows, kSamples),
                                     gsb::bio::ScreenPanel(kRows, kSamples)};
  gsb::bio::CorrBlock blocks[2];
  for (std::size_t b = 0; b < 2; ++b) {
    const std::size_t first = b * 1024;
    blocks[b].rows = f.rows.rows.row(first);
    blocks[b].stride = f.rows.rows.stride();
    blocks[b].count = kRows;
    blocks[b].valid = f.rows.valid.data() + first;
    blocks[b].first = static_cast<std::uint32_t>(first);
    blocks[b].panel = &panels[b];
    panels[b].fill(blocks[b].rows, blocks[b].stride, kRows, blocks[b].valid);
  }
  gsb::bio::CorrScanScratch scratch;
  std::vector<gsb::bio::CorrHit> hits;
  for (auto _ : state) {
    hits.clear();
    scan.scan(blocks[0], blocks[1], false, scratch, hits);
    benchmark::DoNotOptimize(hits.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(kRows * kRows));
  state.counters["hits"] = static_cast<double>(hits.size());
}

}  // namespace

int main(int argc, char** argv) {
  using gsb::bio::detail::ScreenKernel;
  for (const auto kernel : {ScreenKernel::kVector128, ScreenKernel::kAvx2,
                            ScreenKernel::kAvxVnni,
                            ScreenKernel::kAvx512Vnni}) {
    if (!gsb::bio::detail::screen_kernel_available(kernel)) continue;
    benchmark::RegisterBenchmark(
        (std::string("BM_ScreenBlockPair/") +
         gsb::bio::detail::screen_kernel_name(kernel))
            .c_str(),
        BM_ScreenBlockPair, kernel)
        ->Unit(benchmark::kMicrosecond);
  }
  benchmark::AddCustomContext(
      "screen_kernel", gsb::bio::detail::screen_kernel_name(
                           gsb::bio::detail::default_screen_kernel()));
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
