// Storage-engine benchmarks (google-benchmark): quantifies what the .gsbg
// container buys — near-instant mmap open against full in-memory loads.
// Run via the `bench_storage_json` target (or directly with
// --benchmark_out) to emit BENCH_storage.json, the repo's
// storage-trajectory artifact:
//
//   * DIMACS text load (parse + rebuild bitmap adjacency in RAM);
//   * CSR load out of a mapped .gsbg (rebuild bitmap in RAM);
//   * mmap open of a .gsbg (no load at all — the out-of-core path);
//   * mmap open + a neighborhood sweep (what analysis actually pays);
//   * full checksum verification pass.

#include <benchmark/benchmark.h>

#include <cstdio>
#include <filesystem>
#include <string>

#include "bitset/dynamic_bitset.h"
#include "graph/generators.h"
#include "graph/graph_view.h"
#include "graph/io.h"
#include "storage/gsbg_writer.h"
#include "storage/mapped_graph.h"
#include "util/rng.h"

namespace {

namespace fs = std::filesystem;
using gsb::graph::Graph;
using gsb::storage::MappedGraph;

constexpr std::size_t kVertices = 8192;
constexpr double kDensity = 0.004;  // sparse, genome-graph-like

struct Fixture {
  std::string dimacs_path;
  std::string gsbg_path;

  Fixture() {
    const auto dir = fs::temp_directory_path();
    dimacs_path = (dir / "bench_storage.clq").string();
    gsbg_path = (dir / "bench_storage.gsbg").string();
    gsb::util::Rng rng(2005);
    const Graph g = gsb::graph::gnp(kVertices, kDensity, rng);
    gsb::graph::write_dimacs_file(g, dimacs_path);
    gsb::storage::write_gsbg_file(g, gsbg_path);
  }
  ~Fixture() {
    std::error_code ec;
    fs::remove(dimacs_path, ec);
    fs::remove(gsbg_path, ec);
  }
};

const Fixture& fixture() {
  static Fixture f;
  return f;
}

void BM_DimacsLoad(benchmark::State& state) {
  for (auto _ : state) {
    const Graph g = gsb::graph::read_dimacs_file(fixture().dimacs_path);
    benchmark::DoNotOptimize(g.num_edges());
  }
}
BENCHMARK(BM_DimacsLoad)->Unit(benchmark::kMillisecond);

void BM_GsbgCsrLoad(benchmark::State& state) {
  for (auto _ : state) {
    const auto mapped = MappedGraph::open(fixture().gsbg_path);
    const Graph g = mapped.load();
    benchmark::DoNotOptimize(g.num_edges());
  }
}
BENCHMARK(BM_GsbgCsrLoad)->Unit(benchmark::kMillisecond);

void BM_GsbgMmapOpen(benchmark::State& state) {
  for (auto _ : state) {
    const auto mapped = MappedGraph::open(fixture().gsbg_path);
    benchmark::DoNotOptimize(mapped.view().order());
  }
}
BENCHMARK(BM_GsbgMmapOpen)->Unit(benchmark::kMillisecond);

void BM_GsbgMmapOpenPlusSweep(benchmark::State& state) {
  for (auto _ : state) {
    const auto mapped = MappedGraph::open(fixture().gsbg_path);
    const auto view = mapped.view();
    std::size_t degree_sum = 0;
    for (gsb::graph::VertexId v = 0; v < view.order(); ++v) {
      degree_sum += view.neighbors(v).count();
    }
    benchmark::DoNotOptimize(degree_sum);
  }
}
BENCHMARK(BM_GsbgMmapOpenPlusSweep)->Unit(benchmark::kMillisecond);

void BM_GsbgChecksumVerify(benchmark::State& state) {
  const auto mapped = MappedGraph::open(fixture().gsbg_path);
  for (auto _ : state) {
    mapped.verify_checksum();
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(mapped.file_bytes()));
}
BENCHMARK(BM_GsbgChecksumVerify)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
