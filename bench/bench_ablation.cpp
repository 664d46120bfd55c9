// Ablation study over the framework's design choices (the ones DESIGN.md
// calls out):
//
//   A1  degree preprocessing (iterated k-core) on/off          (§2.2)
//   A2  stealing of range jobs on/off -> balance + time        (§2.3)
//   A3  WAH compression of common-neighbor bitmaps: footprint
//       vs. the paper's "compression direction is underway"    (§4)
//   A4  Improved vs Base BK pivoting on overlapping cliques    (§2.2)
//   A5  FPT kernelization rules on/off for vertex cover        (§2.1)

#include <cstdio>

#include "bench/bench_common.h"
#include "bitset/wah_bitset.h"
#include "core/bron_kerbosch.h"
#include "core/clique_enumerator.h"
#include "core/kclique.h"
#include "core/parallel_enumerator.h"
#include "fpt/vertex_cover.h"
#include "graph/transforms.h"
#include "util/cli.h"
#include "util/stats.h"
#include "util/table.h"
#include "util/timer.h"

namespace {

using namespace gsb;

void ablate_kcore(const bench::Workload& sparse, std::size_t init_k) {
  std::printf("\n--- A1: degree preprocessing (iterated (Init_K-1)-core) ---\n");
  std::printf("(sparse workload: %s)\n", sparse.name.c_str());
  util::TableWriter table({"preprocessing", "working vertices", "time (s)"});
  for (bool use_kcore : {true, false}) {
    core::CliqueCounter counter;
    core::CliqueEnumeratorOptions options;
    options.range = core::SizeRange{init_k, 0};
    options.use_kcore = use_kcore;
    util::Timer timer;
    core::enumerate_maximal_cliques(sparse.graph, counter.callback(),
                                    options);
    const auto survivors =
        graph::kcore_mask(sparse.graph, init_k - 1).count();
    table.add_row({use_kcore ? "on" : "off",
                   util::format("%zu", use_kcore ? survivors
                                                 : sparse.graph.order()),
                   util::format("%.3f", timer.seconds())});
  }
  table.print();
}

void ablate_scheduler(const bench::Workload& workload, std::size_t init_k) {
  std::printf("\n--- A2: runtime transfers (stolen range jobs) ---\n");
  util::TableWriter table({"job stealing", "threads", "wall (s)",
                           "busy stddev/mean"});
  for (bool dynamic : {true, false}) {
    for (std::size_t threads : {std::size_t{2}}) {
      core::CliqueCounter counter;
      core::ParallelOptions options;
      options.range = core::SizeRange{init_k, 0};
      options.threads = threads;
      options.dynamic_claiming = dynamic;
      const auto stats = core::enumerate_maximal_cliques_parallel(
          workload.graph, counter.callback(), options);
      const auto summary = util::summarize(stats.thread_busy_seconds);
      table.add_row({dynamic ? "on" : "off", util::format("%zu", threads),
                     util::format("%.3f", stats.base.total_seconds),
                     util::format("%.1f%%", 100.0 * summary.cv())});
    }
  }
  table.print();
}

void ablate_wah(const bench::Workload& sparse, std::size_t init_k) {
  std::printf("\n--- A3: WAH compression of common-neighbor bitmaps ---\n");
  std::printf("(sparse workload: %s)\n", sparse.name.c_str());
  // Take the real sub-list bitmaps of the seed level and compress them.
  core::CliqueCollector sink;
  const auto level =
      core::build_seed_level(sparse.graph, init_k, sink.callback());
  std::size_t raw_bytes = 0;
  std::size_t wah_bytes = 0;
  util::StatsAccumulator ratio;
  for (const auto& sublist : level) {
    const auto packed = bits::WahBitset::compress(sublist.common);
    raw_bytes += sublist.common.size_bytes();
    wah_bytes += packed.size_bytes();
    ratio.add(packed.compression_ratio());
  }
  util::TableWriter table({"representation", "bitmap bytes",
                           "mean compression"});
  table.add_row({"uncompressed", util::format_bytes(raw_bytes).c_str(), "1.0x"});
  table.add_row({"WAH", util::format_bytes(wah_bytes).c_str(),
                 util::format("%.1fx", ratio.mean())});
  table.print();
  std::printf("(%zu seed sub-lists; the paper's 'work underway' direction)\n",
              level.size());
}

void ablate_pivot(const bench::Workload& workload) {
  std::printf("\n--- A4: Base vs Improved BK pivoting ---\n");
  util::TableWriter table({"variant", "tree nodes", "time (s)"});
  for (auto variant : {core::BronKerboschVariant::kBase,
                       core::BronKerboschVariant::kImproved}) {
    core::CliqueCounter counter;
    util::Timer timer;
    const auto stats =
        core::bron_kerbosch(workload.graph, counter.callback(), variant);
    table.add_row(
        {variant == core::BronKerboschVariant::kBase ? "Base BK"
                                                     : "Improved BK",
         util::format("%llu", static_cast<unsigned long long>(stats.tree_nodes)),
         util::format("%.3f", timer.seconds())});
  }
  table.print();
}

void ablate_vc_rules(const bench::Workload& workload) {
  std::printf("\n--- A5: vertex-cover kernelization rules ---\n");
  // Dense subgraph -> sparse complement: the FPT route's home turf.
  const auto sub = graph::kcore_subgraph(workload.graph, 6);
  if (sub.graph.order() < 10 || sub.graph.order() > 400) {
    std::printf("(skipped: core subgraph has %zu vertices)\n",
                sub.graph.order());
    return;
  }
  const auto comp = graph::complement(sub.graph);
  util::TableWriter table({"kernelization", "folding", "tree nodes",
                           "time (s)"});
  for (bool kernel : {true, false}) {
    for (bool folding : {true, false}) {
      if (!kernel && folding) continue;
      fpt::VertexCoverOptions options;
      options.use_kernelization = kernel;
      options.use_folding = folding;
      options.max_nodes = 50'000'000;
      util::Timer timer;
      const auto result = fpt::minimum_vertex_cover(comp, options);
      table.add_row(
          {kernel ? "on" : "off", folding ? "on" : "off",
           util::format("%llu",
                        static_cast<unsigned long long>(result.tree_nodes)),
           util::format("%.3f", timer.seconds())});
    }
  }
  table.print();
}

}  // namespace

int main(int argc, char** argv) {
  const util::Cli cli(argc, argv);
  const auto config = bench::BenchConfig::from_cli(cli, /*default_scale=*/0.12);
  const auto workload = bench::myogenic_workload(config);
  bench::print_workload(workload);
  const std::size_t init_k = workload.omega - 6;
  // A1/A3 run on the sparse-brain analog: that is where degree peeling and
  // bitmap sparsity matter (the dense patchwork keeps every vertex alive).
  bench::BenchConfig sparse_config = config;
  sparse_config.scale = cli.get_double("sparse-scale", 0.075);
  const auto sparse = bench::brain_sparse_workload(sparse_config);

  ablate_kcore(sparse, 10);
  ablate_scheduler(workload, init_k);
  ablate_wah(sparse, 3);
  ablate_pivot(workload);
  ablate_vc_rules(workload);
  return 0;
}
