// Gene co-expression network analysis — the paper's headline pipeline.
//
// Synthesizes a microarray dataset (the stand-in for the Affymetrix U74Av2
// mouse-brain data), then runs the published pipeline end to end:
// normalization -> pairwise Spearman rank correlation -> thresholding ->
// maximum clique (upper bound) -> bounded maximal clique enumeration ->
// paraclique extraction and hub-gene reporting (the paper's Lin7c analysis).
//
//   $ ./coexpression_network [--genes N] [--samples S] [--threshold T]
//                            [--init-k K] [--threads P] [--seed X]

#include <cstdio>

#include "analysis/clique_stats.h"
#include "analysis/hubs.h"
#include "analysis/paraclique.h"
#include "bio/correlation.h"
#include "bio/generator.h"
#include "bio/normalize.h"
#include "core/clique.h"
#include "core/maximum_clique.h"
#include "core/parallel_enumerator.h"
#include "util/cli.h"
#include "util/rng.h"
#include "util/table.h"

int main(int argc, char** argv) {
  using namespace gsb;
  const util::Cli cli(argc, argv);
  const auto genes = static_cast<std::size_t>(cli.get_int("genes", 800));
  const auto samples = static_cast<std::size_t>(cli.get_int("samples", 60));
  const double threshold = cli.get_double("threshold", 0.70);
  const auto init_k = static_cast<std::size_t>(cli.get_int("init-k", 4));
  const auto threads = static_cast<std::size_t>(cli.get_int("threads", 2));
  util::Rng rng(static_cast<std::uint64_t>(cli.get_int("seed", 2005)));

  // --- 1. synthetic microarray ------------------------------------------------
  bio::MicroarrayConfig config;
  config.genes = genes;
  config.samples = samples;
  config.modules = genes / 40;
  config.min_module_size = 5;
  config.max_module_size = 18;
  config.within_module_corr = 0.92;
  config.overlap = 0.15;
  auto data = bio::generate_microarray(config, rng);
  std::printf("microarray: %zu probes x %zu arrays, %zu planted modules\n",
              data.expression.genes(), data.expression.samples(),
              data.modules.size());

  // --- 2. normalize + rank correlation + threshold ---------------------------
  bio::quantile_normalize(data.expression);
  bio::CorrelationGraphOptions graph_options;
  graph_options.method = bio::CorrelationMethod::kSpearman;
  graph_options.threshold = threshold;
  const auto built =
      bio::build_correlation_graph(data.expression, graph_options, rng);
  const auto& g = built.graph;
  std::printf(
      "correlation graph: |rho| >= %.2f -> %zu edges (density %.3f%%)\n",
      built.threshold_used, g.num_edges(), 100.0 * g.density());

  // --- 3. maximum clique bounds the enumeration window -----------------------
  const auto max = core::maximum_clique(g);
  std::printf("maximum clique: %zu vertices (%llu search nodes)\n",
              max.clique.size(),
              static_cast<unsigned long long>(max.tree_nodes));

  // --- 4. bounded enumeration, multithreaded ---------------------------------
  core::ParallelOptions options;
  options.range = core::SizeRange{init_k, max.clique.size()};
  options.threads = threads;
  core::CliqueCollector cliques;
  const auto stats = core::enumerate_maximal_cliques_parallel(
      g, cliques.callback(), options);
  std::printf("enumerated %llu maximal cliques in [%zu, %zu] with %zu "
              "threads in %.3f s (%llu stolen jobs)\n",
              static_cast<unsigned long long>(stats.base.total_maximal),
              init_k, max.clique.size(), stats.threads,
              stats.base.total_seconds, static_cast<unsigned long long>(
                                            stats.total_transfers));

  const auto spectrum = analysis::clique_spectrum(cliques.cliques());
  util::TableWriter table({"clique size", "maximal cliques"});
  for (const auto& [size, count] : spectrum.size_histogram) {
    table.add_row({util::format("%zu", size),
                   util::format("%llu",
                                static_cast<unsigned long long>(count))});
  }
  table.print();

  // --- 5. paraclique + hub genes ---------------------------------------------
  const auto para = analysis::grow_paraclique(g, max.clique, {1});
  std::printf("paraclique (glom 1): %zu members, density %.3f\n",
              para.members.size(), para.density);

  const auto hubs = analysis::top_hubs(g, cliques.cliques(), 5);
  std::printf("top hub probes (the paper's Lin7c analysis):\n");
  for (const auto& hub : hubs) {
    std::printf("  %-12s degree=%-4zu clique-participation=%u\n",
                data.expression.name_of(hub.vertex).c_str(), hub.degree,
                hub.clique_participation);
  }
  return 0;
}
