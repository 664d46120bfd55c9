// Cross-module integration: the full paper pipeline from synthetic
// microarray to enumerated cliques, agreement between every maximal-clique
// algorithm on shared workloads, preset-driven end-to-end runs, and the
// pipeline's clique stage against the enumerator's emission sequence.

#include <gtest/gtest.h>

#include <fstream>
#include <iterator>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "analysis/clique_stats.h"
#include "analysis/hubs.h"
#include "analysis/paraclique.h"
#include "bio/correlation.h"
#include "bio/generator.h"
#include "bio/normalize.h"
#include "bio/presets.h"
#include "core/clique_enumerator.h"
#include "core/maximum_clique.h"
#include "core/verify.h"
#include "fpt/max_clique_vc.h"
#include "netops/ops.h"
#include "pipeline/overlap.h"
#include "storage/clique_stream.h"
#include "storage/gsbg_writer.h"
#include "storage/mapped_graph.h"
#include "tests/test_helpers.h"

namespace gsb {
namespace {

std::vector<core::Clique> read_stream(const std::string& path) {
  auto reader = storage::GsbcReader::open(path);
  std::vector<core::Clique> out;
  core::Clique clique;
  while (reader.next(clique)) out.push_back(clique);
  return out;
}

std::string read_bytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in), {});
}

TEST(Integration, MicroarrayToCliquePipeline) {
  util::Rng rng(101);
  bio::MicroarrayConfig config;
  config.genes = 140;
  config.samples = 60;
  config.modules = 5;
  config.min_module_size = 6;
  config.max_module_size = 10;
  config.overlap = 0.1;
  config.within_module_corr = 0.93;
  auto data = bio::generate_microarray(config, rng);

  bio::quantile_normalize(data.expression);
  bio::CorrelationGraphOptions graph_options;
  graph_options.method = bio::CorrelationMethod::kSpearman;
  graph_options.threshold = 0.72;
  const auto built =
      bio::build_correlation_graph(data.expression, graph_options, rng);
  const auto& g = built.graph;
  ASSERT_GT(g.num_edges(), 50u);

  // Maximum clique: B&B agrees with the enumerator's largest output.
  const auto omega = core::maximum_clique(g).clique.size();
  core::CliqueEnumeratorOptions options;
  options.range = core::SizeRange{3, 0};
  const auto cliques = test::run_clique_enumerator(g, options);
  ASSERT_FALSE(cliques.empty());
  std::size_t largest = 0;
  for (const auto& clique : cliques) {
    largest = std::max(largest, clique.size());
    EXPECT_TRUE(core::is_maximal_clique(g, clique));
  }
  EXPECT_EQ(largest, omega);
  EXPECT_GE(omega, 6u);  // at least one planted module survives thresholding

  // All algorithms agree on this real pipeline output.
  EXPECT_EQ(cliques, test::reference_in_range(g, options.range));
  core::ParallelOptions par_options;
  par_options.range = options.range;
  par_options.threads = 2;
  EXPECT_EQ(test::run_parallel_enumerator(g, par_options), cliques);
}

TEST(Integration, AllAlgorithmsAgreeOnMyogenicAnalog) {
  // A shrunken myogenic-shaped workload: overlapping clique modules on a
  // sparse background.  The module size is capped at 10 here because the
  // Kose baseline materializes *every* clique of every size — a planted
  // 28-clique alone would cost it 2^28 stored cliques (that blow-up is
  // measured, deliberately, in bench_table1, not in unit tests).
  util::Rng rng(7);
  graph::ModuleGraphConfig config;
  config.n = 145;
  config.num_modules = 10;
  config.min_module_size = 4;
  config.max_module_size = 10;
  config.overlap = 0.3;
  config.background_edges = 100;
  const auto mg = graph::planted_modules(config, rng);
  const auto& g = mg.graph;

  core::SizeRange range{3, 0};
  const auto bk = test::run_base_bk(g, range);
  EXPECT_EQ(test::run_improved_bk(g, range), bk);

  core::CliqueEnumeratorOptions ce;
  ce.range = range;
  EXPECT_EQ(test::run_clique_enumerator(g, ce), bk);

  core::ParallelOptions par;
  par.range = range;
  par.threads = 4;
  EXPECT_EQ(test::run_parallel_enumerator(g, par), bk);

  core::KoseOptions kose;
  kose.range = range;
  EXPECT_EQ(test::run_kose(g, kose), bk);
}

TEST(Integration, MaxCliqueRoutesAgreeOnCompatibilityGraph) {
  // Phylogeny-style dense compatibility graph.
  util::Rng rng(55);
  const auto g = graph::gnp(45, 0.85, rng);
  const auto bnb = core::maximum_clique(g);
  const auto vc = fpt::maximum_clique_via_vertex_cover(g);
  EXPECT_EQ(bnb.clique.size(), vc.clique.size());
  EXPECT_TRUE(core::is_clique(g, vc.clique));
  EXPECT_TRUE(fpt::has_clique_of_size(g, bnb.clique.size()));
  EXPECT_FALSE(fpt::has_clique_of_size(g, bnb.clique.size() + 1));
}

TEST(Integration, ConsensusThenCliquesOnPpiReplicates) {
  util::Rng rng(77);
  // Three noisy observations of a protein-complex graph.
  graph::ModuleGraphConfig config;
  config.n = 100;
  config.num_modules = 5;
  config.min_module_size = 6;
  config.max_module_size = 9;
  config.overlap = 0.0;
  const auto truth = graph::planted_modules(config, rng);
  std::vector<graph::Graph> replicates;
  for (int r = 0; r < 3; ++r) {
    graph::Graph rep = truth.graph;
    const auto noise = graph::gnp(100, 0.02, rng);
    for (const auto& [u, v] : noise.edge_list()) rep.add_edge(u, v);
    replicates.push_back(std::move(rep));
  }
  const auto cleaned = netops::at_least_k_of_n(replicates, 2);

  core::CliqueEnumeratorOptions options;
  options.range = core::SizeRange{5, 0};
  const auto cliques = test::run_clique_enumerator(cleaned, options);
  // Every planted complex of size >= 5 appears within some maximal clique.
  for (const auto& module : truth.modules) {
    if (module.size() < 5) continue;
    bool found = false;
    for (const auto& clique : cliques) {
      if (std::includes(clique.begin(), clique.end(), module.begin(),
                        module.end())) {
        found = true;
        break;
      }
    }
    EXPECT_TRUE(found) << "module of size " << module.size() << " lost";
  }
}

TEST(Integration, ParacliqueAndHubsOnEnumeratedOutput) {
  util::Rng rng(91);
  const auto mg = bio::make_paper_graph(bio::PaperDataset::kBrainSparse,
                                        0.03, rng);
  core::CliqueEnumeratorOptions options;
  options.range = core::SizeRange{3, 0};
  core::CliqueCollector sink;
  core::enumerate_maximal_cliques(mg.graph, sink.callback(), options);
  const auto spectrum = analysis::clique_spectrum(sink.cliques());
  EXPECT_GT(spectrum.total, 0u);
  EXPECT_GE(spectrum.max_size, 3u);

  const auto hub = analysis::most_connected_vertex(mg.graph, sink.cliques());
  EXPECT_EQ(mg.graph.degree(hub.vertex), mg.graph.max_degree());

  const auto para = analysis::extract_paraclique(mg.graph, {1});
  EXPECT_GE(para.members.size(), para.seed_size);
}

TEST(Integration, EnumerationWindowMatchesPaperTable1Protocol) {
  // Table 1 enumerates maximal cliques of sizes 3..17 — verify the window
  // protocol (Init_K = 3, upper bound = omega) is exactly equivalent to
  // unbounded enumeration above size 3 on a sparse-analog graph.
  util::Rng rng(13);
  const auto mg = bio::make_paper_graph(bio::PaperDataset::kBrainSparse,
                                        0.02, rng);
  const auto omega = core::maximum_clique(mg.graph).clique.size();
  core::CliqueEnumeratorOptions unbounded;
  unbounded.range = core::SizeRange{3, 0};
  core::CliqueEnumeratorOptions bounded;
  bounded.range = core::SizeRange{3, omega};
  EXPECT_EQ(test::run_clique_enumerator(mg.graph, bounded),
            test::run_clique_enumerator(mg.graph, unbounded));
}

// Stage 5 of run_analysis runs Bron–Kerbosch over the (Init_K−1)-core
// and sorts its output; it must reproduce the Clique Enumerator's emission
// sequence exactly — the reference maximal cliques in the window by size,
// then lexicographically — on every oracle graph and every Init_K (one
// window also bounded above), in memory and off a mapped .gsbg, at every
// thread count.  Each (backend, threads) run is collected for half the
// windows and streamed to a .gsbc, then re-read, for the other half.  On
// the five dense G(70, 0.8) graphs (~170k-310k maximal cliques each, none
// below size 5) every unbounded window keeps the whole graph as its core
// and selects the same cliques, so they run [1, inf) and [2, 3] only, in
// one rotating (backend, threads) setting each.
TEST(Integration, AnalysisCliquesMatchEmissionOracle) {
  const core::SizeRange kRanges[] = {{1, 0}, {2, 0}, {3, 0}, {5, 0}, {2, 3}};
  constexpr std::size_t kThreadCounts[] = {1, 2, 4};
  constexpr std::size_t kSettings = 2 * std::size(kThreadCounts);
  constexpr std::size_t kDense = 20000;
  test::TempFile stream("analysis_oracle");
  const auto corpus = test::oracle_graphs();
  std::size_t compared = 0;
  std::size_t expected_runs = 0;
  for (std::size_t gi = 0; gi < corpus.size(); ++gi) {
    const auto& [name, g] = corpus[gi];
    const test::InMemoryAndMapped backends(g);
    const auto views = backends.views();
    const auto reference = core::reference_maximal_cliques(g);
    const bool dense = reference.size() > kDense;
    expected_runs += dense ? 2 : std::size(kRanges) * kSettings;
    for (std::size_t r = 0; r < std::size(kRanges); ++r) {
      const core::SizeRange range = kRanges[r];
      if (dense && range.hi == 0 && range.lo != 1) continue;
      const auto expected = test::emission_sequence(reference, range);
      for (std::size_t setting = 0; setting < kSettings; ++setting) {
        if (dense && setting != (gi + r) % kSettings) continue;
        const std::size_t where = setting / std::size(kThreadCounts);
        const std::size_t threads =
            kThreadCounts[setting % std::size(kThreadCounts)];
        const bool streamed = (r + setting) % 2 == 1;
        pipeline::AnalysisOptions options;
        options.range = range;
        options.threads = threads;
        options.overlap = false;
        if (streamed) options.clique_out = stream.path();
        const auto result = pipeline::run_analysis(views[where], options);
        EXPECT_EQ(streamed ? read_stream(stream.path()) : result.cliques,
                  expected)
            << name << (where == 0 ? " memory" : " mapped") << " range ["
            << range.lo << ", " << range.hi << "] threads=" << threads
            << (streamed ? " streamed" : " collected");
        EXPECT_EQ(result.spectrum.total, expected.size()) << name;
        ++compared;
      }
    }
  }
  EXPECT_EQ(compared, expected_runs);
}

// The analysis takes its maximum clique from paraclique round 0, a search
// on the subgraph induced on the vertices with an edge; its clique and
// search tree must be those of core::maximum_clique on the whole view:
// with isolated vertices interleaved, with none, and without edges, in
// memory and mapped, staged and overlapped.
TEST(Integration, AnalysisMaximumCliqueMatchesWholeGraphSearch) {
  std::vector<std::pair<std::string, graph::Graph>> graphs;
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    const graph::Graph dense = test::random_graph(60, 0.1 * seed, seed);
    // Vertex v becomes 3v + 1: two isolated vertices around each.
    graph::Graph spread(181);
    for (const auto& [u, v] : dense.edge_list()) {
      spread.add_edge(3 * u + 1, 3 * v + 1);
    }
    graphs.emplace_back("spread seed " + std::to_string(seed),
                        std::move(spread));
    graphs.emplace_back("gnp seed " + std::to_string(seed), dense);
  }
  graphs.emplace_back("edgeless", graph::Graph(70));
  graph::Graph one_edge(130);
  one_edge.add_edge(64, 129);
  graphs.emplace_back("one edge", std::move(one_edge));
  for (const auto& [name, g] : graphs) {
    const test::InMemoryAndMapped backends(g);
    for (const graph::GraphView& view : backends.views()) {
      const auto expected = core::maximum_clique(view);
      for (const bool overlap : {false, true}) {
        pipeline::AnalysisOptions options;
        options.range = core::SizeRange{3, 0};
        options.threads = 2;
        options.overlap = overlap;
        const auto result = pipeline::run_analysis(view, options);
        EXPECT_EQ(result.maximum.clique, expected.clique) << name;
        EXPECT_EQ(result.maximum.tree_nodes, expected.tree_nodes) << name;
      }
    }
  }
}

// On a degree-sorted container the emission order is lexicographic in
// the container's own ids, and the stream holds original labels: the
// pipeline's .gsbc must equal the enumerator's output written through
// the same sink, byte for byte.
TEST(Integration, DegreeSortedAnalysisStreamMatchesEnumeratorBytes) {
  const graph::Graph g = test::random_graph(90, 0.2, 4242);
  test::TempFile container("analysis_degree_sorted");
  storage::GsbgWriteOptions write;
  write.degree_sort = true;
  storage::write_gsbg_file(g, container.path(), write);
  const auto mapped = storage::MappedGraph::open(container.path());
  ASSERT_FALSE(mapped.permutation().empty());
  const auto original = [&mapped](graph::VertexId v) {
    return mapped.permutation()[v];
  };
  test::TempFile from_pipeline("analysis_degree_sorted_pipeline");
  test::TempFile from_enumerator("analysis_degree_sorted_enumerator");
  for (const std::size_t init_k : {2, 3, 4}) {
    pipeline::AnalysisOptions options;
    options.range = core::SizeRange{init_k, 0};
    options.threads = 2;
    options.clique_out = from_pipeline.path();
    options.original_id = original;
    pipeline::run_analysis(mapped.view(), options);

    storage::GsbcWriter writer(from_enumerator.path(), mapped.view().order());
    std::vector<graph::VertexId> members;
    core::CliqueEnumeratorOptions enumerator;
    enumerator.range = options.range;
    core::enumerate_maximal_cliques(
        mapped.view(),
        [&](std::span<const graph::VertexId> clique) {
          members.assign(clique.begin(), clique.end());
          for (auto& v : members) v = original(v);
          writer.append(members);
        },
        enumerator);
    const auto written = writer.close();
    ASSERT_GT(written.clique_count, 0u) << "init_k=" << init_k;
    EXPECT_EQ(read_bytes(from_pipeline.path()),
              read_bytes(from_enumerator.path()))
        << "init_k=" << init_k;
  }
}

}  // namespace
}  // namespace gsb
