// Tests for clique bounds and the branch-and-bound maximum clique solver.
// The oracle compares the solver's (clique, tree_nodes) against the
// intersects-based colour-sort reference in test_helpers.h.

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "core/maximum_clique.h"
#include "core/verify.h"
#include "graph/generators.h"
#include "tests/test_helpers.h"

namespace gsb::core {
namespace {

std::size_t exhaustive_omega(const graph::Graph& g) {
  std::size_t best = 0;
  for (const auto& clique : exhaustive_maximal_cliques(g)) {
    best = std::max(best, clique.size());
  }
  return best;
}

TEST(MaxClique, SmallKnownGraphs) {
  const auto triangle =
      graph::Graph::from_edges(4, {{0, 1}, {1, 2}, {0, 2}, {2, 3}});
  EXPECT_EQ(maximum_clique(triangle).clique, (Clique{0, 1, 2}));

  graph::Graph path(5);
  for (VertexId v = 0; v + 1 < 5; ++v) path.add_edge(v, v + 1);
  EXPECT_EQ(maximum_clique(path).clique.size(), 2u);

  const graph::Graph isolated(3);
  EXPECT_EQ(maximum_clique(isolated).clique.size(), 1u);

  const graph::Graph empty(0);
  EXPECT_TRUE(maximum_clique(empty).clique.empty());
}

TEST(MaxClique, BoundsSandwichOmega) {
  for (int seed = 1; seed <= 5; ++seed) {
    const auto g = test::random_graph(40, 0.4, seed);
    const auto lb = greedy_clique_lower_bound(g);
    const auto ub = greedy_coloring_upper_bound(g);
    const auto omega = maximum_clique(g).clique.size();
    EXPECT_TRUE(is_clique(g, lb));
    EXPECT_LE(lb.size(), omega);
    EXPECT_GE(ub, omega);
  }
}

TEST(MaxClique, ColoringOfBipartiteIsTwo) {
  graph::Graph bipartite(10);
  for (VertexId u = 0; u < 5; ++u) {
    for (VertexId v = 5; v < 10; ++v) bipartite.add_edge(u, v);
  }
  EXPECT_EQ(greedy_coloring_upper_bound(bipartite), 2u);
  EXPECT_EQ(maximum_clique(bipartite).clique.size(), 2u);
}

TEST(MaxClique, RecoversPlantedClique) {
  util::Rng rng(7);
  const auto planted = graph::planted_clique(150, 16, 0.05, rng);
  const auto result = maximum_clique(planted.graph);
  EXPECT_EQ(result.clique.size(), 16u);
  EXPECT_EQ(result.clique, planted.members);
}

TEST(MaxClique, ModulePresetHitsConfiguredOmega) {
  util::Rng rng(9);
  graph::ModuleGraphConfig config;
  config.n = 250;
  config.num_modules = 20;
  config.max_module_size = 18;
  config.p_in = 1.0;
  config.background_edges = 200;
  const auto mg = graph::planted_modules(config, rng);
  EXPECT_GE(maximum_clique(mg.graph).clique.size(), 18u);
}

class MaxCliqueSweepTest
    : public ::testing::TestWithParam<std::tuple<std::size_t, double, int>> {};

TEST_P(MaxCliqueSweepTest, MatchesExhaustive) {
  const auto [n, p, seed] = GetParam();
  const auto g = test::random_graph(n, p, static_cast<std::uint64_t>(seed));
  const auto result = maximum_clique(g);
  EXPECT_TRUE(is_clique(g, result.clique));
  EXPECT_EQ(result.clique.size(), exhaustive_omega(g));
}

INSTANTIATE_TEST_SUITE_P(
    RandomSweep, MaxCliqueSweepTest,
    ::testing::Combine(::testing::Values<std::size_t>(10, 14, 17),
                       ::testing::Values(0.3, 0.6, 0.85),
                       ::testing::Values(1, 2, 3)));

// The forbidden-set colour sort builds the same classes in the same order
// as the intersects-based reference, so the search visits the same tree and
// returns the same clique — in memory and off a mapped .gsbg.
TEST(MaxCliqueOracle, MatchesIntersectsColorSortReference) {
  std::size_t comparisons = 0;
  auto check = [&](const std::string& name, const graph::Graph& g) {
    SCOPED_TRACE(name);
    const auto expected = test::reference_maximum_clique(g);
    const test::InMemoryAndMapped backends(g);
    for (const graph::GraphView& view : backends.views()) {
      const auto actual = maximum_clique(view);
      EXPECT_EQ(actual.clique, expected.clique);
      EXPECT_EQ(actual.tree_nodes, expected.tree_nodes);
      ++comparisons;
    }
  };
  for (const auto& [name, g] : test::oracle_graphs()) check(name, g);
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    const std::size_t n = 20 + 7 * (seed % 11);
    const double p = 0.05 + 0.1 * static_cast<double>(seed % 8);
    check("gnp sweep seed=" + std::to_string(seed),
          test::random_graph(n, p, seed));
  }
  // Root branches whose local rows span two or three 64-bit words:
  // degrees of 120-142 in G(300, 0.4), up to 159 in a 330-vertex p = 0.4
  // module scattered over a sparse 700-vertex background, and a 200-leaf
  // star whose hub's branch holds every leaf.  (A 150-vertex p = 0.9
  // module would give such rows too, but its search takes 2.3 M nodes.)
  check("gnp n=300 p=0.4", test::random_graph(300, 0.4, 300));
  util::Rng rng(150);
  graph::ModuleGraphConfig config;
  config.n = 700;
  config.num_modules = 1;
  config.min_module_size = 330;
  config.max_module_size = 330;
  config.p_in = 0.4;
  config.overlap = 0.0;
  config.background_edges = 700;
  check("module 330 p=0.4 on background",
        graph::planted_modules(config, rng).graph);
  graph::Graph star(202);  // hub 1, leaves 2..201, vertex 0 isolated
  for (VertexId v = 2; v < 202; ++v) star.add_edge(1, v);
  check("star n=200", star);
  EXPECT_GT(comparisons, 200u);
}

// The search from a carried lower bound and below an upper bound on ω
// returns maximum_clique's clique: at the bound ω (the first run finds the
// first ω-clique), at ω + 1 (one run proves there is none larger) and at
// ω + 4.  Without a bound it is maximum_clique's search, node for node.
// The lower bound is rebuilt from the seeds' own greedy cliques, as a
// caller that keeps them does.
TEST(MaxCliqueOracle, TargetedSearchReturnsMaximumClique) {
  std::size_t comparisons = 0;
  for (const auto& [name, g] : test::oracle_graphs()) {
    SCOPED_TRACE(name);
    const test::InMemoryAndMapped backends(g);
    for (const graph::GraphView& view : backends.views()) {
      const auto expected = maximum_clique(view);
      Clique lower;
      for (const VertexId seed : highest_degree_vertices(
               {view.degrees_data(), view.order()}, kMaxCliqueSeeds)) {
        Clique clique = greedy_clique(view, seed);
        EXPECT_TRUE(std::is_sorted(clique.begin(), clique.end()));
        if (clique.size() > lower.size()) lower = std::move(clique);
      }
      EXPECT_EQ(lower, greedy_clique_lower_bound(view));
      const auto unbounded = maximum_clique_from(view, lower);
      EXPECT_EQ(unbounded.clique, expected.clique);
      EXPECT_EQ(unbounded.tree_nodes, expected.tree_nodes);
      const std::size_t omega = expected.clique.size();
      for (const std::size_t bound : {omega, omega + 1, omega + 4}) {
        SCOPED_TRACE("bound " + std::to_string(bound));
        EXPECT_EQ(maximum_clique_from(view, lower, bound).clique,
                  expected.clique);
        ++comparisons;
      }
    }
  }
  EXPECT_GT(comparisons, 700u);
}

// highest_degree_vertices is the (degree desc, id asc) order: the prefix
// of a stable sort by descending degree, on degree arrays full of ties.
TEST(MaxClique, HighestDegreeVerticesIsStableSortPrefix) {
  util::Rng rng(22);
  for (const std::size_t n : {0, 1, 9, 64, 300}) {
    for (const std::size_t spread : {1, 3, 12}) {
      std::vector<std::size_t> degrees(n);
      for (std::size_t& d : degrees) d = rng.below(spread);
      for (const std::size_t count : {std::size_t{0}, std::size_t{1},
                                      std::size_t{8}, n, n + 5}) {
        SCOPED_TRACE("n " + std::to_string(n) + " spread " +
                     std::to_string(spread) + " count " +
                     std::to_string(count));
        EXPECT_EQ(highest_degree_vertices(degrees, count),
                  test::reference_highest_degree_vertices(degrees, count));
      }
    }
  }
}

// The search on g without its isolated vertices (ascending ids, mapped
// back) is the search on g.  The seeds are the same vertices: an isolated
// vertex sorts after every vertex with an edge and only grows a one-vertex
// clique, which never beats one with an edge.  At the root it only fills
// colour class 1 and never branches, so both searches take the same
// branches and count the same nodes.  An edgeless g keeps no vertex and
// is skipped.
TEST(MaxCliqueOracle, SearchMatchesWithoutIsolatedVertices) {
  std::size_t comparisons = 0;
  for (const auto& [name, g] : test::oracle_graphs()) {
    SCOPED_TRACE(name);
    std::vector<VertexId> live;
    for (VertexId v = 0; v < g.order(); ++v) {
      if (g.degree(v) > 0) live.push_back(v);
    }
    if (live.empty()) continue;
    const test::InMemoryAndMapped backends(g);
    for (const graph::GraphView& view : backends.views()) {
      const auto expected = maximum_clique(view);
      const auto compact = graph::induced_subgraph(view, live);
      auto result = maximum_clique(compact.graph);
      for (VertexId& v : result.clique) v = compact.mapping[v];
      EXPECT_EQ(result.clique, expected.clique);
      EXPECT_EQ(result.tree_nodes, expected.tree_nodes);
      ++comparisons;
    }
  }
  EXPECT_GT(comparisons, 200u);
}

}  // namespace
}  // namespace gsb::core
