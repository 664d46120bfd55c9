// Tests for the FPT vertex-cover machinery (§2.1) and the complement-graph
// maximum-clique route.

#include <gtest/gtest.h>

#include "core/maximum_clique.h"
#include "core/verify.h"
#include "fpt/max_clique_vc.h"
#include "fpt/vertex_cover.h"
#include "graph/generators.h"
#include "graph/transforms.h"
#include "tests/test_helpers.h"

namespace gsb::fpt {
namespace {

bool covers_all_edges(const graph::Graph& g,
                      const std::vector<VertexId>& cover) {
  std::vector<bool> in_cover(g.order(), false);
  for (VertexId v : cover) {
    if (v >= g.order()) return false;
    in_cover[v] = true;
  }
  for (const auto& [u, v] : g.edge_list()) {
    if (!in_cover[u] && !in_cover[v]) return false;
  }
  return true;
}

/// Brute-force minimum vertex cover for n <= 20.
std::size_t brute_force_vc(const graph::Graph& g) {
  const std::size_t n = g.order();
  const auto edges = g.edge_list();
  std::size_t best = n;
  for (std::uint32_t mask = 0; mask < (1u << n); ++mask) {
    const auto size = static_cast<std::size_t>(__builtin_popcount(mask));
    if (size >= best) continue;
    bool ok = true;
    for (const auto& [u, v] : edges) {
      if (!(mask & (1u << u)) && !(mask & (1u << v))) {
        ok = false;
        break;
      }
    }
    if (ok) best = size;
  }
  return best;
}

TEST(VertexCover, PathAndCycle) {
  // Path on 5 vertices: tau = 2.  Cycle on 5: tau = 3.
  graph::Graph path(5);
  for (VertexId v = 0; v + 1 < 5; ++v) path.add_edge(v, v + 1);
  EXPECT_FALSE(vertex_cover_decide(path, 1).feasible);
  EXPECT_TRUE(vertex_cover_decide(path, 2).feasible);
  EXPECT_EQ(minimum_vertex_cover(path).cover.size(), 2u);

  graph::Graph cycle = path;
  cycle.add_edge(4, 0);
  EXPECT_FALSE(vertex_cover_decide(cycle, 2).feasible);
  EXPECT_TRUE(vertex_cover_decide(cycle, 3).feasible);
  EXPECT_EQ(minimum_vertex_cover(cycle).cover.size(), 3u);
}

TEST(VertexCover, StarIsPendantKernelized) {
  graph::Graph star(9);
  for (VertexId v = 1; v < 9; ++v) star.add_edge(0, v);
  const auto result = vertex_cover_decide(star, 1);
  EXPECT_TRUE(result.feasible);
  ASSERT_EQ(result.cover.size(), 1u);
  EXPECT_EQ(result.cover[0], 0u);
  EXPECT_GT(result.kernel_removals, 0u);
}

TEST(VertexCover, CompleteGraphNeedsAllButOne) {
  util::Rng rng(1);
  const auto k6 = graph::gnp(6, 1.0, rng);
  EXPECT_FALSE(vertex_cover_decide(k6, 4).feasible);
  EXPECT_TRUE(vertex_cover_decide(k6, 5).feasible);
}

TEST(VertexCover, WitnessAlwaysCovers) {
  for (int seed = 1; seed <= 5; ++seed) {
    const auto g = test::random_graph(18, 0.3, seed);
    const auto result = minimum_vertex_cover(g);
    EXPECT_TRUE(covers_all_edges(g, result.cover)) << "seed " << seed;
  }
}

TEST(VertexCover, EmptyAndEdgeless) {
  const graph::Graph empty(0);
  EXPECT_TRUE(vertex_cover_decide(empty, 0).feasible);
  const graph::Graph isolated(5);
  const auto result = vertex_cover_decide(isolated, 0);
  EXPECT_TRUE(result.feasible);
  EXPECT_TRUE(result.cover.empty());
}

TEST(VertexCover, DecisionMonotoneInK) {
  const auto g = test::random_graph(16, 0.4, 9);
  const std::size_t tau = brute_force_vc(g);
  for (std::size_t k = 0; k <= g.order(); ++k) {
    EXPECT_EQ(vertex_cover_decide(g, k).feasible, k >= tau) << "k=" << k;
  }
}

TEST(VertexCover, NodeBudgetAborts) {
  util::Rng rng(13);
  const auto g = graph::gnp(40, 0.5, rng);
  VertexCoverOptions options;
  options.max_nodes = 10;
  options.use_kernelization = false;
  // k large enough that the edge-count bound cannot settle the question in
  // the first few nodes, so the search must exceed the tiny budget.
  const auto result = vertex_cover_decide(g, 20, options);
  EXPECT_TRUE(result.aborted);
}

TEST(VertexCover, BoundsAreBounds) {
  const auto g = test::random_graph(18, 0.35, 21);
  const std::size_t tau = brute_force_vc(g);
  EXPECT_LE(matching_lower_bound(g), tau);
  const auto greedy = greedy_cover(g);
  EXPECT_TRUE(covers_all_edges(g, greedy));
  EXPECT_GE(greedy.size(), tau);
  EXPECT_LE(greedy.size(), 2 * tau);
}

class VcConfigTest : public ::testing::TestWithParam<
                         std::tuple<bool, bool, std::size_t, int>> {};

TEST_P(VcConfigTest, AllConfigsMatchBruteForce) {
  const auto [kernel, folding, n, seed] = GetParam();
  const auto g = test::random_graph(n, 0.35, static_cast<std::uint64_t>(seed));
  VertexCoverOptions options;
  options.use_kernelization = kernel;
  options.use_folding = folding;
  const auto result = minimum_vertex_cover(g, options);
  EXPECT_EQ(result.cover.size(), brute_force_vc(g));
  EXPECT_TRUE(covers_all_edges(g, result.cover));
}

INSTANTIATE_TEST_SUITE_P(
    RuleAblation, VcConfigTest,
    ::testing::Combine(::testing::Bool(), ::testing::Bool(),
                       ::testing::Values<std::size_t>(12, 16),
                       ::testing::Values(1, 2, 3)));

TEST(MaxCliqueVc, GallaiIdentityHolds) {
  // tau(complement) = n - omega(G).
  for (int seed = 1; seed <= 4; ++seed) {
    const auto g = test::random_graph(16, 0.5, seed);
    const auto omega = core::maximum_clique(g).clique.size();
    const auto tau = minimum_vertex_cover(graph::complement(g)).cover.size();
    EXPECT_EQ(tau, g.order() - omega) << "seed " << seed;
  }
}

TEST(MaxCliqueVc, FindsMaximumClique) {
  for (int seed = 1; seed <= 4; ++seed) {
    const auto g = test::random_graph(18, 0.55, seed);
    const auto via_vc = maximum_clique_via_vertex_cover(g);
    EXPECT_TRUE(core::is_clique(g, via_vc.clique));
    EXPECT_EQ(via_vc.clique.size(), core::maximum_clique(g).clique.size());
  }
}

TEST(MaxCliqueVc, DecisionBoundaries) {
  util::Rng rng(31);
  const auto planted = graph::planted_clique(60, 14, 0.08, rng);
  EXPECT_TRUE(has_clique_of_size(planted.graph, 14));
  EXPECT_TRUE(has_clique_of_size(planted.graph, 0));
  EXPECT_FALSE(has_clique_of_size(planted.graph, 61));
}

TEST(MaxCliqueVc, DenseCompatibilityGraphIsEasy) {
  // The intended use case: a dense graph whose complement is sparse, so the
  // VC parameter n - omega is small.
  util::Rng rng(41);
  graph::Graph g = graph::gnp(70, 0.97, rng);
  const auto result = maximum_clique_via_vertex_cover(g);
  EXPECT_TRUE(core::is_clique(g, result.clique));
  EXPECT_GE(result.clique.size(), 40u);
}

}  // namespace
}  // namespace gsb::fpt
