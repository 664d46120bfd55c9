// Tests for paraclique extraction, clique statistics and hub reporting.
// The paraclique oracle compares grow_paraclique / extract_all_paracliques
// against the full-scan references in test_helpers.h on a generated corpus,
// in memory and off a mapped .gsbg.

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <string>
#include <vector>

#include "analysis/clique_stats.h"
#include "analysis/hubs.h"
#include "analysis/paraclique.h"
#include "core/verify.h"
#include "graph/generators.h"
#include "tests/test_helpers.h"

namespace gsb::analysis {
namespace {

using core::Clique;
using graph::Graph;
using graph::VertexId;

Graph clique_with_satellite() {
  // K5 on {0..4}; vertex 5 adjacent to 4 of them; vertex 6 to 2.
  Graph g(7);
  for (VertexId u = 0; u < 5; ++u) {
    for (VertexId v = u + 1; v < 5; ++v) g.add_edge(u, v);
  }
  for (VertexId v = 0; v < 4; ++v) g.add_edge(5, v);
  g.add_edge(6, 0);
  g.add_edge(6, 1);
  return g;
}

void expect_same(const Paraclique& actual, const Paraclique& expected) {
  EXPECT_EQ(actual.members, expected.members);
  EXPECT_EQ(actual.seed_size, expected.seed_size);
  EXPECT_DOUBLE_EQ(actual.density, expected.density);
}

TEST(Paraclique, GlomOneAbsorbsNearMember) {
  const Graph g = clique_with_satellite();
  const Clique seed{0, 1, 2, 3, 4};
  ParacliqueOptions options;
  options.glom = 1;
  const auto para = grow_paraclique(g, seed, options);
  EXPECT_EQ(para.members, (Clique{0, 1, 2, 3, 4, 5}));
  EXPECT_EQ(para.seed_size, 5u);
  EXPECT_LT(para.density, 1.0);
  EXPECT_GT(para.density, 0.9);
}

TEST(Paraclique, GlomZeroAddsOnlyFullNeighbors) {
  const Graph g = clique_with_satellite();
  const Clique seed{0, 1, 2, 3};  // vertices 4 and 5 both see all of these
  ParacliqueOptions options;
  options.glom = 0;
  const auto para = grow_paraclique(g, seed, options);
  // Scan order admits 4 first; afterwards 5 misses member 4, and with
  // glom = 0 the result must stay a clique — so 5 stays out.
  EXPECT_EQ(para.members, (Clique{0, 1, 2, 3, 4}));
  EXPECT_DOUBLE_EQ(para.density, 1.0);
}

TEST(Paraclique, SaturatingGlomAdmitsEveryAdjacentVertex) {
  // A glom of at least the paraclique's size admits every vertex adjacent
  // to a member; glom = SIZE_MAX must not wrap the test back to "none".
  const Graph g = clique_with_satellite();
  ParacliqueOptions options;
  options.glom = g.order();
  const auto by_order = grow_paraclique(g, {0, 1, 2, 3, 4}, options);
  EXPECT_EQ(by_order.members, (Clique{0, 1, 2, 3, 4, 5, 6}));
  options.glom = std::numeric_limits<std::size_t>::max();
  EXPECT_EQ(grow_paraclique(g, {0, 1, 2, 3, 4}, options).members,
            by_order.members);
  options.glom = std::numeric_limits<std::size_t>::max() - 1;
  EXPECT_EQ(grow_paraclique(g, {0, 1, 2, 3, 4}, options).members,
            by_order.members);
}

TEST(Paraclique, ExtractUsesMaximumClique) {
  const Graph g = clique_with_satellite();
  const auto para = extract_paraclique(g, ParacliqueOptions{1});
  EXPECT_EQ(para.seed_size, 5u);
  EXPECT_EQ(para.members.size(), 6u);
}

TEST(Paraclique, ExtractAllFindsPlantedModules) {
  util::Rng rng(13);
  graph::ModuleGraphConfig config;
  config.n = 120;
  config.num_modules = 4;
  config.min_module_size = 8;
  config.max_module_size = 12;
  config.overlap = 0.0;
  config.background_edges = 30;
  const auto mg = graph::planted_modules(config, rng);
  const auto paras = extract_all_paracliques(mg.graph, 6, {1});
  EXPECT_GE(paras.size(), 3u);
  EXPECT_GE(paras.front().members.size(), 12u);
}

TEST(Paraclique, MinSizeBelowTwoActsAsTwo) {
  // Once no edge is left the maximum clique is one vertex, whose paraclique
  // removes nothing: min sizes 0 and 1 stop there, as 2 does.
  // clique_with_satellite plus the isolated vertices 7, 8 and 9.
  const Graph with_isolated =
      Graph::from_edges(10, clique_with_satellite().edge_list());
  const Graph edgeless(6);
  for (const Graph* g : {&with_isolated, &edgeless}) {
    const auto expected = extract_all_paracliques(*g, 2);
    for (const std::size_t min_size : {0, 1}) {
      const auto actual = extract_all_paracliques(*g, min_size);
      ASSERT_EQ(actual.size(), expected.size());
      for (std::size_t i = 0; i < actual.size(); ++i) {
        expect_same(actual[i], expected[i]);
      }
    }
  }
  // {0..5} first, then the two edges 6 keeps: 6 and 0 glom 1.
  const auto paras = extract_all_paracliques(with_isolated, 0);
  ASSERT_EQ(paras.size(), 2u);
  EXPECT_EQ(paras[0].members, (Clique{0, 1, 2, 3, 4, 5}));
  EXPECT_EQ(paras[1].members, (Clique{0, 1, 6}));
  EXPECT_TRUE(extract_all_paracliques(edgeless, 1).empty());
}

// Extraction keeps each seed's greedy clique until an edge inside the seed's
// closed neighbourhood goes.  Here round 1 removes K4 {0..3}, and with it
// the edge {0, 1} inside N(4): seed 4's round-1 clique {0, 1, 4} is no
// longer a clique.  Were it kept, round 2 would start from it (it is the
// first of size 3, ahead of seed 5's {5, 6, 7}) and return it as the
// residue's maximum clique.
TEST(Paraclique, RegrowsGreedyCliqueOfCommonNeighbour) {
  Graph g(8);
  for (VertexId u = 0; u < 4; ++u) {
    for (VertexId v = u + 1; v < 4; ++v) g.add_edge(u, v);
  }
  g.add_edge(4, 0);
  g.add_edge(4, 1);
  g.add_edge(5, 6);
  g.add_edge(6, 7);
  g.add_edge(5, 7);
  const ParacliqueOptions glom_zero{0};
  const auto paras = extract_all_paracliques(g, 2, glom_zero);
  std::vector<Clique> members;
  for (const Paraclique& para : paras) members.push_back(para.members);
  EXPECT_EQ(members,
            (std::vector<Clique>{{0, 1, 2, 3}, {5, 6, 7}, {0, 4}, {1, 4}}));
  const auto reference =
      test::reference_extract_all_paracliques(g, 2, glom_zero);
  ASSERT_EQ(paras.size(), reference.size());
  for (std::size_t i = 0; i < paras.size(); ++i) {
    expect_same(paras[i], reference[i]);
  }
}

// -- oracle: the library against the full-scan references --------------------

/// Glom seeds: the maximum clique, and two small greedy cliques (a random
/// start vertex plus its smallest-id common neighbors, up to 3 members).
std::vector<Clique> oracle_seeds(const Graph& g, util::Rng& rng) {
  std::vector<Clique> seeds{test::reference_maximum_clique(g).clique};
  for (int i = 0; i < 2 && g.order() > 0; ++i) {
    Clique clique{static_cast<VertexId>(rng.below(g.order()))};
    for (VertexId v = 0; v < g.order() && clique.size() < 3; ++v) {
      bool adjacent = true;
      for (const VertexId u : clique) adjacent = adjacent && g.has_edge(u, v);
      if (adjacent) clique.push_back(v);
    }
    std::sort(clique.begin(), clique.end());
    seeds.push_back(std::move(clique));
  }
  return seeds;
}

TEST(ParacliqueOracle, GrowMatchesFullScanReference) {
  util::Rng rng(2005);
  std::size_t comparisons = 0;
  for (const auto& [name, g] : test::oracle_graphs()) {
    SCOPED_TRACE(name);
    const test::InMemoryAndMapped backends(g);
    for (const Clique& seed : oracle_seeds(g, rng)) {
      for (std::size_t glom = 0; glom <= 3; ++glom) {
        const ParacliqueOptions options{glom};
        const auto expected = test::reference_grow_paraclique(g, seed, options);
        for (const graph::GraphView& view : backends.views()) {
          expect_same(grow_paraclique(view, seed, options), expected);
          ++comparisons;
        }
      }
    }
  }
  EXPECT_GT(comparisons, 2900u);
}

TEST(ParacliqueOracle, ExtractAllMatchesReferenceLoop) {
  std::size_t comparisons = 0;
  for (const auto& [name, g] : test::oracle_graphs()) {
    SCOPED_TRACE(name);
    const test::InMemoryAndMapped backends(g);
    for (std::size_t glom = 0; glom <= 3; ++glom) {
      const ParacliqueOptions options{glom};
      const auto reference =
          test::reference_extract_all_paracliques(g, 2, options);
      for (const std::size_t min_size : {2, 3, 5}) {
        SCOPED_TRACE("min size " + std::to_string(min_size));
        // The min size only decides where the loop stops: the reference
        // run at min_size is the min-2 run up to its first smaller seed.
        std::vector<Paraclique> expected;
        for (const Paraclique& para : reference) {
          if (para.seed_size < min_size) break;
          expected.push_back(para);
        }
        for (const graph::GraphView& view : backends.views()) {
          const auto actual = extract_all_paracliques(view, min_size, options);
          ASSERT_EQ(actual.size(), expected.size());
          for (std::size_t i = 0; i < actual.size(); ++i) {
            expect_same(actual[i], expected[i]);
          }
          ++comparisons;
        }
      }
    }
  }
  EXPECT_GT(comparisons, 2900u);
}

// Isolated vertices never join a round: appending them to g (so every
// other id stays) changes no paraclique, in memory or mapped.
TEST(ParacliqueOracle, AppendedIsolatedVerticesChangeNoRound) {
  std::size_t comparisons = 0;
  for (const auto& [name, g] : test::oracle_graphs()) {
    SCOPED_TRACE(name);
    const Graph padded = Graph::from_edges(g.order() + 70, g.edge_list());
    const test::InMemoryAndMapped backends(padded);
    const auto expected = extract_all_paracliques(g, 2);
    for (const graph::GraphView& view : backends.views()) {
      const auto actual = extract_all_paracliques(view, 2);
      ASSERT_EQ(actual.size(), expected.size());
      for (std::size_t i = 0; i < actual.size(); ++i) {
        expect_same(actual[i], expected[i]);
      }
      ++comparisons;
    }
  }
  EXPECT_GT(comparisons, 200u);
}

TEST(CliqueStats, SpectrumAggregates) {
  const std::vector<Clique> cliques{{0, 1}, {1, 2, 3}, {0, 2}, {4, 5, 6, 7}};
  const auto spectrum = clique_spectrum(cliques);
  EXPECT_EQ(spectrum.total, 4u);
  EXPECT_EQ(spectrum.min_size, 2u);
  EXPECT_EQ(spectrum.max_size, 4u);
  EXPECT_DOUBLE_EQ(spectrum.mean_size, 11.0 / 4.0);
  EXPECT_EQ(spectrum.size_histogram.at(2), 2u);
}

TEST(CliqueStats, EmptySpectrum) {
  const auto spectrum = clique_spectrum({});
  EXPECT_EQ(spectrum.total, 0u);
  EXPECT_EQ(spectrum.max_size, 0u);
}

TEST(CliqueStats, Participation) {
  const std::vector<Clique> cliques{{0, 1}, {1, 2}, {1, 3}};
  const auto counts = vertex_participation(5, cliques);
  EXPECT_EQ(counts[1], 3u);
  EXPECT_EQ(counts[0], 1u);
  EXPECT_EQ(counts[4], 0u);
}

TEST(CliqueStats, JaccardOverlap) {
  EXPECT_DOUBLE_EQ(clique_overlap({0, 1, 2}, {1, 2, 3}), 0.5);
  EXPECT_DOUBLE_EQ(clique_overlap({0, 1}, {2, 3}), 0.0);
  EXPECT_DOUBLE_EQ(clique_overlap({0, 1}, {0, 1}), 1.0);
  EXPECT_DOUBLE_EQ(clique_overlap({}, {}), 0.0);
}

TEST(CliqueStats, MeanPairwiseOverlap) {
  const std::vector<Clique> cliques{{0, 1, 2}, {1, 2, 3}, {4, 5}};
  EXPECT_NEAR(mean_pairwise_overlap(cliques), 0.5 / 3.0, 1e-12);
  EXPECT_DOUBLE_EQ(mean_pairwise_overlap({{0, 1}}), 0.0);
}

TEST(Hubs, RanksByDegreeThenParticipation) {
  const Graph g = clique_with_satellite();
  core::CliqueCollector sink;
  core::base_bk(g, sink.callback());
  const auto hubs = top_hubs(g, sink.cliques(), 3);
  ASSERT_EQ(hubs.size(), 3u);
  // Vertices 0 and 1 have degree 6 (K5 + satellite 5 + satellite 6).
  EXPECT_EQ(hubs[0].degree, 6u);
  EXPECT_TRUE(hubs[0].vertex == 0 || hubs[0].vertex == 1);
  EXPECT_GE(hubs[0].clique_participation, 1u);
  const auto top = most_connected_vertex(g, sink.cliques());
  EXPECT_EQ(top.vertex, hubs[0].vertex);
}

TEST(Hubs, EmptyGraphThrows) {
  const Graph g(0);
  EXPECT_THROW(most_connected_vertex(g, {}), std::invalid_argument);
}

}  // namespace
}  // namespace gsb::analysis
