// Tests for the graph substrate: structure, I/O round-trips, generators
// and transformations.

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <functional>
#include <numeric>
#include <optional>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "graph/generators.h"
#include "graph/graph.h"
#include "graph/io.h"
#include "graph/transforms.h"
#include "tests/test_helpers.h"
#include "util/rng.h"

namespace gsb::graph {
namespace {

Graph triangle_plus_pendant() {
  // 0-1-2 triangle, 3 pendant on 2, 4 isolated.
  return Graph::from_edges(5, {{0, 1}, {1, 2}, {0, 2}, {2, 3}});
}

TEST(Graph, BasicStructure) {
  const Graph g = triangle_plus_pendant();
  EXPECT_EQ(g.order(), 5u);
  EXPECT_EQ(g.num_edges(), 4u);
  EXPECT_TRUE(g.has_edge(0, 1));
  EXPECT_TRUE(g.has_edge(1, 0));
  EXPECT_FALSE(g.has_edge(0, 3));
  EXPECT_EQ(g.degree(2), 3u);
  EXPECT_EQ(g.degree(4), 0u);
  EXPECT_EQ(g.max_degree(), 3u);
  EXPECT_DOUBLE_EQ(g.density(), 4.0 / 10.0);
}

TEST(Graph, IgnoresSelfLoopsAndDuplicates) {
  Graph g(3);
  g.add_edge(0, 0);
  g.add_edge(0, 1);
  g.add_edge(1, 0);
  EXPECT_EQ(g.num_edges(), 1u);
  EXPECT_EQ(g.degree(0), 1u);
}

TEST(Graph, RemoveEdge) {
  Graph g = triangle_plus_pendant();
  g.remove_edge(0, 1);
  EXPECT_FALSE(g.has_edge(0, 1));
  EXPECT_EQ(g.num_edges(), 3u);
  g.remove_edge(0, 1);  // no-op
  EXPECT_EQ(g.num_edges(), 3u);
}

TEST(Graph, EdgeListCanonical) {
  const Graph g = triangle_plus_pendant();
  const auto edges = g.edge_list();
  const std::vector<std::pair<VertexId, VertexId>> expect{
      {0, 1}, {0, 2}, {1, 2}, {2, 3}};
  EXPECT_EQ(edges, expect);
}

TEST(Graph, NeighborList) {
  const Graph g = triangle_plus_pendant();
  EXPECT_EQ(g.neighbor_list(2), (std::vector<VertexId>{0, 1, 3}));
  EXPECT_TRUE(g.neighbor_list(4).empty());
}

TEST(Graph, Equality) {
  EXPECT_TRUE(triangle_plus_pendant() == triangle_plus_pendant());
  Graph other = triangle_plus_pendant();
  other.add_edge(3, 4);
  EXPECT_FALSE(triangle_plus_pendant() == other);
}

TEST(GraphIo, DimacsRoundtrip) {
  const Graph g = triangle_plus_pendant();
  std::stringstream stream;
  write_dimacs(g, stream, "test graph");
  const Graph back = read_dimacs(stream);
  EXPECT_TRUE(g == back);
}

TEST(GraphIo, DimacsRejectsMalformed) {
  std::stringstream missing_p("e 1 2\n");
  EXPECT_THROW(read_dimacs(missing_p), std::runtime_error);
  std::stringstream bad_edge("p edge 3 1\ne 1 9\n");
  EXPECT_THROW(read_dimacs(bad_edge), std::runtime_error);
  std::stringstream bad_kind("p edge 2 0\nq 1 2\n");
  EXPECT_THROW(read_dimacs(bad_kind), std::runtime_error);
}

TEST(GraphIo, EdgeListRoundtrip) {
  const Graph g = triangle_plus_pendant();
  std::stringstream stream;
  write_edge_list(g, stream);
  const Graph back = read_edge_list(stream);
  EXPECT_TRUE(g == back);
}

TEST(GraphIo, EdgeListComments) {
  std::stringstream stream("# header\n4\n0 1 # trailing\n# mid\n2 3\n");
  const Graph g = read_edge_list(stream);
  EXPECT_EQ(g.order(), 4u);
  EXPECT_EQ(g.num_edges(), 2u);
  EXPECT_TRUE(g.has_edge(0, 1));
  EXPECT_TRUE(g.has_edge(2, 3));
}

TEST(GraphIo, BinaryRoundtrip) {
  util::Rng rng(3);
  const Graph g = gnp(60, 0.2, rng);
  std::stringstream stream(std::ios::in | std::ios::out | std::ios::binary);
  write_binary(g, stream);
  const Graph back = read_binary(stream);
  EXPECT_TRUE(g == back);
}

TEST(GraphIo, BinaryRejectsBadMagic) {
  std::stringstream stream(std::ios::in | std::ios::out | std::ios::binary);
  stream << "NOPE";
  EXPECT_THROW(read_binary(stream), std::runtime_error);
}

// The text readers tokenize the whole input at once; every line must read
// as it did through one std::istringstream per line.  Each row is the input
// and either the graph it gives (order, edge list) or the error it throws.
struct TextCase {
  const char* name;
  bool dimacs;  ///< DIMACS, else the edge list
  std::string text;
  std::optional<std::pair<std::size_t, std::vector<std::pair<VertexId, VertexId>>>>
      graph;          ///< nullopt: rejected
  std::string error;  ///< the rejection's what()
};

std::vector<TextCase> text_cases() {
  using Edges = std::vector<std::pair<VertexId, VertexId>>;
  const auto ok = [](std::size_t n, Edges edges) {
    return std::make_optional(std::make_pair(n, std::move(edges)));
  };
  const std::nullopt_t no = std::nullopt;
  const std::string bad_edge = "graph io: bad edge line";
  const std::string bad_problem = "graph io: bad problem line";
  // A blank line's kind is '\0', which ends what() there.
  const std::string blank_kind = "graph io: unrecognized line kind '";
  const std::string range = "graph io: edge endpoint out of range";
  const std::string no_header = "graph io: missing vertex-count header";
  return {
      {"dimacs plain", true, "p edge 3 2\ne 1 2\ne 2 3\n", ok(3, {{0, 1}, {1, 2}}), ""},
      {"dimacs tabs", true, "p\tedge\t3\t2\ne\t1\t2\n\te 2\t3\n", ok(3, {{0, 1}, {1, 2}}), ""},
      {"dimacs crlf", true, "c from windows\r\np edge 3 1\r\ne 1 3\r\n", ok(3, {{0, 2}}), ""},
      {"dimacs crlf blank line", true, "p edge 3 1\r\n\r\ne 1 2\r\n", no, blank_kind},
      {"dimacs empty lines", true, "p edge 3 1\n\ne 1 2\n\n", ok(3, {{0, 1}}), ""},
      {"dimacs spaces-only line", true, "p edge 3 1\n  \ne 1 2\n", no, blank_kind},
      {"dimacs tab-only line", true, "p edge 3 1\n\t\ne 1 2\n", no, blank_kind},
      {"dimacs vt ff separators", true, "p edge 3 1\ne\v1\f2\n", ok(3, {{0, 1}}), ""},
      {"dimacs trailing tokens", true, "p edge 3 1 extra\ne 1 2 9 9\n", ok(3, {{0, 1}}), ""},
      {"dimacs trailing space", true, "p edge 3 1 \ne 1 2 \n", ok(3, {{0, 1}}), ""},
      {"dimacs no final newline", true, "p edge 2 1\ne 1 2", ok(2, {{0, 1}}), ""},
      {"dimacs glued edge", true, "p edge 3 1\ne1 2\n", ok(3, {{0, 1}}), ""},
      {"dimacs glued problem", true, "pedge 3 1\ne 1 2\n", ok(3, {{0, 1}}), ""},
      {"dimacs glued tag and count", true, "p edge3 1\ne 1 2\n", no, bad_problem},
      {"dimacs last number suffix", true, "p edge 3 1x\ne 1 2x\n", ok(3, {{0, 1}}), ""},
      {"dimacs first id suffix", true, "p edge 3 1\ne 1x 2\n", no, bad_edge},
      {"dimacs order suffix", true, "p edge 3x 1\ne 1 2\n", no, bad_problem},
      {"dimacs plus signs", true, "p edge +3 +1\ne +1 +2\n", ok(3, {{0, 1}}), ""},
      {"dimacs minus id", true, "p edge 3 1\ne -1 2\n", no, bad_edge},
      {"dimacs minus edge count", true, "p edge 3 -1\ne 1 2\n", ok(3, {{0, 1}}), ""},
      {"dimacs minus zero order", true, "p edge -0 0\n", ok(0, {}), ""},
      {"dimacs sign only", true, "p edge 3 1\ne - 2\n", no, bad_edge},
      {"dimacs double sign", true, "p edge 3 1\ne +-1 2\n", no, bad_edge},
      {"dimacs id 0", true, "p edge 3 1\ne 0 1\n", no, bad_edge},
      {"dimacs id n+1", true, "p edge 3 1\ne 1 4\n", no, bad_edge},
      {"dimacs id n", true, "p edge 3 1\ne 3 1\n", ok(3, {{0, 2}}), ""},
      {"dimacs self loop and repeats", true, "p edge 3 1\ne 2 2\ne 1 2\ne 2 1\n", ok(3, {{0, 1}}), ""},
      {"dimacs leading zeros", true, "p edge 0003 01\ne 001 03\n", ok(3, {{0, 2}}), ""},
      {"dimacs u64 max id", true, "p edge 3 1\ne 18446744073709551615 1\n", no, bad_edge},
      {"dimacs u64 overflow id", true, "p edge 3 1\ne 18446744073709551616 1\n", no, bad_edge},
      {"dimacs u64 overflow second id", true, "p edge 3 1\ne 1 99999999999999999999\n", no, bad_edge},
      {"dimacs u64 max edge count", true, "p edge 3 18446744073709551615\ne 1 2\n", ok(3, {{0, 1}}), ""},
      {"dimacs u64 overflow edge count", true, "p edge 3 18446744073709551616\ne 1 2\n", no, bad_problem},
      {"dimacs edge before problem", true, "e 1 2\np edge 3 1\n", no, "graph io: edge before problem line"},
      {"dimacs second problem line", true, "p edge 3 1\ne 1 2\np edge 4 1\ne 3 4\n", ok(4, {{2, 3}}), ""},
      {"dimacs col tag", true, "p col 3 1\ne 1 3\n", ok(3, {{0, 2}}), ""},
      {"dimacs unknown tag", true, "p graph 3 1\ne 1 3\n", no, bad_problem},
      {"dimacs short problem", true, "p edge 3\n", no, bad_problem},
      {"dimacs bare problem", true, "p\n", no, bad_problem},
      {"dimacs short edge", true, "p edge 3 1\ne 1\n", no, bad_edge},
      {"dimacs bare edge", true, "p edge 3 1\ne\n", no, bad_edge},
      {"dimacs unknown kind", true, "p edge 3 1\nx 1 2\n", no, "graph io: unrecognized line kind 'x'"},
      {"dimacs node line", true, "p edge 3 1\nn 1 1\n", no, "graph io: unrecognized line kind 'n'"},
      {"dimacs hash comment", true, "# no\np edge 3 1\n", no, "graph io: unrecognized line kind '#'"},
      {"dimacs comment forms", true, "comment line\np edge 3 1\n  c indented\ne 1 2\n", ok(3, {{0, 1}}), ""},
      {"dimacs comment after edges", true, "p edge 3 1\ne 1 2\nc note\n", ok(3, {{0, 1}}), ""},
      {"dimacs missing problem", true, "c only a comment\n", no, "graph io: missing problem line"},
      {"dimacs empty input", true, "", no, "graph io: missing problem line"},
      {"dimacs newline only", true, "\n", no, "graph io: missing problem line"},
      {"edges plain", false, "3\n0 1\n1 2\n", ok(3, {{0, 1}, {1, 2}}), ""},
      {"edges comments", false, "# header\n3 # n\n0 1 # edge\n# 1 2\n", ok(3, {{0, 1}}), ""},
      {"edges glued comments", false, "3#n\n0 1#e\n2#1\n", ok(3, {{0, 1}}), ""},
      {"edges short lines", false, "3\n0\n1 2\n2\n", ok(3, {{1, 2}}), ""},
      {"edges blank lines", false, "\n3\n\n   \n\t\n0 1\n", ok(3, {{0, 1}}), ""},
      {"edges junk before header", false, "abc\n3\n0 1\n", ok(3, {{0, 1}}), ""},
      {"edges junk lines", false, "3\nfoo bar\n0 1\n1 x\n", ok(3, {{0, 1}}), ""},
      {"edges trailing tokens", false, "3 4\n0 1 2\n", ok(3, {{0, 1}}), ""},
      {"edges tabs crlf", false, "3\r\n0\t1\r\n\r\n1\t2\r\n", ok(3, {{0, 1}, {1, 2}}), ""},
      {"edges id n", false, "3\n0 3\n", no, range},
      {"edges id n-1", false, "3\n2 0\n", ok(3, {{0, 2}}), ""},
      {"edges minus id", false, "3\n-1 2\n", no, range},
      {"edges plus ids", false, "3\n+1 +2\n", ok(3, {{1, 2}}), ""},
      {"edges minus zero", false, "3\n-0 1\n", ok(3, {{0, 1}}), ""},
      {"edges u64 overflow id skips the line", false, "3\n18446744073709551616 1\n0 2\n", ok(3, {{0, 2}}), ""},
      {"edges u64 max id", false, "3\n18446744073709551615 1\n", no, range},
      {"edges u64 overflow header skips the line", false, "18446744073709551616\n3\n0 1\n", ok(3, {{0, 1}}), ""},
      {"edges last id suffix", false, "3\n0 1x\n", ok(3, {{0, 1}}), ""},
      {"edges first id suffix skips the line", false, "3\n0x 1\n1 2\n", ok(3, {{1, 2}}), ""},
      {"edges self loop and repeats", false, "3\n1 1\n0 1\n1 0\n", ok(3, {{0, 1}}), ""},
      {"edges no final newline", false, "2\n0 1", ok(2, {{0, 1}}), ""},
      {"edges zero order", false, "0\n", ok(0, {}), ""},
      {"edges sign only skips the line", false, "3\n- 1\n0 1\n", ok(3, {{0, 1}}), ""},
      {"edges missing header", false, "# only a comment\n", no, no_header},
      {"edges empty input", false, "", no, no_header},
      {"edges commented header", false, "#3\n", no, no_header},
  };
}

TEST(GraphIo, TextReadersTable) {
  const test::TempFile file("graph_io_text");
  for (const TextCase& c : text_cases()) {
    SCOPED_TRACE(c.name);
    {
      std::ofstream out(file.path(), std::ios::binary);
      out << c.text;
    }
    const auto read_stream = [&] {
      std::istringstream in(c.text);
      return c.dimacs ? read_dimacs(in) : read_edge_list(in);
    };
    const auto read_file = [&] {
      return c.dimacs ? read_dimacs_file(file.path())
                      : read_edge_list_file(file.path());
    };
    for (const auto& read : {std::function<Graph()>(read_stream),
                             std::function<Graph()>(read_file)}) {
      if (c.graph) {
        const Graph g = read();
        EXPECT_EQ(g.order(), c.graph->first);
        EXPECT_EQ(g.edge_list(), c.graph->second);
      } else {
        try {
          read();
          ADD_FAILURE() << "accepted";
        } catch (const std::runtime_error& e) {
          EXPECT_EQ(std::string(e.what()), c.error);
        }
      }
    }
  }
}

TEST(Generators, GnpEdgeCases) {
  util::Rng rng(1);
  EXPECT_EQ(gnp(50, 0.0, rng).num_edges(), 0u);
  const Graph full = gnp(20, 1.0, rng);
  EXPECT_EQ(full.num_edges(), 190u);
}

TEST(Generators, GnpDensityNearP) {
  util::Rng rng(11);
  const Graph g = gnp(400, 0.1, rng);
  EXPECT_NEAR(g.density(), 0.1, 0.02);
}

TEST(Generators, GnmExactEdges) {
  util::Rng rng(5);
  const Graph g = gnm(100, 321, rng);
  EXPECT_EQ(g.num_edges(), 321u);
  EXPECT_EQ(gnm(10, 1000, rng).num_edges(), 45u);  // clamped to max
}

TEST(Generators, BarabasiAlbertConnectedHeavyTail) {
  util::Rng rng(9);
  const Graph g = barabasi_albert(300, 2, rng);
  EXPECT_GE(g.num_edges(), 2u * (300 - 3));
  const auto comps = connected_components(g);
  EXPECT_EQ(comps.count, 1u);
  EXPECT_GT(g.max_degree(), 10u);  // hubs emerge
}

TEST(Generators, PlantedCliqueIsClique) {
  util::Rng rng(21);
  const auto planted = planted_clique(200, 12, 0.05, rng);
  ASSERT_EQ(planted.members.size(), 12u);
  for (std::size_t i = 0; i < planted.members.size(); ++i) {
    for (std::size_t j = i + 1; j < planted.members.size(); ++j) {
      EXPECT_TRUE(planted.graph.has_edge(planted.members[i],
                                         planted.members[j]));
    }
  }
}

TEST(Generators, PlantedModulesStructure) {
  util::Rng rng(33);
  ModuleGraphConfig config;
  config.n = 300;
  config.num_modules = 12;
  config.min_module_size = 4;
  config.max_module_size = 15;
  config.p_in = 1.0;
  config.background_edges = 50;
  const ModuleGraph result = planted_modules(config, rng);
  ASSERT_EQ(result.modules.size(), 12u);
  EXPECT_EQ(result.modules[0].size(), 15u);  // first forced to max
  for (const auto& module : result.modules) {
    for (std::size_t i = 0; i < module.size(); ++i) {
      for (std::size_t j = i + 1; j < module.size(); ++j) {
        EXPECT_TRUE(result.graph.has_edge(module[i], module[j]));
      }
    }
  }
}

TEST(Generators, PlantedModulesEdgeTarget) {
  util::Rng rng(41);
  ModuleGraphConfig config;
  config.n = 500;
  config.num_modules = 10;
  config.max_module_size = 10;
  const ModuleGraph result = planted_modules_with_edges(config, 2000, rng);
  EXPECT_GE(result.graph.num_edges(), 1900u);
  EXPECT_LE(result.graph.num_edges(), 2100u);
}

TEST(Transforms, ComplementInvolution) {
  util::Rng rng(7);
  const Graph g = gnp(40, 0.3, rng);
  const Graph comp = complement(g);
  EXPECT_EQ(g.num_edges() + comp.num_edges(), 40u * 39u / 2u);
  EXPECT_TRUE(complement(comp) == g);
}

TEST(Transforms, InducedSubgraph) {
  const Graph g = triangle_plus_pendant();
  const auto sub = induced_subgraph(g, {2, 0, 1, 2});
  EXPECT_EQ(sub.graph.order(), 3u);
  EXPECT_EQ(sub.graph.num_edges(), 3u);  // the triangle
  EXPECT_EQ(sub.mapping, (std::vector<VertexId>{0, 1, 2}));
}

/// induced_subgraph as it was built before: one has_edge test per pair.
InducedSubgraph pairwise_induced_subgraph(const GraphView& g,
                                          std::vector<VertexId> vertices) {
  std::sort(vertices.begin(), vertices.end());
  vertices.erase(std::unique(vertices.begin(), vertices.end()), vertices.end());
  InducedSubgraph out{Graph(vertices.size()), vertices};
  for (std::size_t i = 0; i < vertices.size(); ++i) {
    for (std::size_t j = i + 1; j < vertices.size(); ++j) {
      if (g.has_edge(vertices[i], vertices[j])) {
        out.graph.add_edge(static_cast<VertexId>(i), static_cast<VertexId>(j));
      }
    }
  }
  return out;
}

// The masked-row build gives the pairwise build's graph bit for bit, in
// memory and mapped: every vertex, the vertices with an edge, and random
// subsets (empty, one vertex, duplicated and unsorted ids, ids at 63 mod
// 64).
TEST(Transforms, InducedSubgraphMatchesPairwise) {
  util::Rng rng(64);
  std::size_t comparisons = 0;
  auto check = [&](const std::string& name, const Graph& g) {
    SCOPED_TRACE(name);
    const std::size_t n = g.order();
    std::vector<std::vector<VertexId>> subsets{{}};
    std::vector<VertexId> all(n);
    std::iota(all.begin(), all.end(), VertexId{0});
    subsets.push_back(all);
    std::vector<VertexId> live;
    for (VertexId v = 0; v < n; ++v) {
      if (g.degree(v) > 0) live.push_back(v);
    }
    subsets.push_back(live);
    if (n > 0) {
      subsets.push_back({static_cast<VertexId>(rng.below(n))});
      std::vector<VertexId> word_ends;  // 63 mod 64 and their neighbours
      for (std::size_t v = 63; v < n; v += 64) {
        for (std::size_t u = v - 1; u <= std::min(v + 1, n - 1); ++u) {
          word_ends.push_back(static_cast<VertexId>(u));
        }
      }
      word_ends.push_back(static_cast<VertexId>(n - 1));
      subsets.push_back(word_ends);
      for (int draw = 0; draw < 3; ++draw) {
        std::vector<VertexId> subset;  // unsorted, with duplicates
        for (std::size_t i = 0; i < n / 2 + 1; ++i) {
          subset.push_back(static_cast<VertexId>(rng.below(n)));
        }
        subsets.push_back(std::move(subset));
      }
    }
    const test::InMemoryAndMapped backends(g);
    for (const GraphView& view : backends.views()) {
      for (const auto& subset : subsets) {
        const auto expected = pairwise_induced_subgraph(view, subset);
        const auto actual = induced_subgraph(view, subset);
        EXPECT_TRUE(actual.graph == expected.graph);
        EXPECT_EQ(actual.graph.num_edges(), expected.graph.num_edges());
        EXPECT_EQ(actual.mapping, expected.mapping);
        ++comparisons;
      }
    }
  };
  for (const auto& [name, g] : test::oracle_graphs()) check(name, g);
  check("gnp n=300 p=0.1", test::random_graph(300, 0.1, 300));
  check("gnp n=129 p=0.5", test::random_graph(129, 0.5, 129));
  EXPECT_GT(comparisons, 1500u);
}

TEST(Transforms, KcoreMaskIteratedPeeling) {
  // Path 0-1-2-3 plus triangle 4-5-6: the 2-core is exactly the triangle.
  const Graph g = Graph::from_edges(
      7, {{0, 1}, {1, 2}, {2, 3}, {4, 5}, {5, 6}, {4, 6}});
  const auto mask = kcore_mask(g, 2);
  EXPECT_FALSE(mask.test(0));
  EXPECT_FALSE(mask.test(1));  // iterated: falls after 0 leaves
  EXPECT_FALSE(mask.test(2));
  EXPECT_FALSE(mask.test(3));
  EXPECT_TRUE(mask.test(4));
  EXPECT_TRUE(mask.test(5));
  EXPECT_TRUE(mask.test(6));
  const auto sub = kcore_subgraph(g, 2);
  EXPECT_EQ(sub.graph.order(), 3u);
  EXPECT_EQ(sub.graph.num_edges(), 3u);
}

TEST(Transforms, KcoreZeroKeepsAll) {
  const Graph g = triangle_plus_pendant();
  EXPECT_EQ(kcore_mask(g, 0).count(), 5u);
}

TEST(Transforms, DegeneracyOfCompleteAndTree) {
  util::Rng rng(3);
  const Graph complete = gnp(12, 1.0, rng);
  EXPECT_EQ(core_decomposition(complete).degeneracy, 11u);
  // A path has degeneracy 1.
  Graph path(10);
  for (VertexId v = 0; v + 1 < 10; ++v) path.add_edge(v, v + 1);
  const auto result = core_decomposition(path);
  EXPECT_EQ(result.degeneracy, 1u);
  EXPECT_EQ(result.order.size(), 10u);
  EXPECT_EQ(result.core, std::vector<std::uint32_t>(10, 1));
}

TEST(Transforms, CoreDecompositionOfEmptyAndEdgeless) {
  const auto empty = core_decomposition(Graph(0));
  EXPECT_TRUE(empty.order.empty());
  EXPECT_TRUE(empty.core.empty());
  EXPECT_EQ(empty.degeneracy, 0u);
  EXPECT_EQ(kcore_mask(Graph(0), 0).size(), 0u);
  EXPECT_EQ(kcore_mask(Graph(0), 3).size(), 0u);
  const auto edgeless = core_decomposition(Graph(5));
  EXPECT_EQ(edgeless.order, (std::vector<VertexId>{4, 3, 2, 1, 0}));
  EXPECT_EQ(edgeless.core, std::vector<std::uint32_t>(5, 0));
  EXPECT_EQ(edgeless.degeneracy, 0u);
  EXPECT_EQ(kcore_mask(Graph(5), 0).count(), 5u);
  EXPECT_EQ(kcore_mask(Graph(5), 1).count(), 0u);
}

// The one peel against the two it replaced (test_helpers.h): the removal
// order and degeneracy equal the bucket peel's, and for every k both
// {v : core[v] >= k} and the stopped peel equal the queue peel's k-core.
// In memory, mapped, and from a degree-sorted container (mapped, and its
// stored graph in memory).
TEST(Transforms, CoreDecompositionMatchesReferencePeels) {
  std::size_t comparisons = 0;
  const auto check = [&](const std::string& name, const Graph& g) {
    SCOPED_TRACE(name);
    test::TempFile plain_file("core_plain");
    test::TempFile sorted_file("core_sorted");
    storage::write_gsbg_file(g, plain_file.path());
    storage::GsbgWriteOptions sort;
    sort.degree_sort = true;
    storage::write_gsbg_file(g, sorted_file.path(), sort);
    const auto plain = storage::MappedGraph::open(plain_file.path());
    const auto sorted = storage::MappedGraph::open(sorted_file.path());
    const Graph sorted_stored = sorted.load();
    for (const GraphView& view : {GraphView(g), plain.view(),
                                  GraphView(sorted_stored), sorted.view()}) {
      const CoreDecomposition cores = core_decomposition(view);
      const test::ReferenceDegeneracy expected =
          test::reference_degeneracy_order(view);
      EXPECT_EQ(cores.order, expected.order);
      EXPECT_EQ(cores.degeneracy, expected.degeneracy);
      ASSERT_EQ(cores.core.size(), view.order());
      for (std::size_t k = 0; k <= cores.degeneracy + 1; ++k) {
        const bits::DynamicBitset reference = test::reference_kcore_mask(view, k);
        bits::DynamicBitset from_core(view.order());
        for (VertexId v = 0; v < view.order(); ++v) {
          if (cores.core[v] >= k) from_core.set(v);
        }
        EXPECT_TRUE(from_core == reference) << "k " << k;
        EXPECT_TRUE(kcore_mask(view, k) == reference) << "k " << k;
        ++comparisons;
      }
    }
  };
  for (const auto& [name, g] : test::oracle_graphs()) check(name, g);
  for (const std::size_t n : {50, 150, 300}) {
    for (const double p : {0.02, 0.05, 0.1, 0.3}) {
      for (std::uint64_t seed = 1; seed <= 3; ++seed) {
        check("gnp n=" + std::to_string(n) + " p=" + std::to_string(p) +
                  " seed=" + std::to_string(seed),
              test::random_graph(n, p, seed * 7919 + n));
      }
    }
  }
  EXPECT_GT(comparisons, 5000u);
}

TEST(Transforms, ConnectedComponents) {
  const Graph g = Graph::from_edges(6, {{0, 1}, {1, 2}, {3, 4}});
  const auto comps = connected_components(g);
  EXPECT_EQ(comps.count, 3u);
  EXPECT_EQ(comps.component[0], comps.component[1]);
  EXPECT_EQ(comps.component[1], comps.component[2]);
  EXPECT_EQ(comps.component[3], comps.component[4]);
  EXPECT_NE(comps.component[0], comps.component[3]);
  EXPECT_NE(comps.component[3], comps.component[5]);
}

TEST(Transforms, RelabelPreservesStructure) {
  const Graph g = triangle_plus_pendant();
  const std::vector<VertexId> perm{4, 3, 2, 1, 0};  // reverse
  const Graph relabeled = relabel(g, perm);
  EXPECT_EQ(relabeled.num_edges(), g.num_edges());
  // new vertex i is old perm[i]: old edge (0,1) -> new (4,3).
  EXPECT_TRUE(relabeled.has_edge(4, 3));
  EXPECT_TRUE(relabeled.has_edge(2, 1));  // old (2,3)
}

TEST(Transforms, RelabelRejectsNonPermutation) {
  const Graph g = triangle_plus_pendant();
  EXPECT_THROW(relabel(g, {0, 0, 1, 2, 3}), std::invalid_argument);
  EXPECT_THROW(relabel(g, {0, 1}), std::invalid_argument);
}

}  // namespace
}  // namespace gsb::graph

namespace gsb::graph {
namespace {

TEST(GraphIo, BinaryRejectsTruncated) {
  util::Rng rng(5);
  const Graph g = gnp(20, 0.3, rng);
  std::stringstream stream(std::ios::in | std::ios::out | std::ios::binary);
  write_binary(g, stream);
  std::string bytes = stream.str();
  bytes.resize(bytes.size() / 2);  // cut mid-edge-list
  std::stringstream cut(bytes, std::ios::in | std::ios::binary);
  EXPECT_THROW(read_binary(cut), std::runtime_error);
}

TEST(GraphIo, EdgeListRejectsOutOfRange) {
  std::stringstream stream("3\n0 7\n");
  EXPECT_THROW(read_edge_list(stream), std::runtime_error);
}

TEST(Generators, PlantModuleRespectsOverlapZero) {
  util::Rng rng(9);
  Graph g(200);
  std::vector<VertexId> used;
  bits::DynamicBitset used_mask(200);
  const auto first = plant_module(g, 20, 1.0, 0.0, used, used_mask, rng);
  const auto second = plant_module(g, 20, 1.0, 0.0, used, used_mask, rng);
  // With overlap 0 and plenty of fresh vertices, modules are disjoint.
  std::vector<VertexId> inter;
  std::set_intersection(first.begin(), first.end(), second.begin(),
                        second.end(), std::back_inserter(inter));
  EXPECT_TRUE(inter.empty());
}

TEST(Generators, SampleModuleSizeStaysInBounds) {
  util::Rng rng(13);
  for (int i = 0; i < 200; ++i) {
    const auto s = sample_module_size(4, 12, 1.7, rng);
    EXPECT_GE(s, 4u);
    EXPECT_LE(s, 12u);
  }
  EXPECT_EQ(sample_module_size(5, 5, 2.0, rng), 5u);
  EXPECT_EQ(sample_module_size(7, 3, 2.0, rng), 7u);  // hi <= lo -> lo
}

}  // namespace
}  // namespace gsb::graph
