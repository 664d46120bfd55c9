#ifndef GSB_TESTS_TEST_HELPERS_H
#define GSB_TESTS_TEST_HELPERS_H

/// Shared fixtures for the test suites: seeded random graphs,
/// collector-based wrappers that return normalized clique sets for
/// order-insensitive comparison, scratch .gsbg files, and the scalar
/// references (the queue k-core peel and the bucket degeneracy peel,
/// full-scan glom, stable-sorted seed order, n-bit greedy bound and
/// intersects-based colour sort, comparison-sorted quantile
/// normalization) the oracle tests compare the library against.

#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <numeric>
#include <string>
#include <system_error>
#include <utility>
#include <vector>

#include "analysis/paraclique.h"
#include "bio/expression.h"
#include "bitset/dynamic_bitset.h"
#include "core/bron_kerbosch.h"
#include "core/clique.h"
#include "core/clique_enumerator.h"
#include "core/kose.h"
#include "core/maximum_clique.h"
#include "core/parallel_enumerator.h"
#include "core/verify.h"
#include "graph/generators.h"
#include "graph/graph.h"
#include "graph/graph_view.h"
#include "graph/transforms.h"
#include "storage/gsbg_writer.h"
#include "storage/mapped_graph.h"
#include "util/rng.h"

namespace gsb::test {

inline graph::Graph random_graph(std::size_t n, double p,
                                 std::uint64_t seed) {
  util::Rng rng(seed);
  return graph::gnp(n, p, rng);
}

inline std::vector<core::Clique> run_base_bk(const graph::Graph& g,
                                             const core::SizeRange& range = {}) {
  core::CliqueCollector out;
  core::base_bk(g, out.callback(), range);
  return core::normalize(std::move(out.cliques()));
}

inline std::vector<core::Clique> run_improved_bk(
    const graph::Graph& g, const core::SizeRange& range = {}) {
  core::CliqueCollector out;
  core::improved_bk(g, out.callback(), range);
  return core::normalize(std::move(out.cliques()));
}

inline std::vector<core::Clique> run_clique_enumerator(
    const graph::Graph& g, core::CliqueEnumeratorOptions options = {}) {
  core::CliqueCollector out;
  core::enumerate_maximal_cliques(g, out.callback(), options);
  return core::normalize(std::move(out.cliques()));
}

inline std::vector<core::Clique> run_parallel_enumerator(
    const graph::Graph& g, core::ParallelOptions options = {}) {
  core::CliqueCollector out;
  core::enumerate_maximal_cliques_parallel(g, out.callback(), options);
  return core::normalize(std::move(out.cliques()));
}

inline std::vector<core::Clique> run_kose(const graph::Graph& g,
                                          core::KoseOptions options = {}) {
  core::CliqueCollector out;
  core::kose_ram(g, out.callback(), options);
  return core::normalize(std::move(out.cliques()));
}

/// Unique scratch .gsbg path, removed at scope exit.
class TempFile {
 public:
  explicit TempFile(const std::string& stem) {
    static int counter = 0;
    path_ = (std::filesystem::temp_directory_path() /
             (stem + "_" + std::to_string(::getpid()) + "_" +
              std::to_string(counter++) + ".gsbg"))
                .string();
  }
  ~TempFile() {
    std::error_code ec;
    std::filesystem::remove(path_, ec);
  }
  TempFile(const TempFile&) = delete;
  TempFile& operator=(const TempFile&) = delete;
  [[nodiscard]] const std::string& path() const noexcept { return path_; }

 private:
  std::string path_;
};

/// Reference for graph::kcore_mask: a queue peel of every vertex whose
/// degree falls below k.
inline bits::DynamicBitset reference_kcore_mask(const graph::GraphView& g,
                                                std::size_t k) {
  const std::size_t n = g.order();
  bits::DynamicBitset alive(n);
  alive.set_all();
  std::vector<std::size_t> degree(n);
  std::vector<graph::VertexId> queue;
  for (graph::VertexId v = 0; v < n; ++v) {
    degree[v] = g.degree(v);
    if (degree[v] < k) queue.push_back(v);
  }
  while (!queue.empty()) {
    const graph::VertexId v = queue.back();
    queue.pop_back();
    if (!alive.test(v)) continue;
    alive.reset(v);
    g.for_each_neighbor(v, [&](graph::VertexId u) {
      if (alive.test(u) && degree[u]-- == k) queue.push_back(u);
    });
  }
  return alive;
}

/// Reference for graph::core_decomposition's order and degeneracy: a
/// bucket peel with one std::vector stack per degree, whose stale entries
/// (left behind when a vertex's degree falls) are skipped when popped.
struct ReferenceDegeneracy {
  std::vector<graph::VertexId> order;  ///< removal order
  std::size_t degeneracy = 0;          ///< max degree at removal time
};
inline ReferenceDegeneracy reference_degeneracy_order(
    const graph::GraphView& g) {
  const std::size_t n = g.order();
  ReferenceDegeneracy result;
  result.order.reserve(n);
  std::vector<std::size_t> degree(n);
  bits::DynamicBitset alive(n);
  alive.set_all();

  // Bucket queue over degrees.
  std::vector<std::vector<graph::VertexId>> buckets(n + 1);
  for (graph::VertexId v = 0; v < n; ++v) {
    degree[v] = g.degree(v);
    buckets[degree[v]].push_back(v);
  }
  std::size_t cursor = 0;
  for (std::size_t removed = 0; removed < n; ++removed) {
    // Find the next live minimum-degree vertex, skipping stale bucket
    // entries (vertices re-filed after a degree decrease leave their old
    // entries behind; the check below discards them).
    graph::VertexId v = 0;
    while (true) {
      auto& bucket = buckets[cursor];
      if (bucket.empty()) {
        ++cursor;
        continue;
      }
      v = bucket.back();
      bucket.pop_back();
      if (alive.test(v) && degree[v] == cursor) break;
    }
    result.degeneracy = std::max(result.degeneracy, cursor);
    alive.reset(v);
    result.order.push_back(v);
    g.for_each_neighbor(v, [&](graph::VertexId u) {
      if (alive.test(u)) {
        --degree[u];
        buckets[degree[u]].push_back(u);
        if (degree[u] < cursor) cursor = degree[u];
      }
    });
  }
  return result;
}

/// Scalar reference for analysis::grow_paraclique: the full-scan glom.
/// Every pass re-tests every non-member in ascending order with an
/// AND+popcount against the member set, so a vertex counts as a member the
/// moment it joins.  (The comparison is written `member_count - links <=
/// glom`, which cannot wrap for any glom.)
inline analysis::Paraclique reference_grow_paraclique(
    const graph::GraphView& g, const core::Clique& seed_clique,
    const analysis::ParacliqueOptions& options) {
  using bits::DynamicBitset;
  analysis::Paraclique result;
  result.seed_size = seed_clique.size();
  DynamicBitset members(g.order());
  for (const graph::VertexId v : seed_clique) members.set(v);
  std::size_t member_count = seed_clique.size();
  bool grew = true;
  while (grew) {
    grew = false;
    for (graph::VertexId v = 0; v < g.order(); ++v) {
      if (members.test(v)) continue;
      const std::size_t links =
          DynamicBitset::count_and(members, g.neighbors(v));
      if (links > 0 && member_count - links <= options.glom) {
        members.set(v);
        ++member_count;
        grew = true;
      }
    }
  }
  members.for_each([&](std::size_t v) {
    result.members.push_back(static_cast<graph::VertexId>(v));
  });
  result.density = graph::induced_subgraph(g, result.members).graph.density();
  return result;
}

/// Reference seed order for core::highest_degree_vertices: one
/// `std::stable_sort` of all vertices by descending degree, so equal
/// degrees keep ascending ids; the first \p count of them.
inline std::vector<graph::VertexId> reference_highest_degree_vertices(
    const std::vector<std::size_t>& degrees, std::size_t count) {
  std::vector<graph::VertexId> order(degrees.size());
  std::iota(order.begin(), order.end(), graph::VertexId{0});
  std::stable_sort(order.begin(), order.end(),
                   [&](graph::VertexId a, graph::VertexId b) {
                     return degrees[a] > degrees[b];
                   });
  order.resize(std::min(count, order.size()));
  return order;
}

/// Reference for core::greedy_clique_lower_bound on n-bit rows: from each
/// seed in turn, repeatedly add the candidate with the most neighbours
/// among the candidates (the lowest id on ties); the first strictly
/// largest clique wins.
inline core::Clique reference_greedy_clique(
    const graph::GraphView& g, const std::vector<graph::VertexId>& seeds) {
  using bits::DynamicBitset;
  const std::size_t n = g.order();
  core::Clique best;
  DynamicBitset cand(n);
  for (const graph::VertexId seed : seeds) {
    core::Clique clique{seed};
    cand.assign(g.neighbors(seed));
    while (true) {
      graph::VertexId pick = static_cast<graph::VertexId>(n);
      std::size_t pick_links = 0;
      for (std::size_t v = cand.find_first(); v < n; v = cand.find_next(v)) {
        const std::size_t links = DynamicBitset::count_and(
            cand, g.neighbors(static_cast<graph::VertexId>(v)));
        if (pick == n || links > pick_links) {
          pick = static_cast<graph::VertexId>(v);
          pick_links = links;
        }
      }
      if (pick == n) break;
      clique.push_back(pick);
      cand &= g.neighbors(pick);
    }
    if (clique.size() > best.size()) best = std::move(clique);
  }
  std::sort(best.begin(), best.end());
  return best;
}

/// Scalar reference for core::maximum_clique: the same Tomita-style
/// branch and bound on n-bit rows at every node, seeded by its own greedy
/// lower bound over the reference seed order, with the intersects-based
/// colour sort — v joins the open colour class iff N(v) AND class is
/// empty, one n/64-word test per vertex per class.
class ReferenceMaxClique {
 public:
  explicit ReferenceMaxClique(const graph::GraphView& g)
      : g_(g), n_(g.order()) {}

  core::MaxCliqueResult run() {
    std::vector<std::size_t> degrees(n_);
    for (graph::VertexId v = 0; v < n_; ++v) degrees[v] = g_.degree(v);
    best_ = reference_greedy_clique(
        g_, reference_highest_degree_vertices(degrees, core::kMaxCliqueSeeds));
    if (n_ > 0) {
      bits::DynamicBitset cand(n_);
      cand.set_all();
      expand(cand);
    }
    core::MaxCliqueResult result;
    result.clique = best_;
    std::sort(result.clique.begin(), result.clique.end());
    result.tree_nodes = nodes_;
    return result;
  }

 private:
  void color_sort(const bits::DynamicBitset& cand,
                  std::vector<graph::VertexId>& order,
                  std::vector<std::uint32_t>& colors) const {
    bits::DynamicBitset uncolored = cand;
    bits::DynamicBitset cls(n_);
    std::uint32_t color = 0;
    while (uncolored.any()) {
      ++color;
      cls.clear_all();
      for (std::size_t v = uncolored.find_first(); v < n_;
           v = uncolored.find_next(v)) {
        const auto vertex = static_cast<graph::VertexId>(v);
        if (!bits::DynamicBitset::intersects(cls, g_.neighbors(vertex))) {
          cls.set(v);
          order.push_back(vertex);
          colors.push_back(color);
        }
      }
      uncolored.and_not(cls);
    }
  }

  void expand(bits::DynamicBitset& cand) {
    ++nodes_;
    std::vector<graph::VertexId> order;
    std::vector<std::uint32_t> colors;
    color_sort(cand, order, colors);
    bits::DynamicBitset next(n_);
    for (std::size_t i = order.size(); i-- > 0;) {
      if (current_.size() + colors[i] <= best_.size()) return;
      const graph::VertexId v = order[i];
      current_.push_back(v);
      next.assign_and(cand, g_.neighbors(v));
      if (next.none()) {
        if (current_.size() > best_.size()) best_ = current_;
      } else {
        expand(next);
      }
      current_.pop_back();
      cand.reset(v);
    }
  }

  const graph::GraphView g_;
  const std::size_t n_;
  core::Clique current_;
  core::Clique best_;
  std::uint64_t nodes_ = 0;
};

inline core::MaxCliqueResult reference_maximum_clique(
    const graph::GraphView& g) {
  return ReferenceMaxClique(g).run();
}

/// Reference extraction loop: analysis::extract_all_paracliques rebuilt
/// on the two references above.
inline std::vector<analysis::Paraclique> reference_extract_all_paracliques(
    const graph::GraphView& g, std::size_t min_size,
    const analysis::ParacliqueOptions& options) {
  std::vector<analysis::Paraclique> out;
  graph::Graph residue = graph::Graph::from_edges(g.order(), g.edge_list());
  while (true) {
    const auto seed = reference_maximum_clique(residue);
    if (seed.clique.size() < std::max<std::size_t>(min_size, 1)) break;
    auto para = reference_grow_paraclique(residue, seed.clique, options);
    for (std::size_t i = 0; i < para.members.size(); ++i) {
      for (std::size_t j = i + 1; j < para.members.size(); ++j) {
        residue.remove_edge(para.members[i], para.members[j]);
      }
    }
    out.push_back(std::move(para));
  }
  return out;
}

/// One generated input of the paraclique / maximum-clique oracle corpus.
struct OracleGraph {
  std::string name;
  graph::Graph graph;
};

/// The oracle corpus: G(n,p) across densities, planted modules on a
/// random background, planted modules with random edges removed (the
/// shape the paraclique residue takes after a few rounds), and the
/// degenerate shapes (empty, isolated vertices, complete, star).
inline std::vector<OracleGraph> oracle_graphs() {
  std::vector<OracleGraph> out;
  auto add = [&](std::string name, graph::Graph g) {
    out.push_back({std::move(name), std::move(g)});
  };
  for (const std::size_t n : {12, 33, 70}) {
    for (const double p : {0.03, 0.1, 0.25, 0.5, 0.8}) {
      for (std::uint64_t seed = 1; seed <= 5; ++seed) {
        add("gnp n=" + std::to_string(n) + " p=" + std::to_string(p) +
                " seed=" + std::to_string(seed),
            random_graph(n, p, seed * 1000 + n));
      }
    }
  }
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    util::Rng rng(seed);
    graph::ModuleGraphConfig config;
    config.n = 40 + 9 * seed;
    config.num_modules = 3 + seed % 5;
    config.min_module_size = 4;
    config.max_module_size = 6 + seed % 9;
    config.p_in = seed % 3 == 0 ? 0.85 : 1.0;
    config.overlap = 0.1 * static_cast<double>(seed % 4);
    config.background_edges = 5 * seed;
    graph::Graph g = graph::planted_modules(config, rng).graph;
    add("modules seed=" + std::to_string(seed), g);
    // Residue shape: the same modules with a fifth of all edges removed.
    for (const auto& [u, v] : g.edge_list()) {
      if (rng.uniform() < 0.2) g.remove_edge(u, v);
    }
    add("modules-thinned seed=" + std::to_string(seed), std::move(g));
  }
  add("empty", graph::Graph(0));
  for (const std::size_t n : {1, 5, 40}) {
    add("isolated n=" + std::to_string(n), graph::Graph(n));
  }
  for (const std::size_t n : {1, 2, 7, 20}) {
    graph::Graph complete(n);
    for (graph::VertexId u = 0; u < n; ++u) {
      for (graph::VertexId v = u + 1; v < n; ++v) complete.add_edge(u, v);
    }
    add("complete n=" + std::to_string(n), std::move(complete));
  }
  for (const std::size_t n : {4, 25}) {
    graph::Graph star(n + 3);  // hub 1, leaves 2..n+1; 0 and n+2 isolated
    for (graph::VertexId v = 2; v < n + 2; ++v) star.add_edge(1, v);
    add("star n=" + std::to_string(n), std::move(star));
  }
  return out;
}

/// The two backends every oracle case runs on: an in-memory graph and the
/// same graph mapped from a scratch .gsbg container.
class InMemoryAndMapped {
 public:
  explicit InMemoryAndMapped(const graph::Graph& g) : graph_(g) {
    storage::write_gsbg_file(g, file_.path());
    mapped_ = storage::MappedGraph::open(file_.path());
  }
  [[nodiscard]] std::vector<graph::GraphView> views() const {
    return {graph::GraphView(graph_), mapped_.view()};
  }

 private:
  const graph::Graph& graph_;
  TempFile file_{"oracle"};
  storage::MappedGraph mapped_;
};

/// Reference maximal cliques filtered to a size window.
inline std::vector<core::Clique> reference_in_range(
    const graph::Graph& g, const core::SizeRange& range) {
  return core::filter_by_size(core::reference_maximal_cliques(g), range);
}

/// Orders \p reference (normalized reference maximal cliques) as the
/// Clique Enumerator emits them: the cliques in \p range by size, then
/// lexicographically by member ids.
inline std::vector<core::Clique> emission_sequence(
    const std::vector<core::Clique>& reference, const core::SizeRange& range) {
  std::vector<core::Clique> cliques = core::filter_by_size(reference, range);
  // Stable: the reference holds the cliques in lexicographic order.
  std::stable_sort(cliques.begin(), cliques.end(),
                   [](const core::Clique& a, const core::Clique& b) {
                     return a.size() < b.size();
                   });
  return cliques;
}

/// The Clique Enumerator's emission sequence, built without it: the
/// reference maximal cliques in \p range ordered by size, then
/// lexicographically by member ids.
inline std::vector<core::Clique> reference_emission_sequence(
    const graph::Graph& g, const core::SizeRange& range) {
  return emission_sequence(core::reference_maximal_cliques(g), range);
}

/// Reference for bio::quantile_normalize: the comparison-sort body it
/// replaced.  Each column is sorted as (value, gene) pairs with std::sort
/// under <, the reference distribution is the mean across samples of each
/// rank's value, and every member of a tie group (values equal under ==)
/// gets the mean of its ranks' reference values.
inline void reference_quantile_normalize(bio::ExpressionMatrix& matrix) {
  const std::size_t genes = matrix.genes();
  const std::size_t samples = matrix.samples();
  if (genes == 0 || samples == 0) return;
  struct Entry {
    double value;
    std::uint32_t gene;
  };
  std::vector<Entry> column(genes);
  std::vector<std::uint32_t> order(samples * genes);
  std::vector<double> reference(genes, 0.0);
  for (std::size_t s = 0; s < samples; ++s) {
    for (std::size_t g = 0; g < genes; ++g) {
      column[g] = Entry{matrix.at(g, s), static_cast<std::uint32_t>(g)};
    }
    std::sort(column.begin(), column.end(),
              [](const Entry& a, const Entry& b) { return a.value < b.value; });
    std::uint32_t* ranked = order.data() + s * genes;
    for (std::size_t r = 0; r < genes; ++r) {
      reference[r] += column[r].value;
      ranked[r] = column[r].gene;
    }
  }
  for (double& v : reference) v /= static_cast<double>(samples);
  for (std::size_t s = 0; s < samples; ++s) {
    const std::uint32_t* ranked = order.data() + s * genes;
    std::size_t r = 0;
    while (r < genes) {
      const double value = matrix.at(ranked[r], s);
      std::size_t end = r + 1;
      while (end < genes && matrix.at(ranked[end], s) == value) ++end;
      double quantile = reference[r];
      if (end - r > 1) {
        double sum = 0.0;
        for (std::size_t t = r; t < end; ++t) sum += reference[t];
        quantile = sum / static_cast<double>(end - r);
      }
      for (; r < end; ++r) matrix.at(ranked[r], s) = quantile;
    }
  }
}

}  // namespace gsb::test

#endif  // GSB_TESTS_TEST_HELPERS_H
