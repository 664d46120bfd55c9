#include "graph/transforms.h"

#include <algorithm>
#include <span>
#include <stdexcept>

namespace gsb::graph {

Graph complement(const Graph& g) {
  const std::size_t n = g.order();
  Graph out(n);
  for (VertexId u = 0; u < n; ++u) {
    for (VertexId v = u + 1; v < n; ++v) {
      if (!g.has_edge(u, v)) out.add_edge(u, v);
    }
  }
  return out;
}

InducedSubgraph induced_subgraph(const GraphView& g,
                                 const std::vector<VertexId>& vertices) {
  std::vector<VertexId> sorted(vertices);
  std::sort(sorted.begin(), sorted.end());
  sorted.erase(std::unique(sorted.begin(), sorted.end()), sorted.end());

  InducedSubgraph out{Graph(sorted.size()), sorted};
  if (sorted.empty()) return out;
  // A mask of the set, and the local id of each of its members as a rank:
  // the members in words before w (rank_base[w]) plus those below it in w.
  using Word = bits::BitsetView::Word;
  constexpr std::size_t kWordBits = bits::BitsetView::kWordBits;
  bits::DynamicBitset mask(g.order());
  for (const VertexId v : sorted) mask.set(v);
  const std::span<const Word> set = mask.words();
  std::vector<VertexId> rank_base(set.size());
  VertexId members = 0;
  for (std::size_t w = 0; w < set.size(); ++w) {
    rank_base[w] = members;
    members += static_cast<VertexId>(bits::popcount(set[w]));
  }
  // Each member's higher neighbours in the set give each induced edge once.
  for (std::size_t i = 0; i < sorted.size(); ++i) {
    g.for_each_neighbor(
        sorted[i],
        [&](VertexId u) {
          const std::size_t w = u / kWordBits;
          const Word bit = Word{1} << (u % kWordBits);
          if ((set[w] & bit) != 0) {
            out.graph.add_edge(
                static_cast<VertexId>(i),
                rank_base[w] +
                    static_cast<VertexId>(bits::popcount(set[w] & (bit - 1))));
          }
        },
        sorted[i] + 1);
  }
  return out;
}

std::vector<VertexId> vertices_with_edges(const GraphView& g) {
  std::vector<VertexId> live;
  for (VertexId v = 0; v < g.order(); ++v) {
    if (g.degree(v) > 0) live.push_back(v);
  }
  return live;
}

bits::DynamicBitset kcore_mask(const GraphView& g, std::size_t k) {
  const std::size_t n = g.order();
  bits::DynamicBitset alive(n);
  alive.set_all();
  std::vector<std::size_t> degree(n);
  std::vector<VertexId> queue;
  for (VertexId v = 0; v < n; ++v) {
    degree[v] = g.degree(v);
    if (degree[v] < k) queue.push_back(v);
  }
  while (!queue.empty()) {
    const VertexId v = queue.back();
    queue.pop_back();
    if (!alive.test(v)) continue;
    alive.reset(v);
    g.for_each_neighbor(v, [&](VertexId u) {
      if (alive.test(u) && degree[u]-- == k) queue.push_back(u);
    });
  }
  return alive;
}

InducedSubgraph kcore_subgraph(const GraphView& g, std::size_t k) {
  const bits::DynamicBitset alive = kcore_mask(g, k);
  std::vector<VertexId> survivors;
  survivors.reserve(alive.count());
  alive.for_each([&](std::size_t v) {
    survivors.push_back(static_cast<VertexId>(v));
  });
  return induced_subgraph(g, survivors);
}

DegeneracyResult degeneracy_order(const GraphView& g) {
  const std::size_t n = g.order();
  DegeneracyResult result;
  result.order.reserve(n);
  std::vector<std::size_t> degree(n);
  bits::DynamicBitset alive(n);
  alive.set_all();

  // Bucket queue over degrees.
  std::vector<std::vector<VertexId>> buckets(n + 1);
  for (VertexId v = 0; v < n; ++v) {
    degree[v] = g.degree(v);
    buckets[degree[v]].push_back(v);
  }
  std::size_t cursor = 0;
  for (std::size_t removed = 0; removed < n; ++removed) {
    // Find the next live minimum-degree vertex, skipping stale bucket
    // entries (vertices re-filed after a degree decrease leave their old
    // entries behind; the check below discards them).
    VertexId v = 0;
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
    g.for_each_neighbor(v, [&](VertexId u) {
      if (alive.test(u)) {
        --degree[u];
        buckets[degree[u]].push_back(u);
        if (degree[u] < cursor) cursor = degree[u];
      }
    });
  }
  return result;
}

Components connected_components(const Graph& g) {
  const std::size_t n = g.order();
  Components result;
  result.component.assign(n, UINT32_MAX);
  std::vector<VertexId> stack;
  for (VertexId root = 0; root < n; ++root) {
    if (result.component[root] != UINT32_MAX) continue;
    const auto id = static_cast<std::uint32_t>(result.count++);
    result.component[root] = id;
    stack.push_back(root);
    while (!stack.empty()) {
      const VertexId v = stack.back();
      stack.pop_back();
      g.neighbors(v).for_each([&](std::size_t u) {
        if (result.component[u] == UINT32_MAX) {
          result.component[u] = id;
          stack.push_back(static_cast<VertexId>(u));
        }
      });
    }
  }
  return result;
}

Graph relabel(const Graph& g, const std::vector<VertexId>& perm) {
  const std::size_t n = g.order();
  if (perm.size() != n) {
    throw std::invalid_argument("relabel: permutation size mismatch");
  }
  std::vector<VertexId> inverse(n, 0);
  std::vector<bool> seen(n, false);
  for (VertexId i = 0; i < n; ++i) {
    if (perm[i] >= n || seen[perm[i]]) {
      throw std::invalid_argument("relabel: not a permutation");
    }
    seen[perm[i]] = true;
    inverse[perm[i]] = i;
  }
  Graph out(n);
  for (const auto& [u, v] : g.edge_list()) {
    out.add_edge(inverse[u], inverse[v]);
  }
  return out;
}

}  // namespace gsb::graph
