#include "graph/transforms.h"

#include <algorithm>
#include <cstdint>
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

namespace {

/// The one min-degree peel.  Until no vertex is left, or the least degree
/// left reaches \p stop, it removes the vertex on top of the least degree's
/// stack and reports removed(v, degree); returns the vertices left.  Each
/// stack is a doubly linked list through `next`/`prev`, so a vertex whose
/// degree falls moves to the top of its new stack in O(1), in the order of
/// LIFO stacks that leave stale entries behind.  Degrees of \p stop or more
/// are never popped, so they are not filed.
template <typename Removed>
bits::DynamicBitset peel(const GraphView& g, std::size_t stop,
                         Removed&& removed) {
  const std::size_t n = g.order();
  bits::DynamicBitset alive(n);
  alive.set_all();
  constexpr VertexId kNone = UINT32_MAX;
  std::vector<std::size_t> degree(g.degrees_data(), g.degrees_data() + n);
  const std::size_t levels = std::min(stop, g.max_degree() + 1);
  std::vector<VertexId> top(levels, kNone);
  std::vector<VertexId> next(n);
  std::vector<VertexId> prev(n);
  const auto file = [&](VertexId v) {
    next[v] = top[degree[v]];
    prev[v] = kNone;
    if (next[v] != kNone) prev[next[v]] = v;
    top[degree[v]] = v;
  };
  const auto unfile = [&](VertexId v) {
    (prev[v] != kNone ? next[prev[v]] : top[degree[v]]) = next[v];
    if (next[v] != kNone) prev[next[v]] = prev[v];
  };
  for (VertexId v = 0; v < n; ++v) {
    if (degree[v] < levels) file(v);
  }
  std::size_t cursor = 0;  // no live vertex has a lower degree
  for (std::size_t left = n; left > 0; --left) {
    while (cursor < levels && top[cursor] == kNone) ++cursor;
    if (cursor == levels) break;
    const VertexId v = top[cursor];
    unfile(v);
    alive.reset(v);
    removed(v, cursor);
    g.for_each_neighbor(v, [&](VertexId u) {
      if (!alive.test(u)) return;
      if (degree[u] < levels) unfile(u);
      --degree[u];
      if (degree[u] < levels) file(u);
      cursor = std::min(cursor, degree[u]);
    });
  }
  return alive;
}

}  // namespace

CoreDecomposition core_decomposition(const GraphView& g) {
  CoreDecomposition result;
  result.order.reserve(g.order());
  result.core.resize(g.order());
  peel(g, SIZE_MAX, [&result](VertexId v, std::size_t degree) {
    result.degeneracy = std::max(result.degeneracy, degree);
    result.core[v] = static_cast<std::uint32_t>(result.degeneracy);
    result.order.push_back(v);
  });
  return result;
}

bits::DynamicBitset kcore_mask(const GraphView& g, std::size_t k) {
  return peel(g, k, [](VertexId, std::size_t) {});
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
