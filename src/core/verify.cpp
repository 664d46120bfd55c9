#include "core/verify.h"

#include <algorithm>
#include <utility>

namespace gsb::core {

bool is_clique(const graph::Graph& g, std::span<const VertexId> vertices) {
  for (std::size_t i = 0; i < vertices.size(); ++i) {
    if (vertices[i] >= g.order()) return false;
    for (std::size_t j = i + 1; j < vertices.size(); ++j) {
      if (vertices[i] == vertices[j] ||
          !g.has_edge(vertices[i], vertices[j])) {
        return false;
      }
    }
  }
  return true;
}

bool is_maximal_clique(const graph::Graph& g,
                       std::span<const VertexId> vertices) {
  if (!is_clique(g, vertices) || vertices.empty()) return false;
  for (VertexId w = 0; w < g.order(); ++w) {
    bool member = false;
    bool adjacent_to_all = true;
    for (VertexId v : vertices) {
      if (v == w) {
        member = true;
        break;
      }
      if (!g.has_edge(v, w)) {
        adjacent_to_all = false;
        break;
      }
    }
    if (!member && adjacent_to_all) return false;
  }
  return true;
}

std::vector<Clique> normalize(std::vector<Clique> cliques) {
  for (auto& clique : cliques) std::sort(clique.begin(), clique.end());
  std::sort(cliques.begin(), cliques.end());
  return cliques;
}

std::vector<Clique> filter_by_size(const std::vector<Clique>& cliques,
                                   const SizeRange& range) {
  std::vector<Clique> out;
  for (const auto& clique : cliques) {
    if (range.contains(clique.size())) out.push_back(clique);
  }
  return out;
}

namespace {

/// Recursive extension over sorted vectors.  `cand` holds vertices adjacent
/// to everything in `current`; `excluded` holds already-branched vertices
/// adjacent to everything in `current` (for maximality detection).  Only
/// candidates outside N(pivot) open branches, for the vertex of
/// cand ∪ excluded with the most neighbours in cand as pivot: a maximal
/// clique holding `current` and only candidates adjacent to the pivot
/// would still extend by the pivot.
void reference_extend(const graph::Graph& g, Clique& current,
                      std::vector<VertexId> cand,
                      std::vector<VertexId> excluded,
                      std::vector<Clique>& out) {
  if (cand.empty()) {
    if (excluded.empty()) out.push_back(current);
    return;
  }
  const auto links = [&](VertexId u) {
    return std::count_if(cand.begin(), cand.end(),
                         [&](VertexId c) { return g.has_edge(u, c); });
  };
  VertexId pivot = cand.front();
  auto most = links(pivot);
  for (const auto* set : {&cand, &excluded}) {
    for (const VertexId u : *set) {
      if (const auto l = links(u); l > most) {
        pivot = u;
        most = l;
      }
    }
  }
  std::vector<VertexId> branches;
  for (const VertexId v : cand) {
    if (!g.has_edge(pivot, v)) branches.push_back(v);
  }
  for (const VertexId v : branches) {
    current.push_back(v);
    std::vector<VertexId> next_cand;
    for (const VertexId c : cand) {
      if (g.has_edge(v, c)) next_cand.push_back(c);
    }
    std::vector<VertexId> next_excluded;
    for (const VertexId x : excluded) {
      if (g.has_edge(v, x)) next_excluded.push_back(x);
    }
    reference_extend(g, current, std::move(next_cand),
                     std::move(next_excluded), out);
    current.pop_back();
    cand.erase(std::find(cand.begin(), cand.end(), v));
    excluded.push_back(v);
  }
}

}  // namespace

std::vector<Clique> reference_maximal_cliques(const graph::Graph& g) {
  std::vector<Clique> out;
  if (g.order() == 0) return out;  // no empty-clique artifact
  std::vector<VertexId> all(g.order());
  for (VertexId v = 0; v < g.order(); ++v) all[v] = v;
  Clique current;
  reference_extend(g, current, all, {}, out);
  return normalize(std::move(out));
}

std::vector<Clique> exhaustive_maximal_cliques(const graph::Graph& g) {
  const std::size_t n = g.order();
  std::vector<Clique> out;
  if (n == 0 || n > 24) return out;
  const std::uint32_t limit = 1u << n;
  std::vector<std::uint32_t> adj(n, 0);
  for (VertexId v = 0; v < n; ++v) {
    for (VertexId u = 0; u < n; ++u) {
      if (g.has_edge(v, u)) adj[v] |= 1u << u;
    }
  }
  auto subset_is_clique = [&](std::uint32_t mask) {
    for (std::uint32_t rest = mask; rest != 0; rest &= rest - 1) {
      const int v = __builtin_ctz(rest);
      const std::uint32_t others = mask & ~(1u << v);
      if ((adj[v] & others) != others) return false;
    }
    return true;
  };
  for (std::uint32_t mask = 1; mask < limit; ++mask) {
    if (!subset_is_clique(mask)) continue;
    // Maximal iff no outside vertex is adjacent to every member.
    bool maximal = true;
    for (VertexId w = 0; w < n && maximal; ++w) {
      if (mask & (1u << w)) continue;
      if ((adj[w] & mask) == mask) maximal = false;
    }
    if (!maximal) continue;
    Clique clique;
    for (std::uint32_t rest = mask; rest != 0; rest &= rest - 1) {
      clique.push_back(static_cast<VertexId>(__builtin_ctz(rest)));
    }
    out.push_back(std::move(clique));
  }
  return normalize(std::move(out));
}

namespace {

void kclique_extend(const graph::Graph& g, Clique& current,
                    const std::vector<VertexId>& cand, std::size_t k,
                    std::vector<Clique>& out) {
  if (current.size() == k) {
    out.push_back(current);
    return;
  }
  if (current.size() + cand.size() < k) return;
  for (std::size_t i = 0; i < cand.size(); ++i) {
    current.push_back(cand[i]);
    std::vector<VertexId> next;
    for (std::size_t j = i + 1; j < cand.size(); ++j) {
      if (g.has_edge(cand[i], cand[j])) next.push_back(cand[j]);
    }
    kclique_extend(g, current, next, k, out);
    current.pop_back();
  }
}

}  // namespace

std::vector<Clique> reference_kcliques(const graph::Graph& g, std::size_t k) {
  std::vector<Clique> out;
  if (k == 0) return out;
  std::vector<VertexId> all(g.order());
  for (VertexId v = 0; v < g.order(); ++v) all[v] = v;
  Clique current;
  kclique_extend(g, current, all, k, out);
  return normalize(std::move(out));
}

}  // namespace gsb::core
