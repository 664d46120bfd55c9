#include "analysis/paraclique.h"

#include <algorithm>
#include <cstdint>
#include <stdexcept>
#include <vector>

#include "bitset/dynamic_bitset.h"
#include "core/maximum_clique.h"
#include "graph/transforms.h"
#include "obs/timeline.h"
#include "util/memory_tracker.h"

namespace gsb::analysis {

using bits::DynamicBitset;
using core::Clique;
using graph::VertexId;

Paraclique grow_paraclique(const graph::GraphView& g, const Clique& seed_clique,
                           const ParacliqueOptions& options) {
  Paraclique result;
  result.seed_size = seed_clique.size();
  const std::size_t n = g.order();
  DynamicBitset members(n);
  for (VertexId v : seed_clique) members.set(v);
  std::size_t member_count = seed_clique.size();

  // links[v] = |members ∩ N(v)|, kept current as vertices join; frontier
  // holds the non-members with links > 0 — the only vertices a pass can
  // admit.  A pass then costs the frontier plus one walk of N(u) per
  // joining u.
  std::vector<std::uint32_t> links(n, 0);
  DynamicBitset frontier(n);
  auto link_neighbors = [&](std::size_t u) {
    g.for_each_neighbor(static_cast<VertexId>(u), [&](VertexId w) {
      ++links[w];
      if (!members.test(w)) frontier.set(w);
    });
  };
  members.for_each(link_neighbors);

  bool grew = true;
  while (grew) {
    grew = false;
    // find_next reads the live words: a joiner's neighbors above the
    // cursor are visited in this pass, those below it wait for the next,
    // as in an ascending scan over all vertices.  links <= member_count,
    // so the test saturates instead of wrapping for any glom.
    for (std::size_t v = frontier.find_first(); v < n;
         v = frontier.find_next(v)) {
      if (member_count - links[v] <= options.glom) {
        members.set(v);
        frontier.reset(v);
        ++member_count;
        link_neighbors(v);
        grew = true;
      }
    }
  }

  // links covers the members too, so their links count each induced edge
  // from both ends.
  std::size_t arcs = 0;
  members.for_each([&](std::size_t v) {
    result.members.push_back(static_cast<VertexId>(v));
    arcs += links[v];
  });
  result.density = graph::edge_density(result.members.size(), arcs / 2);
  return result;
}

Paraclique extract_paraclique(const graph::GraphView& g,
                              const ParacliqueOptions& options) {
  const auto seed = core::maximum_clique(g);
  return grow_paraclique(g, seed.clique, options);
}

Paraclique extract_paraclique_from_stream(const graph::GraphView& g,
                                          storage::GsbcReader& stream,
                                          const ParacliqueOptions& options) {
  Clique best;
  Clique current;
  while (stream.next(current)) {
    if (current.size() > best.size()) best.swap(current);
  }
  if (best.empty()) {
    throw std::invalid_argument(
        "extract_paraclique_from_stream: empty clique stream");
  }
  return grow_paraclique(g, best, options);
}

namespace {

/// What one extraction round hands the next.  Rounds only delete edges, so
/// a round's ω bounds every later round's.  A seed's greedy clique depends
/// only on the subgraph induced by the seed and its neighbours, so it is
/// kept until an edge inside that set goes.
class CarriedState {
 public:
  explicit CarriedState(std::size_t n) : greedy_(n), common_(n) {}

  /// This round's seed, maximum_clique(residue)'s clique: the first
  /// strictly largest greedy clique over the residue's seeds (kept ones
  /// reused, stale ones regrown), then the search from it below the last
  /// round's ω.  A seed whose greedy clique reaches that bound is maximum,
  /// and no later seed can beat it, so the rest go unasked.
  core::MaxCliqueResult seed(const graph::GraphView& residue) {
    Clique lower;
    const auto seeds = core::highest_degree_vertices(
        {residue.degrees_data(), residue.order()}, core::kMaxCliqueSeeds);
    for (const VertexId s : seeds) {
      Clique& clique = greedy_[s];
      if (clique.empty()) clique = core::greedy_clique(residue, s);
      if (clique.size() > lower.size()) {
        lower = clique;
        if (lower.size() >= omega_bound_) break;
      }
    }
    core::MaxCliqueResult found =
        core::maximum_clique_from(residue, std::move(lower), omega_bound_);
    omega_bound_ = found.clique.size();
    return found;
  }

  /// Removes the edges among \p members from \p residue.  Before {u, v}
  /// goes, it drops the greedy cliques whose seed's closed neighbourhood
  /// holds both ends: those of u, v and every common neighbour of u and v.
  void remove_edges(graph::Graph& residue, const Clique& members) {
    for (std::size_t i = 0; i < members.size(); ++i) {
      for (std::size_t j = i + 1; j < members.size(); ++j) {
        const VertexId u = members[i];
        const VertexId v = members[j];
        if (!residue.has_edge(u, v)) continue;
        greedy_[u].clear();
        greedy_[v].clear();
        common_.assign_and(residue.neighbors(u), residue.neighbors(v));
        common_.for_each([&](std::size_t w) { greedy_[w].clear(); });
        residue.remove_edge(u, v);
      }
    }
  }

 private:
  std::vector<Clique> greedy_;  ///< per vertex; empty = stale
  DynamicBitset common_;        ///< N(u) ∩ N(v) of the edge being removed
  std::size_t omega_bound_ = core::kUnknownOmega;
};

}  // namespace

std::vector<Paraclique> extract_all_paracliques(
    const graph::GraphView& g, std::size_t min_size,
    const ParacliqueOptions& options, core::MaxCliqueResult* maximum) {
  std::vector<Paraclique> out;
  // Iterative extraction removes edges, so this is the one analysis stage
  // that cannot run off a read-only mapping: it materializes a mutable
  // copy, the residue.  Only vertices with an edge can ever join a round's
  // clique or paraclique, so the residue holds just those, in ascending
  // order; every ascending scan, (degree, id) seed order and
  // first-in-id-order tie break of the search and the glom then runs as it
  // would over all n.  Recorded with the tracker so out-of-core runs
  // report it honestly.
  std::vector<VertexId> live;
  for (VertexId v = 0; v < g.order(); ++v) {
    if (g.degree(v) > 0) live.push_back(v);
  }
  auto [residue, to_g] = graph::induced_subgraph(g, live);
  util::ScopedAllocation residue_bytes(util::global_memory_tracker(),
                                       residue.adjacency_bytes(),
                                       util::MemTag::kGraph);
  if (maximum != nullptr && residue.num_edges() == 0) {
    *maximum = core::maximum_clique(g);
  }
  // A one-vertex seed removes no edge, so sizes below 2 act as 2.
  min_size = std::max<std::size_t>(min_size, 2);
  CarriedState carried(residue.order());
  for (std::uint64_t round = 0; residue.num_edges() > 0; ++round) {
    const obs::TimelineSpan span(obs::TimelineEventKind::kStage,
                                 "paraclique-round", round);
    const graph::GraphView view(residue);
    const core::MaxCliqueResult seed = carried.seed(view);
    if (round == 0 && maximum != nullptr) {
      *maximum = seed;
      for (VertexId& v : maximum->clique) v = to_g[v];
    }
    if (seed.clique.size() < min_size) break;
    Paraclique para = grow_paraclique(view, seed.clique, options);
    carried.remove_edges(residue, para.members);
    for (VertexId& v : para.members) v = to_g[v];
    out.push_back(std::move(para));
  }
  return out;
}

}  // namespace gsb::analysis
