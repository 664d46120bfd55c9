#include "core/maximum_clique.h"

#include <algorithm>
#include <numeric>

#include "bitset/dynamic_bitset.h"
#include "util/timer.h"

namespace gsb::core {
namespace {

using bits::DynamicBitset;

std::span<const std::size_t> degrees_of(const graph::GraphView& g) {
  return {g.degrees_data(), g.order()};
}

/// Grows a clique from each seed in turn; keeps the first strictly largest.
Clique grow_greedy_cliques(const graph::GraphView& g,
                           std::span<const VertexId> seeds) {
  const std::size_t n = g.order();
  Clique best;
  DynamicBitset cand(n);
  for (const VertexId seed : seeds) {
    Clique clique{seed};
    cand.assign_and(g.neighbors(seed), g.neighbors(seed));
    while (true) {
      // Extend with the candidate of maximum residual degree into cand.
      VertexId pick = static_cast<VertexId>(n);
      std::size_t pick_links = 0;
      for (std::size_t v = cand.find_first(); v < n; v = cand.find_next(v)) {
        const std::size_t links =
            DynamicBitset::count_and(cand, g.neighbors(static_cast<VertexId>(v)));
        if (pick == n || links > pick_links) {
          pick = static_cast<VertexId>(v);
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

}  // namespace

std::vector<VertexId> highest_degree_vertices(
    std::span<const std::size_t> degrees, std::size_t count) {
  std::vector<VertexId> by_degree(degrees.size());
  std::iota(by_degree.begin(), by_degree.end(), VertexId{0});
  std::sort(by_degree.begin(), by_degree.end(),
            [&](VertexId a, VertexId b) { return degrees[a] > degrees[b]; });
  by_degree.resize(std::min(count, by_degree.size()));
  return by_degree;
}

Clique greedy_clique_lower_bound(const graph::GraphView& g, std::size_t seeds) {
  return grow_greedy_cliques(g, highest_degree_vertices(degrees_of(g), seeds));
}

std::size_t greedy_coloring_upper_bound(const graph::GraphView& g) {
  const std::size_t n = g.order();
  std::vector<DynamicBitset> classes;  // members per color
  for (VertexId v : highest_degree_vertices(degrees_of(g), n)) {
    bool placed = false;
    for (auto& cls : classes) {
      if (!DynamicBitset::intersects(cls, g.neighbors(v))) {
        cls.set(v);
        placed = true;
        break;
      }
    }
    if (!placed) {
      classes.emplace_back(n);
      classes.back().set(v);
    }
  }
  return classes.size();
}

namespace {

/// Tomita-style search: candidates are greedily colored; vertices are
/// expanded in decreasing color order, pruning when |R| + color <= |best|.
class MaxCliqueSearch {
 public:
  explicit MaxCliqueSearch(const graph::GraphView& g)
      : g_(g), n_(g.order()) {}

  MaxCliqueResult run(std::span<const VertexId> seeds) {
    util::Timer timer;
    MaxCliqueResult result;
    best_ = grow_greedy_cliques(g_, seeds);
    if (n_ > 0) {
      DynamicBitset cand(n_);
      cand.set_all();
      // Pre-size the frame pool: the vector must never reallocate while
      // frame references are live across recursive calls.  A node at depth
      // d extends a d-clique, so d < omega <= max degree + 1.
      const std::size_t depths = g_.max_degree() + 1;
      current_.reserve(depths);
      frames_.resize(depths);
      expand(cand, 0);
    }
    result.clique = best_;
    std::sort(result.clique.begin(), result.clique.end());
    result.tree_nodes = nodes_;
    result.seconds = timer.seconds();
    return result;
  }

 private:
  /// Per-depth scratch, sized on first use so no search node allocates.
  struct Frame {
    std::vector<VertexId> order;
    std::vector<std::uint32_t> color;
    DynamicBitset next_cand;
    DynamicBitset uncolored;
    DynamicBitset forbidden;  ///< union of N(w) over the open class
  };

  Frame& frame(std::size_t depth) {
    Frame& f = frames_[depth];
    if (f.next_cand.size() != n_) {
      f.next_cand.resize(n_);
      f.uncolored.resize(n_);
      f.forbidden.resize(n_);
    }
    return f;
  }

  /// Sequential greedy coloring of `cand`; fills order/color with vertices
  /// sorted by ascending color.  v joins the open class iff no class
  /// member is adjacent to it, i.e. v is outside the union of the
  /// members' neighborhoods: one bit test per vertex, one OR of N(v) per
  /// colored vertex (none when N(v) is empty).
  void color_sort(const DynamicBitset& cand, Frame& f) {
    f.order.clear();
    f.color.clear();
    f.uncolored.assign(cand);
    std::uint32_t color = 0;
    while (f.uncolored.any()) {
      ++color;
      f.forbidden.clear_all();
      for (std::size_t v = f.uncolored.find_first(); v < n_;
           v = f.uncolored.find_next(v)) {
        if (f.forbidden.test(v)) continue;
        f.uncolored.reset(v);
        f.order.push_back(static_cast<VertexId>(v));
        f.color.push_back(color);
        if (g_.degree(static_cast<VertexId>(v)) > 0) {
          f.forbidden |= g_.neighbors(static_cast<VertexId>(v));
        }
      }
    }
  }

  void expand(DynamicBitset& cand, std::size_t depth) {
    ++nodes_;
    Frame& f = frame(depth);
    color_sort(cand, f);
    for (std::size_t i = f.order.size(); i-- > 0;) {
      if (current_.size() + f.color[i] <= best_.size()) return;
      const VertexId v = f.order[i];
      current_.push_back(v);
      f.next_cand.assign_and(cand, g_.neighbors(v));
      if (f.next_cand.none()) {
        if (current_.size() > best_.size()) best_ = current_;
      } else {
        // Safe to pass this depth's buffer: the callee touches only deeper
        // frames, and the buffer is rebuilt before the next iteration.
        expand(f.next_cand, depth + 1);
      }
      current_.pop_back();
      cand.reset(v);
    }
  }

  const graph::GraphView g_;
  const std::size_t n_;
  Clique current_;
  Clique best_;
  std::uint64_t nodes_ = 0;
  std::vector<Frame> frames_;
};

}  // namespace

MaxCliqueResult maximum_clique(const graph::GraphView& g) {
  util::Timer timer;
  auto result = maximum_clique(
      g, highest_degree_vertices(degrees_of(g), kMaxCliqueSeeds));
  result.seconds = timer.seconds();
  return result;
}

MaxCliqueResult maximum_clique(const graph::GraphView& g,
                               std::span<const VertexId> seeds) {
  MaxCliqueSearch search(g);
  return search.run(seeds);
}

}  // namespace gsb::core
