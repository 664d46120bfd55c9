#include "core/maximum_clique.h"

#include <algorithm>
#include <numeric>

#include "bitset/dynamic_bitset.h"
#include "util/timer.h"

namespace gsb::core {
namespace {

using bits::DynamicBitset;
using Word = bits::BitsetView::Word;
constexpr std::size_t kWordBits = bits::BitsetView::kWordBits;

std::span<const std::size_t> degrees_of(const graph::GraphView& g) {
  return {g.degrees_data(), g.order()};
}

/// out |= other from word \p first on (equal universes).
void or_into(DynamicBitset& out, bits::BitsetView other, std::size_t first) {
  const std::span<Word> words = out.words();
  for (std::size_t w = first; w < words.size(); ++w) words[w] |= other.data()[w];
}

/// The subgraph of g induced on a vertex set, re-indexed into ascending
/// local ids 0..k-1 with ⌈k/64⌉-word rows.  Local ids are monotone in g's
/// ids, so every ascending scan, first-in-id-order tie and colour class
/// comes out as it would over g's rows.  Each local word of a member's
/// row gathers its 64 bits from the member's g-row: no n-wide step.  In a
/// row of several words, a local word stays zero without gathering when
/// the g-row misses the set on every word its ids come from, so a hub's
/// sparse neighbourhood costs about one word test per member and set word
/// instead of k bit reads; a one-word row costs at most 64 reads anyway.
class LocalGraph {
 public:
  /// Re-indexes the set bits of \p set, a set over g's vertices.
  void assign(const graph::GraphView& g, bits::BitsetView set) {
    const Word* mask = set.data();
    ids_.clear();
    set_words_.clear();
    block_words_.clear();
    for (std::size_t w = 0; w < set.num_words(); ++w) {
      if (mask[w] == 0) continue;
      set_words_.push_back(w);
      for (Word rest = mask[w]; rest != 0; rest &= rest - 1) {
        if (ids_.size() % kWordBits == 0) {
          block_words_.push_back(set_words_.size() - 1);
        }
        ids_.push_back(static_cast<VertexId>(
            w * kWordBits + static_cast<std::size_t>(__builtin_ctzll(rest))));
      }
    }
    const std::size_t k = ids_.size();
    const std::size_t stride = bits::BitsetView::word_count(k);
    rows_.resize(k * stride);
    degrees_.assign(k, 0);
    std::size_t arcs = 0;
    for (std::size_t i = 0; i < k; ++i) {
      const Word* global = g.neighbors(ids_[i]).data();
      Word* local = rows_.data() + i * stride;
      for (std::size_t b = 0; b < stride; ++b) {
        // Local word b's ids come from the set words from block_words_[b]
        // to the one holding local id 64(b + 1), which it may share.
        const auto first = set_words_.begin() +
                           static_cast<std::ptrdiff_t>(block_words_[b]);
        const auto last = b + 1 < stride
                              ? set_words_.begin() + static_cast<std::ptrdiff_t>(
                                                         block_words_[b + 1] + 1)
                              : set_words_.end();
        Word gathered = 0;
        if (stride == 1 || std::any_of(first, last, [&](std::size_t w) {
              return (global[w] & mask[w]) != 0;
            })) {
          // Highest local id first, so each bit shifts in at the bottom.
          for (std::size_t j = std::min(k, (b + 1) * kWordBits);
               j-- > b * kWordBits;) {
            const VertexId u = ids_[j];
            gathered = (gathered << 1) |
                       ((global[u / kWordBits] >> (u % kWordBits)) & 1);
          }
          degrees_[i] += bits::popcount(gathered);
        }
        local[b] = gathered;
      }
      arcs += degrees_[i];
    }
    view_ = graph::GraphView(rows_.data(), stride, k, arcs / 2,
                             degrees_.data());
    all_.resize(k);
    all_.set_all();
  }

  [[nodiscard]] const graph::GraphView& view() const noexcept {
    return view_;
  }
  /// g's id of local vertex \p v.
  [[nodiscard]] VertexId global(std::size_t v) const noexcept {
    return ids_[v];
  }
  /// Every local vertex, as a mutable candidate set.
  DynamicBitset& all() noexcept { return all_; }

 private:
  std::vector<VertexId> ids_;            ///< local id -> g's id, ascending
  std::vector<std::size_t> set_words_;   ///< indices of the set's nonzero words
  std::vector<std::size_t> block_words_;  ///< local word -> its first set word
  std::vector<Word> rows_;
  std::vector<std::size_t> degrees_;
  graph::GraphView view_;
  DynamicBitset all_;
};

/// The greedy clique of \p seed in pick order, grown on the seed's
/// neighbourhood re-indexed into \p local.
Clique grow_greedy_clique(const graph::GraphView& g, VertexId seed,
                          LocalGraph& local) {
  local.assign(g, g.neighbors(seed));
  const graph::GraphView& rows = local.view();
  const std::size_t k = rows.order();
  DynamicBitset& cand = local.all();
  Clique clique{seed};
  while (true) {
    // Extend with the candidate of maximum residual degree into cand.
    std::size_t pick = k;
    std::size_t pick_links = 0;
    for (std::size_t v = cand.find_first(); v < k; v = cand.find_next(v)) {
      const std::size_t links = DynamicBitset::count_and(
          cand, rows.neighbors(static_cast<VertexId>(v)));
      if (pick == k || links > pick_links) {
        pick = v;
        pick_links = links;
      }
    }
    if (pick == k) break;
    clique.push_back(local.global(pick));
    cand &= rows.neighbors(static_cast<VertexId>(pick));
  }
  return clique;
}

}  // namespace

std::vector<VertexId> highest_degree_vertices(
    std::span<const std::size_t> degrees, std::size_t count) {
  std::vector<VertexId> by_degree(degrees.size());
  std::iota(by_degree.begin(), by_degree.end(), VertexId{0});
  const auto head = by_degree.begin() + static_cast<std::ptrdiff_t>(
                                            std::min(count, by_degree.size()));
  std::partial_sort(by_degree.begin(), head, by_degree.end(),
                    [&](VertexId a, VertexId b) {
                      return degrees[a] != degrees[b] ? degrees[a] > degrees[b]
                                                      : a < b;
                    });
  by_degree.erase(head, by_degree.end());
  return by_degree;
}

Clique greedy_clique(const graph::GraphView& g, VertexId seed) {
  LocalGraph local;
  Clique clique = grow_greedy_clique(g, seed, local);
  std::sort(clique.begin(), clique.end());
  return clique;
}

Clique greedy_clique_lower_bound(const graph::GraphView& g, std::size_t seeds) {
  LocalGraph local;
  Clique best;
  for (const VertexId seed : highest_degree_vertices(degrees_of(g), seeds)) {
    Clique clique = grow_greedy_clique(g, seed, local);
    if (clique.size() > best.size()) best = std::move(clique);
  }
  std::sort(best.begin(), best.end());
  return best;
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
/// expanded in decreasing color order, pruning when |R| + color is at most
/// the larger of |best| and a floor.  The root colours g's rows; each root
/// branch re-indexes its candidates into local rows, and every node below
/// it runs on those.
class MaxCliqueSearch {
 public:
  explicit MaxCliqueSearch(const graph::GraphView& g) : g_(g) {}

  /// One run from the lower bound \p lower.  With \p target t > 0 it
  /// prunes where |R| + color <= max(|best|, t - 1) and stops at the first
  /// clique of t vertices; with 0 it prunes where |R| + color <= |best| and
  /// runs to the end.  Returns the largest clique found, or \p lower when
  /// none beats it, sorted.
  Clique run(Clique lower, std::size_t target) {
    best_ = std::move(lower);
    floor_ = target > 0 ? target - 1 : 0;
    stop_ = target > 0 ? target : kUnknownOmega;
    current_.clear();
    if (g_.order() > 0) {
      if (frames_.empty()) {
        // Pre-size the frame pool: the vector must never reallocate while
        // frame references are live across recursive calls.  A node at
        // depth d extends a d-clique, so d < omega <= max degree + 1.
        const std::size_t depths = g_.max_degree() + 1;
        current_.reserve(depths);
        frames_.resize(depths);
      }
      DynamicBitset cand(g_.order());
      cand.set_all();
      expand(cand, 0);
    }
    std::sort(best_.begin(), best_.end());
    return std::move(best_);
  }

  /// Search-tree nodes over every run so far.
  [[nodiscard]] std::uint64_t nodes() const noexcept { return nodes_; }

 private:
  /// Per-depth scratch, sized on first use so no search node allocates
  /// beyond growing a frame to a larger branch.
  struct Frame {
    std::vector<VertexId> order;
    std::vector<std::uint32_t> color;
    DynamicBitset next_cand;
    DynamicBitset uncolored;
    DynamicBitset forbidden;  ///< union of N(w) over the open class
  };

  Frame& frame(std::size_t depth, std::size_t universe) {
    Frame& f = frames_[depth];
    if (f.next_cand.size() != universe) {
      f.next_cand.resize(universe);
      f.uncolored.resize(universe);
      f.forbidden.resize(universe);
    }
    return f;
  }

  /// Sequential greedy coloring of `cand`; fills order/color with vertices
  /// sorted by ascending color.  v joins the open class iff no class
  /// member is adjacent to it, i.e. v is outside the union of the
  /// members' neighborhoods.  A class is one pass over the words of
  /// uncolored AND NOT forbidden, re-masked after each join, so a
  /// forbidden vertex costs nothing: one step per word, and per colored
  /// vertex v one OR of N(v) from v's word on (the class never reads a
  /// lower word again; none when N(v) is empty).
  static void color_sort(const graph::GraphView& g, const DynamicBitset& cand,
                         Frame& f) {
    f.order.clear();
    f.color.clear();
    f.uncolored.assign(cand);
    const std::span<Word> uncolored = f.uncolored.words();
    const std::span<Word> forbidden = f.forbidden.words();
    std::uint32_t color = 0;
    while (f.uncolored.view().any()) {
      ++color;
      std::fill(forbidden.begin(), forbidden.end(), 0);
      for (std::size_t w = 0; w < uncolored.size(); ++w) {
        Word open = uncolored[w] & ~forbidden[w];
        while (open != 0) {
          const Word lowest = open & (~open + 1);
          const auto v = static_cast<VertexId>(
              w * kWordBits + static_cast<std::size_t>(__builtin_ctzll(open)));
          uncolored[w] &= ~lowest;
          f.order.push_back(v);
          f.color.push_back(color);
          if (g.degree(v) > 0) or_into(f.forbidden, g.neighbors(v), w);
          open &= ~lowest & ~forbidden[w];
        }
      }
    }
  }

  /// The root (depth 0) runs on g's rows; below it, `cand` and every
  /// vertex id are local ids of the current root branch's local_.
  void expand(DynamicBitset& cand, std::size_t depth) {
    ++nodes_;
    const graph::GraphView& g = depth == 0 ? g_ : local_.view();
    Frame& f = frame(depth, g.order());
    color_sort(g, cand, f);
    for (std::size_t i = f.order.size(); i-- > 0;) {
      if (current_.size() + f.color[i] <= std::max(best_.size(), floor_)) {
        return;
      }
      const VertexId v = f.order[i];
      current_.push_back(depth == 0 ? v : local_.global(v));
      f.next_cand.assign_and(cand, g.neighbors(v));
      if (f.next_cand.none()) {
        if (current_.size() > best_.size()) best_ = current_;
      } else if (depth == 0) {
        local_.assign(g_, f.next_cand);
        expand(local_.all(), 1);
      } else {
        // Safe to pass this depth's buffer: the callee touches only deeper
        // frames, and the buffer is rebuilt before the next iteration.
        expand(f.next_cand, depth + 1);
      }
      current_.pop_back();
      if (best_.size() >= stop_) return;
      cand.reset(v);
    }
  }

  const graph::GraphView& g_;
  LocalGraph local_;  ///< the current root branch's candidates
  Clique current_;
  Clique best_;
  std::size_t floor_ = 0;             ///< prune at |R| + color <= this too
  std::size_t stop_ = kUnknownOmega;  ///< a clique this large ends the run
  std::uint64_t nodes_ = 0;
  std::vector<Frame> frames_;
};

}  // namespace

MaxCliqueResult maximum_clique(const graph::GraphView& g) {
  util::Timer timer;
  MaxCliqueResult result = maximum_clique_from(g, greedy_clique_lower_bound(g));
  result.seconds = timer.seconds();
  return result;
}

MaxCliqueResult maximum_clique_from(const graph::GraphView& g, Clique lower,
                                    std::size_t omega_bound) {
  util::Timer timer;
  MaxCliqueResult result;
  MaxCliqueSearch search(g);
  if (omega_bound == kUnknownOmega) {
    result.clique = search.run(std::move(lower), 0);
  } else {
    std::sort(lower.begin(), lower.end());
    result.clique = lower;
    for (std::size_t target = omega_bound; target > lower.size(); --target) {
      Clique found = search.run(lower, target);
      if (found.size() >= target) {
        result.clique = std::move(found);
        break;
      }
    }
  }
  result.tree_nodes = search.nodes();
  result.seconds = timer.seconds();
  return result;
}

}  // namespace gsb::core
