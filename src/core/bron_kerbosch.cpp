#include "core/bron_kerbosch.h"

#include <vector>

#include "bitset/dynamic_bitset.h"

namespace gsb::core {
namespace {

using bits::DynamicBitset;

/// Recursion state shared across the search tree for the two classical
/// variants.  Per-depth set buffers are pooled so the hot path performs no
/// allocation after warm-up.
class BkSearch {
 public:
  BkSearch(const graph::GraphView& g, const CliqueCallback& sink,
           BronKerboschVariant variant, const SizeRange& range)
      : g_(g), sink_(sink), variant_(variant), range_(range) {}

  BronKerboschStats run() {
    const std::size_t n = g_.order();
    DynamicBitset candidates(n);
    candidates.set_all();
    DynamicBitset not_set(n);
    compsub_.reserve(n);
    // Pre-size the frame pool: recursion depth is bounded by n + 1, and the
    // vector must never reallocate while references into it are live.
    frames_.resize(n + 1);
    extend(candidates, not_set, 0);
    return stats_;
  }

 private:
  struct Frame {
    DynamicBitset cand;
    DynamicBitset not_set;
  };

  Frame& frame(std::size_t depth) {
    Frame& f = frames_[depth];
    if (f.cand.size() != g_.order()) {
      f.cand.resize(g_.order());
      f.not_set.resize(g_.order());
    }
    return f;
  }

  void emit() {
    ++stats_.maximal_cliques;
    if (range_.contains(compsub_.size())) {
      sink_(std::span<const VertexId>(compsub_));
    }
  }

  /// The EXTEND operator of Algorithm 457 over bitmap sets.
  void extend(DynamicBitset& candidates, DynamicBitset& not_set,
              std::size_t depth) {
    ++stats_.tree_nodes;
    stats_.max_depth = std::max(stats_.max_depth, depth);
    if (candidates.none() && not_set.none()) {
      emit();
      return;
    }

    // Improved BK: fix a pivot with maximum connectivity into CANDIDATES;
    // only candidates not adjacent to the pivot are branch roots.
    std::size_t pivot = g_.order();
    if (variant_ == BronKerboschVariant::kImproved) {
      std::size_t best = 0;
      for (std::size_t v = candidates.find_first(); v < g_.order();
           v = candidates.find_next(v)) {
        const std::size_t links = DynamicBitset::count_and(
            candidates, g_.neighbors(static_cast<VertexId>(v)));
        if (pivot == g_.order() || links > best) {
          pivot = v;
          best = links;
        }
      }
    }

    Frame& f = frame(depth);
    for (std::size_t v = candidates.find_first(); v < g_.order();
         v = candidates.find_next(v)) {
      if (variant_ == BronKerboschVariant::kImproved && v != pivot &&
          g_.has_edge(static_cast<VertexId>(pivot),
                      static_cast<VertexId>(v))) {
        continue;  // covered by the pivot's branch
      }
      candidates.reset(v);
      compsub_.push_back(static_cast<VertexId>(v));
      const bits::BitsetView nv = g_.neighbors(static_cast<VertexId>(v));
      f.cand.assign_and(candidates, nv);
      f.not_set.assign_and(not_set, nv);
      extend(f.cand, f.not_set, depth + 1);
      compsub_.pop_back();
      not_set.set(v);
    }
  }

  const graph::GraphView& g_;
  const CliqueCallback& sink_;
  BronKerboschVariant variant_;
  SizeRange range_;
  std::vector<VertexId> compsub_;
  std::vector<Frame> frames_;
  BronKerboschStats stats_;
};

}  // namespace

BronKerboschStats bron_kerbosch(const graph::GraphView& g,
                                const CliqueCallback& sink,
                                BronKerboschVariant variant,
                                const SizeRange& range) {
  if (variant == BronKerboschVariant::kDegeneracy) {
    return degeneracy_bk(g, sink, range);
  }
  BkSearch search(g, sink, variant, range);
  return search.run();
}

BronKerboschStats base_bk(const graph::GraphView& g,
                          const CliqueCallback& sink,
                          const SizeRange& range) {
  return bron_kerbosch(g, sink, BronKerboschVariant::kBase, range);
}

BronKerboschStats improved_bk(const graph::GraphView& g,
                              const CliqueCallback& sink,
                              const SizeRange& range) {
  return bron_kerbosch(g, sink, BronKerboschVariant::kImproved, range);
}

}  // namespace gsb::core
