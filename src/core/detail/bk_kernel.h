#ifndef GSB_CORE_DETAIL_BK_KERNEL_H
#define GSB_CORE_DETAIL_BK_KERNEL_H

/// \file bk_kernel.h
/// The pivoted Bron–Kerbosch subtree search of the degeneracy-ordered
/// driver (parallel_bk.cpp), which degeneracy_bk runs at one worker.
///
/// The driver slices the problem by root: vertex v_i of a degeneracy order
/// roots one independent subproblem whose CANDIDATES are v_i's
/// later-ordered neighbors and whose NOT set is its earlier-ordered
/// neighbors, so every maximal clique is found in exactly one subtree and
/// the deepest CANDIDATES set is bounded by the degeneracy, not the
/// maximum degree.  Inside a subtree the pivot is chosen from
/// CANDIDATES ∪ NOT with the maximum number of connections into
/// CANDIDATES (max-candidate pivoting), so only non-neighbors of the
/// pivot spawn branches.
///
/// The search owns its per-depth set buffers (pooled, no allocation after
/// warm-up) and is deliberately single-threaded: the driver holds one
/// instance per worker.

#include <algorithm>
#include <vector>

#include "bitset/dynamic_bitset.h"
#include "core/bron_kerbosch.h"
#include "core/clique.h"
#include "graph/graph_view.h"

namespace gsb::core::detail {

/// One root's pivoted EXTEND search.  Reusable across roots; the sink and
/// size window are fixed for the lifetime of the object.
class BkPivotSearch {
 public:
  BkPivotSearch(const graph::GraphView& g, const CliqueCallback& sink,
                const SizeRange& range)
      : g_(g), sink_(sink), range_(range) {
    compsub_.reserve(g.order());
    // Depth is bounded by the largest clique containing the root, itself
    // bounded by order; the vector must never reallocate while references
    // into it are live, so size it once up front.
    frames_.resize(g.order() + 1);
  }

  /// Enumerates every maximal clique that contains \p root, none of the
  /// vertices in \p not_set, and otherwise only vertices of \p cand.
  /// Both sets must exclude \p root.
  void run_root(VertexId root, const bits::DynamicBitset& cand,
                const bits::DynamicBitset& not_set) {
    compsub_.clear();
    compsub_.push_back(root);
    Frame& f = frame(0);
    f.cand.assign(cand);
    f.not_set.assign(not_set);
    extend(f.cand, f.not_set, 1);
  }

  [[nodiscard]] const BronKerboschStats& stats() const noexcept {
    return stats_;
  }

 private:
  struct Frame {
    bits::DynamicBitset cand;
    bits::DynamicBitset not_set;
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

  void extend(bits::DynamicBitset& candidates, bits::DynamicBitset& not_set,
              std::size_t depth) {
    ++stats_.tree_nodes;
    stats_.max_depth = std::max(stats_.max_depth, depth);
    if (candidates.none()) {
      if (not_set.none()) emit();
      return;
    }

    // Max-candidate pivot from CANDIDATES ∪ NOT: branching is restricted
    // to candidates not adjacent to the pivot.
    std::size_t pivot = g_.order();
    std::size_t best = 0;
    const auto consider = [&](std::size_t v) {
      const std::size_t links =
          bits::DynamicBitset::count_and(candidates, g_.neighbors(
              static_cast<VertexId>(v)));
      if (pivot == g_.order() || links > best) {
        pivot = v;
        best = links;
      }
    };
    candidates.for_each(consider);
    not_set.for_each(consider);
    const bits::BitsetView pivot_row =
        g_.neighbors(static_cast<VertexId>(pivot));

    Frame& f = frame(depth);
    for (std::size_t v = candidates.find_first(); v < g_.order();
         v = candidates.find_next(v)) {
      if (v != pivot && pivot_row.test(v)) {
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
  SizeRange range_;
  std::vector<VertexId> compsub_;
  std::vector<Frame> frames_;
  BronKerboschStats stats_;
};

}  // namespace gsb::core::detail

#endif  // GSB_CORE_DETAIL_BK_KERNEL_H
