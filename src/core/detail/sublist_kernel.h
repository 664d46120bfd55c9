#ifndef GSB_CORE_DETAIL_SUBLIST_KERNEL_H
#define GSB_CORE_DETAIL_SUBLIST_KERNEL_H

/// \file sublist_kernel.h
/// The inner loop of the Clique Enumerator (§2.3, Figure 3), run by every
/// range job of the driver.  Processing one sub-list is an independent unit
/// of work: it reads only the immutable graph and its own sub-list, and
/// appends to a caller-supplied output level — which is what makes the
/// algorithm "parallel because the generation of (k+1)-cliques from one
/// k-clique sub-list is independent of any other k-clique sub-lists".

#include <cstdint>
#include <utility>
#include <vector>

#include "bitset/dynamic_bitset.h"
#include "core/sublist.h"
#include "graph/graph_view.h"
#include "util/memory_tracker.h"

namespace gsb::core::detail {

/// Recycles common-neighbor bit strings between levels; every bitset in the
/// pool spans the same vertex universe.
class BitsetPool {
 public:
  explicit BitsetPool(std::size_t nbits) : nbits_(nbits) {}

  bits::DynamicBitset acquire() {
    if (free_.empty()) return bits::DynamicBitset(nbits_);
    bits::DynamicBitset out = std::move(free_.back());
    free_.pop_back();
    return out;
  }

  void release(bits::DynamicBitset&& bitset) {
    if (bitset.size() == nbits_) free_.push_back(std::move(bitset));
  }

 private:
  std::size_t nbits_;
  std::vector<bits::DynamicBitset> free_;
};

/// Counters produced by one sub-list expansion.
struct KernelCounters {
  std::uint64_t pairs_checked = 0;
  std::uint64_t edges_present = 0;
  std::uint64_t maximal_emitted = 0;
};

/// Batches clique-storage byte accounting so the hot path touches no
/// shared atomics (a contended tracker measurably slowed multithreaded
/// enumeration).  Deltas are flushed to the tracker per level / per round;
/// the destructor flushes any remainder.
class MemoryLedger {
 public:
  explicit MemoryLedger(util::MemoryTracker& tracker) noexcept
      : tracker_(tracker) {}
  MemoryLedger(const MemoryLedger&) = delete;
  MemoryLedger& operator=(const MemoryLedger&) = delete;
  ~MemoryLedger() { flush(); }

  void allocate(std::size_t bytes) noexcept { allocated_ += bytes; }
  void release(std::size_t bytes) noexcept { released_ += bytes; }

  void flush() noexcept {
    if (allocated_ != 0) {
      tracker_.allocate(allocated_, util::MemTag::kCliqueStorage);
      allocated_ = 0;
    }
    if (released_ != 0) {
      tracker_.release(released_, util::MemTag::kCliqueStorage);
      released_ = 0;
    }
  }

 private:
  util::MemoryTracker& tracker_;
  std::size_t allocated_ = 0;
  std::size_t released_ = 0;
};

/// Expands one candidate k-clique sub-list into maximal (k+1)-cliques and
/// candidate (k+1)-clique sub-lists (appended to \p next).
///
/// \p emit_maximal is called as emit_maximal(prefix, v, u) for each maximal
/// (k+1)-clique prefix ∪ {v, u}; the callee owns assembling/translating the
/// clique.  The sub-list's own storage is released into \p pool / freed
/// afterwards ("each k-clique sub-list is deleted after its (k+1)-cliques
/// are generated"), with byte accounting against \p ledger.
template <typename EmitFn>
KernelCounters process_sublist(const graph::GraphView& g,
                               CliqueSublist& sublist, EmitFn&& emit_maximal,
                               Level& next, BitsetPool& pool,
                               MemoryLedger& ledger) {
  using bits::DynamicBitset;
  KernelCounters counters;
  const std::size_t released_bytes = sublist.bytes();
  const auto tail_count = sublist.tails.size();

  for (std::size_t i = 0; i + 1 < tail_count; ++i) {
    const graph::VertexId v = sublist.tails[i];
    const bits::BitsetView nv = g.neighbors(v);

    // Common neighbors of (prefix + v): one bitwise AND, per the paper's
    // incremental scheme — CommonNeighbors[S_{k+1}] =
    // BitAND(CommonNeighbors[S_k], Neighbors(v)).
    DynamicBitset child_common = pool.acquire();
    child_common.assign_and(sublist.common, nv);

    CliqueSublist child;
    for (std::size_t j = i + 1; j < tail_count; ++j) {
      const graph::VertexId u = sublist.tails[j];
      ++counters.pairs_checked;
      if (!nv.test(u)) continue;  // (v, u) not an edge
      ++counters.edges_present;
      // Maximality: BitOneExists(BitAND(child_common, Neighbors(u))),
      // evaluated without materializing the intersection.
      if (DynamicBitset::intersects(child_common, g.neighbors(u))) {
        child.tails.push_back(u);  // candidate (k+1)-clique
      } else {
        ++counters.maximal_emitted;
        emit_maximal(sublist.prefix, v, u);
      }
    }

    // Keep the child sub-list only when it holds at least two candidate
    // cliques; smaller sub-lists cannot generate further cliques in
    // canonical order.
    if (child.tails.size() > 1) {
      child.prefix.reserve(sublist.prefix.size() + 1);
      child.prefix = sublist.prefix;
      child.prefix.push_back(v);
      child.common = std::move(child_common);
      ledger.allocate(child.bytes());
      next.push_back(std::move(child));
    } else {
      pool.release(std::move(child_common));
    }
  }

  // Retire the processed sub-list; its bitmap is recycled.
  pool.release(std::move(sublist.common));
  sublist = CliqueSublist{};
  ledger.release(released_bytes);
  return counters;
}

}  // namespace gsb::core::detail

#endif  // GSB_CORE_DETAIL_SUBLIST_KERNEL_H
