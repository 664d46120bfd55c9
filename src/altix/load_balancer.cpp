#include "altix/load_balancer.h"

#include <algorithm>
#include <cassert>
#include <functional>
#include <numeric>
#include <queue>

namespace gsb::altix {

std::uint64_t Assignment::max_load() const noexcept {
  std::uint64_t best = 0;
  for (std::uint64_t l : load) best = std::max(best, l);
  return best;
}

std::uint64_t Assignment::min_load() const noexcept {
  if (load.empty()) return 0;
  std::uint64_t best = load[0];
  for (std::uint64_t l : load) best = std::min(best, l);
  return best;
}

double Assignment::imbalance() const noexcept {
  if (load.empty()) return 1.0;
  const std::uint64_t total =
      std::accumulate(load.begin(), load.end(), std::uint64_t{0});
  if (total == 0) return 1.0;
  const double mean =
      static_cast<double>(total) / static_cast<double>(load.size());
  return static_cast<double>(max_load()) / mean;
}

Assignment LoadBalancer::assign(std::span<const std::uint64_t> costs,
                                std::span<const std::uint32_t> home,
                                std::size_t threads) const {
  threads = std::max<std::size_t>(1, threads);
  const std::size_t n = costs.size();
  assert(home.empty() || home.size() == n);

  Assignment out;
  out.tasks.assign(threads, {});
  out.load.assign(threads, 0);
  out.remote.assign(n, false);
  std::vector<std::uint32_t> owner(n, 0);

  // --- initial partition ----------------------------------------------------
  if (!home.empty()) {
    for (std::size_t i = 0; i < n; ++i) {
      const std::uint32_t t = home[i] < threads ? home[i] : 0;
      owner[i] = t;
      out.load[t] += costs[i];
    }
  } else {
    // Even contiguous split by count.
    const std::size_t per = n / threads;
    const std::size_t extra = n % threads;
    std::size_t index = 0;
    for (std::size_t t = 0; t < threads; ++t) {
      const std::size_t take = per + (t < extra ? 1 : 0);
      for (std::size_t s = 0; s < take; ++s, ++index) {
        owner[index] = static_cast<std::uint32_t>(t);
        out.load[t] += costs[index];
      }
    }
  }

  // --- threshold-triggered rebalance ------------------------------------------
  // When the spread between thread loads exceeds the threshold, the
  // scheduler redistributes: a locality-aware LPT pass over the tasks in
  // descending cost order.  Each task stays home whenever home is within
  // the threshold of the least-loaded thread; otherwise it is transferred
  // (and flagged remote).  O(T log T) — the per-move greedy of a naive
  // implementation is quadratic and was measurably slower than the
  // enumeration it scheduled.
  const std::uint64_t total =
      std::accumulate(out.load.begin(), out.load.end(), std::uint64_t{0});
  const double avg = static_cast<double>(total) / static_cast<double>(threads);
  const auto threshold = static_cast<std::uint64_t>(
      config_.threshold_frac * avg + static_cast<double>(config_.min_grain));
  const std::uint64_t spread = out.max_load() - out.min_load();

  if (config_.enable_transfers && threads > 1 && n > 0 &&
      spread > threshold) {
    std::vector<std::uint32_t> order(n);
    std::iota(order.begin(), order.end(), 0u);
    std::sort(order.begin(), order.end(),
              [&](std::uint32_t a, std::uint32_t b) {
                if (costs[a] != costs[b]) return costs[a] > costs[b];
                return a < b;
              });

    // Min-heap of (load, thread).
    using Slot = std::pair<std::uint64_t, std::uint32_t>;
    std::priority_queue<Slot, std::vector<Slot>, std::greater<>> heap;
    std::vector<std::uint64_t> load(threads, 0);
    for (std::uint32_t t = 0; t < threads; ++t) heap.emplace(0, t);

    std::uint64_t moves = 0;
    for (std::uint32_t task : order) {
      // Lazy deletion: every load update pushes a fresh entry, so stale
      // entries are simply discarded (each is popped at most once).
      while (heap.top().first != load[heap.top().second]) heap.pop();
      const Slot top = heap.top();
      const std::uint32_t origin = owner[task];
      // Locality: keep the task home when home is within the threshold of
      // the least-loaded thread (or when the transfer budget is spent).
      const bool keep_home = load[origin] <= top.first + threshold ||
                             moves >= config_.max_transfers;
      const std::uint32_t target = keep_home ? origin : top.second;
      if (target != origin) {
        ++moves;
        out.remote[task] = home.empty() || target != home[task];
      }
      owner[task] = target;
      load[target] += costs[task];
      heap.emplace(load[target], target);
    }
    out.transfers = moves;
    out.load = std::move(load);
  }

  for (std::size_t i = 0; i < n; ++i) {
    out.tasks[owner[i]].push_back(static_cast<std::uint32_t>(i));
  }
  return out;
}

}  // namespace gsb::altix
