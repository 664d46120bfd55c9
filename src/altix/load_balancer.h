#ifndef GSB_ALTIX_LOAD_BALANCER_H
#define GSB_ALTIX_LOAD_BALANCER_H

/// \file load_balancer.h
/// The **centralized dynamic load balancer** of §2.3.
///
/// At every level the task scheduler (a) partitions the level's sub-lists
/// across threads — initially "evenly", thereafter respecting the thread
/// that produced each sub-list so work stays in local memory — and (b) when
/// the spread between thread loads exceeds a threshold "determined based on
/// the graph size, the total amount of current load, and differences of
/// their loads from the average load", transfers tasks from the most loaded
/// to the least loaded thread.  A transferred task is flagged: on NUMA
/// machines (the paper's Altix) it pays remote-memory access, which the
/// gsb::altix machine model charges for.
///
/// Only the machine-model replay (simulator.h) plans with this policy.
/// Real runs — the Clique Enumerator and Bron–Kerbosch — cut their work
/// into range jobs that idle workers steal (par::JobGraph).

#include <cstdint>
#include <span>
#include <vector>

namespace gsb::altix {

/// Threshold and policy knobs.
struct LoadBalancerConfig {
  /// Transfers trigger when (max_load - min_load) exceeds
  /// `threshold_frac * average_load + min_grain`.
  double threshold_frac = 0.10;
  /// Absolute slack added to the threshold, in cost units; prevents
  /// shuffling when the whole level is tiny relative to the graph size.
  std::uint64_t min_grain = 64;
  /// Disable transfers entirely (ablation: static even split).
  bool enable_transfers = true;
  /// Cap on transfer iterations per level (safety valve).
  std::size_t max_transfers = 1u << 20;
};

/// Result of one scheduling decision.
struct Assignment {
  /// tasks[t] = indices of the tasks thread t executes, in execution order.
  std::vector<std::vector<std::uint32_t>> tasks;
  /// Estimated load per thread after balancing.
  std::vector<std::uint64_t> load;
  /// remote[i] = true iff task i runs on a thread other than its home.
  std::vector<bool> remote;
  /// Number of tasks moved off their home thread.
  std::uint64_t transfers = 0;

  [[nodiscard]] std::uint64_t max_load() const noexcept;
  [[nodiscard]] std::uint64_t min_load() const noexcept;
  /// max/mean load ratio (1.0 = perfectly balanced).
  [[nodiscard]] double imbalance() const noexcept;
};

/// Stateless scheduling policy (the "smart" decision procedure).
class LoadBalancer {
 public:
  explicit LoadBalancer(LoadBalancerConfig config = {}) : config_(config) {}

  /// Assigns tasks with the given \p costs to \p threads threads.
  ///
  /// \p home (optional, empty = none) gives each task's producing thread;
  /// tasks start on their home thread and are only moved by explicit
  /// transfer decisions.  Without home information the initial partition is
  /// an even contiguous split by count (the paper's "divides all k-cliques
  /// evenly"), which transfers then refine by cost.
  [[nodiscard]] Assignment assign(std::span<const std::uint64_t> costs,
                                  std::span<const std::uint32_t> home,
                                  std::size_t threads) const;

  [[nodiscard]] const LoadBalancerConfig& config() const noexcept {
    return config_;
  }

 private:
  LoadBalancerConfig config_;
};

}  // namespace gsb::altix

#endif  // GSB_ALTIX_LOAD_BALANCER_H
