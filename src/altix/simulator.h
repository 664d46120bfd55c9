#ifndef GSB_ALTIX_SIMULATOR_H
#define GSB_ALTIX_SIMULATOR_H

/// \file simulator.h
/// Trace-driven replay of a Clique Enumerator run on a modeled large
/// shared-memory machine.
///
/// Input: an EnumerationStats carrying the per-root seed costs and
/// per-sub-list level costs recorded by an instrumented (record_trace)
/// one-thread run.  The simulator pushes those task costs through the
/// paper's centralized scheduler, altix::LoadBalancer, at any processor
/// count, and charges the MachineModel's NUMA and synchronization
/// overheads.  (The real multithreaded driver balances at runtime instead,
/// by work stealing over range jobs.)  Because the task set is the real
/// one, the resulting curves inherit the genuine level structure and
/// imbalance of the workload rather than an analytic idealization.

#include <cstddef>
#include <vector>

#include "altix/load_balancer.h"
#include "altix/machine_model.h"
#include "core/enumeration_stats.h"

namespace gsb::altix {

/// Outcome of one simulated run at a fixed processor count.
struct SimulatedRun {
  std::size_t processors = 1;
  double seconds = 0.0;       ///< modeled wall time
  double seed_seconds = 0.0;  ///< modeled seeding phase
  std::vector<double> level_seconds;       ///< modeled per level
  std::vector<double> processor_busy;      ///< total busy time per processor
  std::uint64_t transfers = 0;             ///< scheduler transfers
};

/// Speedup series produced by sweep().
struct SpeedupPoint {
  std::size_t processors = 1;
  double seconds = 0.0;
  double absolute_speedup = 1.0;  ///< T(1) / T(p)
  double relative_speedup = 1.0;  ///< T(p/2) / T(p)  (1 for the first point)
};

/// Trace replayer.
class AltixSimulator {
 public:
  AltixSimulator(MachineModel model, LoadBalancerConfig balancer = {})
      : model_(model), balancer_(balancer) {}

  /// Replays \p trace on \p processors virtual CPUs.
  [[nodiscard]] SimulatedRun simulate(const core::EnumerationStats& trace,
                                      std::size_t processors) const;

  /// Replays the trace at each power of two up to max_processors (or the
  /// explicit list), deriving absolute and relative speedups.
  [[nodiscard]] std::vector<SpeedupPoint> sweep(
      const core::EnumerationStats& trace,
      const std::vector<std::size_t>& processor_counts) const;

  /// 1, 2, 4, ..., max_processors.
  [[nodiscard]] std::vector<std::size_t> power_of_two_counts() const;

  [[nodiscard]] const MachineModel& model() const noexcept { return model_; }

 private:
  MachineModel model_;
  LoadBalancerConfig balancer_;
};

}  // namespace gsb::altix

#endif  // GSB_ALTIX_SIMULATOR_H
