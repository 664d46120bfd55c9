#include "altix/simulator.h"

#include <algorithm>
#include <cmath>

namespace gsb::altix {
namespace {

constexpr double kSecondsToNanos = 1e9;

/// Per-task costs in seconds.  When deterministic work proxies are
/// available, each task's cost is its share of the measured phase total
/// (work_i / sum(work) * sum(seconds)): per-task wall-clock samples at
/// sub-microsecond granularity carry OS jitter (preemptions, page faults)
/// that would otherwise masquerade as indivisible critical-path chunks.
/// Falls back to the raw measurements when proxies are absent.
std::vector<double> task_costs(const std::vector<std::uint64_t>& work,
                               const std::vector<double>& seconds) {
  std::vector<double> costs(seconds.size());
  double seconds_total = 0.0;
  for (double s : seconds) seconds_total += std::max(0.0, s);
  std::uint64_t work_total = 0;
  if (work.size() == seconds.size()) {
    for (std::uint64_t w : work) work_total += w;
  }
  if (work_total > 0 && seconds_total > 0.0) {
    const double unit = seconds_total / static_cast<double>(work_total);
    for (std::size_t i = 0; i < costs.size(); ++i) {
      costs[i] = static_cast<double>(work[i]) * unit;
    }
  } else {
    for (std::size_t i = 0; i < costs.size(); ++i) {
      costs[i] = std::max(0.0, seconds[i]);
    }
  }
  return costs;
}

/// Converts cost seconds to integer units for the scheduler.
std::vector<std::uint64_t> to_cost_units(const std::vector<double>& seconds) {
  std::vector<std::uint64_t> costs(seconds.size());
  for (std::size_t i = 0; i < seconds.size(); ++i) {
    costs[i] =
        static_cast<std::uint64_t>(std::max(0.0, seconds[i]) * kSecondsToNanos) +
        1;
  }
  return costs;
}

}  // namespace

SimulatedRun AltixSimulator::simulate(const core::EnumerationStats& trace,
                                      std::size_t processors) const {
  processors = std::max<std::size_t>(1, processors);
  SimulatedRun run;
  run.processors = processors;
  run.processor_busy.assign(processors, 0.0);
  const LoadBalancer balancer(balancer_);
  const double log2p = std::log2(static_cast<double>(processors));
  const double sync =
      processors > 1 ? model_.barrier_base + model_.barrier_log2 * log2p +
                           model_.collect_per_processor *
                               static_cast<double>(processors)
                     : 0.0;

  // --- seeding phase ----------------------------------------------------------
  {
    const auto& seed = trace.seed_trace;
    if (!seed.task_seconds.empty()) {
      const auto costs = task_costs(seed.task_work, seed.task_seconds);
      const Assignment assignment =
          balancer.assign(to_cost_units(costs), {}, processors);
      double slowest = 0.0;
      for (std::size_t t = 0; t < processors; ++t) {
        double busy = 0.0;
        for (std::uint32_t task : assignment.tasks[t]) {
          busy += costs[task];
        }
        run.processor_busy[t] += busy;
        slowest = std::max(slowest, busy);
      }
      run.seed_seconds = slowest + sync +
                         model_.scheduler_per_task *
                             static_cast<double>(costs.size());
    }
  }

  // --- level loop ---------------------------------------------------------------
  // The one-thread trace does not know which virtual thread would have
  // produced each sub-list, so every level is scheduled from an even split
  // refined by transfers; transferred tasks pay the NUMA remote penalty.
  for (const auto& level : trace.traces) {
    const auto costs = task_costs(level.task_work, level.task_seconds);
    const Assignment assignment =
        balancer.assign(to_cost_units(costs), {}, processors);
    run.transfers += assignment.transfers;
    double slowest = 0.0;
    for (std::size_t t = 0; t < processors; ++t) {
      double busy = 0.0;
      for (std::uint32_t task : assignment.tasks[t]) {
        double cost = costs[task];
        if (processors > 1 && assignment.remote[task]) {
          cost *= 1.0 + model_.remote_penalty;
        }
        busy += cost;
      }
      run.processor_busy[t] += busy;
      slowest = std::max(slowest, busy);
    }
    const double level_time =
        slowest + sync + model_.collect_base +
        model_.scheduler_per_task * static_cast<double>(costs.size());
    run.level_seconds.push_back(level_time);
    run.seconds += level_time;
  }
  run.seconds += run.seed_seconds;
  return run;
}

std::vector<SpeedupPoint> AltixSimulator::sweep(
    const core::EnumerationStats& trace,
    const std::vector<std::size_t>& processor_counts) const {
  std::vector<SpeedupPoint> points;
  double t1 = 0.0;
  double prev = 0.0;
  for (std::size_t i = 0; i < processor_counts.size(); ++i) {
    const SimulatedRun run = simulate(trace, processor_counts[i]);
    SpeedupPoint point;
    point.processors = processor_counts[i];
    point.seconds = run.seconds;
    if (i == 0) {
      t1 = processor_counts[i] == 1 ? run.seconds
                                    : simulate(trace, 1).seconds;
    }
    point.absolute_speedup = run.seconds > 0 ? t1 / run.seconds : 1.0;
    point.relative_speedup =
        (i == 0 || run.seconds == 0) ? 1.0 : prev / run.seconds;
    prev = run.seconds;
    points.push_back(point);
  }
  return points;
}

std::vector<std::size_t> AltixSimulator::power_of_two_counts() const {
  std::vector<std::size_t> counts;
  for (std::size_t p = 1; p <= model_.max_processors; p *= 2) {
    counts.push_back(p);
  }
  return counts;
}

}  // namespace gsb::altix
