// Tests for the Altix machine-model simulator: replay consistency,
// monotonic scaling behaviour on well-shaped traces, and overhead charging;
// and for the centralized load balancer whose plans it replays.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "altix/load_balancer.h"
#include "altix/simulator.h"
#include "core/clique_enumerator.h"
#include "tests/test_helpers.h"

namespace gsb::altix {
namespace {

/// A synthetic trace with `levels` levels of `tasks` equal-cost tasks.
core::EnumerationStats uniform_trace(std::size_t levels, std::size_t tasks,
                                     double cost) {
  core::EnumerationStats stats;
  for (std::size_t l = 0; l < levels; ++l) {
    core::LevelTrace trace;
    trace.k = 3 + l;
    trace.task_work.assign(tasks, 100);
    trace.task_seconds.assign(tasks, cost);
    stats.traces.push_back(std::move(trace));
  }
  return stats;
}

TEST(LoadBalancer, ConservationEveryTaskOnce) {
  util::Rng rng(3);
  std::vector<std::uint64_t> costs(137);
  for (auto& c : costs) c = rng.below(1000) + 1;
  LoadBalancer balancer;
  const auto assignment = balancer.assign(costs, {}, 5);
  std::vector<int> seen(costs.size(), 0);
  for (const auto& tasks : assignment.tasks) {
    for (auto t : tasks) ++seen[t];
  }
  for (std::size_t i = 0; i < costs.size(); ++i) {
    EXPECT_EQ(seen[i], 1) << "task " << i;
  }
  // Load sums match the per-thread task sets.
  for (std::size_t t = 0; t < 5; ++t) {
    std::uint64_t sum = 0;
    for (auto task : assignment.tasks[t]) sum += costs[task];
    EXPECT_EQ(sum, assignment.load[t]);
  }
}

TEST(LoadBalancer, TransfersReduceImbalance) {
  // One giant producer thread: everything starts on thread 0.
  std::vector<std::uint64_t> costs(64, 100);
  std::vector<std::uint32_t> home(64, 0);
  LoadBalancerConfig config;
  config.min_grain = 0;
  LoadBalancer balancer(config);
  const auto balanced = balancer.assign(costs, home, 4);
  EXPECT_GT(balanced.transfers, 0u);
  EXPECT_LT(balanced.imbalance(), 1.3);

  LoadBalancerConfig off = config;
  off.enable_transfers = false;
  const auto stuck = LoadBalancer(off).assign(costs, home, 4);
  EXPECT_EQ(stuck.transfers, 0u);
  EXPECT_DOUBLE_EQ(stuck.imbalance(), 4.0);  // all on thread 0
}

TEST(LoadBalancer, RemoteFlagsMarkMovedTasks) {
  std::vector<std::uint64_t> costs{100, 100, 100, 100};
  std::vector<std::uint32_t> home{0, 0, 0, 0};
  LoadBalancerConfig config;
  config.min_grain = 0;
  const auto assignment = LoadBalancer(config).assign(costs, home, 2);
  std::size_t remote = 0;
  for (std::size_t i = 0; i < costs.size(); ++i) {
    if (assignment.remote[i]) ++remote;
  }
  EXPECT_EQ(remote, assignment.transfers);
  EXPECT_GT(remote, 0u);
}

TEST(LoadBalancer, EvenSplitWithoutHome) {
  std::vector<std::uint64_t> costs(10, 1);
  const auto assignment = LoadBalancer().assign(costs, {}, 3);
  // 10 tasks over 3 threads: 4/3/3 by count.
  std::vector<std::size_t> sizes;
  for (const auto& tasks : assignment.tasks) sizes.push_back(tasks.size());
  std::sort(sizes.begin(), sizes.end());
  EXPECT_EQ(sizes, (std::vector<std::size_t>{3, 3, 4}));
}

TEST(LoadBalancer, SingleThreadDegenerate) {
  std::vector<std::uint64_t> costs{5, 6, 7};
  const auto assignment = LoadBalancer().assign(costs, {}, 1);
  EXPECT_EQ(assignment.tasks[0].size(), 3u);
  EXPECT_EQ(assignment.transfers, 0u);
  EXPECT_DOUBLE_EQ(assignment.imbalance(), 1.0);
}

TEST(LoadBalancer, EmptyTaskList) {
  const auto assignment =
      LoadBalancer().assign(std::vector<std::uint64_t>{}, {}, 4);
  EXPECT_EQ(assignment.tasks.size(), 4u);
  for (const auto& tasks : assignment.tasks) EXPECT_TRUE(tasks.empty());
}

TEST(Altix, SingleProcessorSumsCosts) {
  MachineModel model;
  model.barrier_base = 0.0;
  model.barrier_log2 = 0.0;
  model.scheduler_per_task = 0.0;
  model.collect_base = 0.0;
  const AltixSimulator sim(model);
  const auto trace = uniform_trace(4, 10, 0.01);
  const auto run = sim.simulate(trace, 1);
  EXPECT_NEAR(run.seconds, 4 * 10 * 0.01, 1e-9);
  EXPECT_EQ(run.level_seconds.size(), 4u);
  EXPECT_EQ(run.processors, 1u);
}

TEST(Altix, PerfectlyParallelTraceScales) {
  MachineModel model;
  model.remote_penalty = 0.0;
  model.barrier_base = 0.0;
  model.barrier_log2 = 0.0;
  model.scheduler_per_task = 0.0;
  model.collect_base = 0.0;
  const AltixSimulator sim(model);
  const auto trace = uniform_trace(2, 64, 0.01);
  const auto t1 = sim.simulate(trace, 1).seconds;
  const auto t8 = sim.simulate(trace, 8).seconds;
  EXPECT_NEAR(t1 / t8, 8.0, 0.01);
}

TEST(Altix, SpeedupBoundedByLargestTask) {
  MachineModel model;
  model.remote_penalty = 0.0;
  model.barrier_base = 0.0;
  model.barrier_log2 = 0.0;
  model.scheduler_per_task = 0.0;
  model.collect_base = 0.0;
  const AltixSimulator sim(model);
  core::EnumerationStats trace;
  core::LevelTrace level;
  level.task_seconds = {1.0, 0.01, 0.01, 0.01};
  level.task_work = {100, 1, 1, 1};
  trace.traces.push_back(level);
  const auto run = sim.simulate(trace, 64);
  EXPECT_GE(run.seconds, 1.0);  // the big task is the critical path
}

TEST(Altix, SyncOverheadDegradesLargeP) {
  MachineModel model;  // defaults include barrier costs
  const AltixSimulator sim(model);
  // Small workload: beyond some p the barrier dominates and speedup decays.
  const auto trace = uniform_trace(20, 64, 0.0002);
  const auto points = sim.sweep(trace, {1, 2, 4, 8, 16, 32, 64, 128, 256});
  double best = 0.0;
  std::size_t best_p = 1;
  for (const auto& point : points) {
    if (point.absolute_speedup > best) {
      best = point.absolute_speedup;
      best_p = point.processors;
    }
  }
  EXPECT_LT(best_p, 256u);  // optimum is strictly inside the range
  EXPECT_LT(points.back().absolute_speedup, best);
}

TEST(Altix, LargerWorkloadsScaleFurther) {
  // Figure 7's shape: more sequential work -> better speedup at 256p.
  const AltixSimulator sim(MachineModel{});
  const auto small = uniform_trace(10, 128, 0.0001);
  const auto large = uniform_trace(10, 128, 0.01);
  const auto s_small = sim.sweep(small, {1, 256}).back().absolute_speedup;
  const auto s_large = sim.sweep(large, {1, 256}).back().absolute_speedup;
  EXPECT_GT(s_large, s_small);
}

TEST(Altix, RemotePenaltyChargesTransfers) {
  MachineModel no_penalty;
  no_penalty.remote_penalty = 0.0;
  MachineModel penalty;
  penalty.remote_penalty = 10.0;  // exaggerated for visibility
  // Imbalanced costs force transfers from the contiguous initial split.
  core::EnumerationStats trace;
  core::LevelTrace level;
  for (int i = 0; i < 32; ++i) {
    level.task_seconds.push_back(i < 16 ? 0.01 : 0.0001);
    level.task_work.push_back(i < 16 ? 100 : 1);
  }
  trace.traces.push_back(level);
  const auto fast = AltixSimulator(no_penalty).simulate(trace, 4);
  const auto slow = AltixSimulator(penalty).simulate(trace, 4);
  EXPECT_GT(fast.transfers, 0u);
  EXPECT_GT(slow.seconds, fast.seconds);
}

TEST(Altix, PowerOfTwoCounts) {
  MachineModel model;
  model.max_processors = 256;
  const AltixSimulator sim(model);
  const auto counts = sim.power_of_two_counts();
  ASSERT_EQ(counts.size(), 9u);
  EXPECT_EQ(counts.front(), 1u);
  EXPECT_EQ(counts.back(), 256u);
}

TEST(Altix, RelativeSpeedupSeries) {
  MachineModel model;
  model.remote_penalty = 0.0;
  model.barrier_base = 0.0;
  model.barrier_log2 = 0.0;
  model.scheduler_per_task = 0.0;
  model.collect_base = 0.0;
  const AltixSimulator sim(model);
  const auto trace = uniform_trace(1, 1024, 0.001);
  const auto points = sim.sweep(trace, {1, 2, 4});
  EXPECT_NEAR(points[1].relative_speedup, 2.0, 0.05);
  EXPECT_NEAR(points[2].relative_speedup, 2.0, 0.05);
  EXPECT_NEAR(points[2].absolute_speedup, 4.0, 0.1);
}

TEST(Altix, RealTraceReplayIsConsistent) {
  // End to end: record a real instrumented run, then check the p=1 replay
  // roughly reproduces the measured task-time total.
  const auto g = test::random_graph(60, 0.3, 7);
  core::CliqueCollector sink;
  core::CliqueEnumeratorOptions options;
  options.range = core::SizeRange{3, 0};
  options.record_trace = true;
  const auto stats =
      core::enumerate_maximal_cliques(g, sink.callback(), options);
  double task_total = 0.0;
  for (const auto& level : stats.traces) {
    for (double s : level.task_seconds) task_total += s;
  }
  for (double s : stats.seed_trace.task_seconds) task_total += s;

  MachineModel model;
  model.barrier_base = 0.0;
  model.barrier_log2 = 0.0;
  model.scheduler_per_task = 0.0;
  model.collect_base = 0.0;
  const auto run = AltixSimulator(model).simulate(stats, 1);
  EXPECT_NEAR(run.seconds, task_total, task_total * 0.01 + 1e-9);
}

}  // namespace
}  // namespace gsb::altix

namespace gsb::altix {
namespace {

TEST(Altix, CollectPerProcessorBendsLargeP) {
  MachineModel flat;
  flat.remote_penalty = 0.0;
  flat.barrier_base = 0.0;
  flat.barrier_log2 = 0.0;
  flat.scheduler_per_task = 0.0;
  flat.collect_base = 0.0;
  MachineModel bent = flat;
  bent.collect_per_processor = 1e-4;
  const auto trace = uniform_trace(4, 512, 0.001);
  const double flat256 = AltixSimulator(flat).simulate(trace, 256).seconds;
  const double bent256 = AltixSimulator(bent).simulate(trace, 256).seconds;
  EXPECT_GT(bent256, flat256 + 4 * 256 * 1e-4 * 0.9);
  // ... while p=1 is uncharged (collection term only applies when p > 1).
  EXPECT_DOUBLE_EQ(AltixSimulator(bent).simulate(trace, 1).seconds,
                   AltixSimulator(flat).simulate(trace, 1).seconds);
}

TEST(Altix, WorkProxyCostingIgnoresJitterSpikes) {
  // Same total seconds; one task's *measured* time is an OS-jitter spike but
  // its work proxy says it is ordinary.  The replay must balance by proxy.
  core::EnumerationStats trace;
  core::LevelTrace level;
  level.task_work.assign(64, 10);      // uniform true work
  level.task_seconds.assign(64, 0.001);
  level.task_seconds[7] = 0.5;         // jitter spike
  trace.traces.push_back(level);
  MachineModel model;
  model.remote_penalty = 0.0;
  model.barrier_base = 0.0;
  model.barrier_log2 = 0.0;
  model.scheduler_per_task = 0.0;
  model.collect_base = 0.0;
  const auto run = AltixSimulator(model).simulate(trace, 8);
  const double total = 0.001 * 63 + 0.5;
  // Perfectly divisible by proxy: T8 == total/8, not max(spike, total/8).
  EXPECT_NEAR(run.seconds, total / 8.0, total * 0.02);
}

}  // namespace
}  // namespace gsb::altix
