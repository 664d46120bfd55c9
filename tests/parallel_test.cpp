// Tests for the parallel substrate (thread pool) and the multithreaded
// Clique Enumerator.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <numeric>
#include <stdexcept>

#include "core/detail/sublist_kernel.h"
#include "core/kclique.h"
#include "core/parallel_enumerator.h"
#include "core/verify.h"
#include "parallel/thread_pool.h"
#include "storage/gsbg_writer.h"
#include "storage/mapped_graph.h"
#include "tests/test_helpers.h"

namespace gsb {
namespace {

TEST(ThreadPool, RunsEveryWorkerExactlyOnce) {
  par::ThreadPool pool(4);
  ASSERT_EQ(pool.size(), 4u);
  std::vector<std::atomic<int>> hits(4);
  pool.run_round([&](std::size_t tid) { ++hits[tid]; });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, RepeatedRounds) {
  par::ThreadPool pool(3);
  std::atomic<int> total{0};
  for (int round = 0; round < 50; ++round) {
    pool.run_round([&](std::size_t) { ++total; });
  }
  EXPECT_EQ(total.load(), 150);
}

TEST(ThreadPool, MinimumOneThread) {
  par::ThreadPool pool(0);
  EXPECT_EQ(pool.size(), 1u);
  int ran = 0;
  pool.run_round([&](std::size_t) { ++ran; });
  EXPECT_EQ(ran, 1);
}

TEST(ThreadPool, OneWorkerRoundsRunSerially) {
  par::ThreadPool pool(1);
  int depth = 0;
  int max_depth = 0;
  for (int round = 0; round < 20; ++round) {
    pool.run_round([&](std::size_t tid) {
      EXPECT_EQ(tid, 0u);
      max_depth = std::max(max_depth, ++depth);
      --depth;
    });
  }
  EXPECT_EQ(max_depth, 1);
}

TEST(ThreadPool, RoundAfterShutdownThrows) {
  par::ThreadPool pool(2);
  pool.run_round([](std::size_t) {});
  pool.shutdown();
  EXPECT_TRUE(pool.stopped());
  pool.shutdown();  // idempotent, must not hang or double-join
  EXPECT_THROW(pool.run_round([](std::size_t) {}), std::runtime_error);
}

TEST(ThreadPool, ReentrantRoundFromWorkerThrows) {
  // A worker that submits a round to its own pool would wait for workers
  // that are all busy running the current round — including itself.  The
  // pool detects this and throws instead of deadlocking.
  par::ThreadPool pool(2);
  std::atomic<int> rejected{0};
  pool.run_round([&](std::size_t) {
    try {
      pool.run_round([](std::size_t) {});
    } catch (const std::logic_error&) {
      ++rejected;
    }
  });
  EXPECT_EQ(rejected.load(), 2);
  // The pool survives the rejected submissions.
  std::atomic<int> ran{0};
  pool.run_round([&](std::size_t) { ++ran; });
  EXPECT_EQ(ran.load(), 2);
}

TEST(ThreadPool, NestedDistinctPoolIsAllowed) {
  // Stages that parallelize internally create their own team inside an
  // outer pool's worker (the overlapped pipeline does exactly this); the
  // re-entrancy guard must only reject rounds on the *same* pool.
  par::ThreadPool outer(2);
  std::atomic<int> inner_ran{0};
  outer.run_round([&](std::size_t tid) {
    if (tid != 0) return;
    par::ThreadPool inner(2);
    inner.run_round([&](std::size_t) { ++inner_ran; });
  });
  EXPECT_EQ(inner_ran.load(), 2);
}

TEST(ParallelEnumerator, MatchesReferenceOnModuleGraph) {
  util::Rng rng(17);
  graph::ModuleGraphConfig config;
  config.n = 160;
  config.num_modules = 14;
  config.max_module_size = 13;
  config.overlap = 0.3;
  config.background_edges = 150;
  const auto mg = graph::planted_modules(config, rng);

  const core::SizeRange range{3, 0};
  const auto expect = test::reference_emission_sequence(mg.graph, range);
  for (std::size_t threads : {1u, 2u, 3u, 4u, 8u}) {
    core::ParallelOptions options;
    options.range = range;
    options.threads = threads;
    core::CliqueCollector got;
    core::enumerate_maximal_cliques_parallel(mg.graph, got.callback(),
                                             options);
    EXPECT_EQ(got.cliques(), expect) << "threads=" << threads;
  }
}

TEST(ParallelEnumerator, WindowAndIsolatedVertices) {
  graph::Graph g(6);
  g.add_edge(0, 1);
  g.add_edge(1, 2);
  g.add_edge(0, 2);
  core::ParallelOptions options;
  options.range = core::SizeRange{1, 0};
  options.threads = 2;
  const auto got = test::run_parallel_enumerator(g, options);
  EXPECT_EQ(got, core::reference_maximal_cliques(g));
}

TEST(ParallelEnumerator, PerThreadStatsPopulated) {
  const auto g = test::random_graph(60, 0.3, 23);
  core::CliqueCollector sink;
  core::ParallelOptions options;
  options.range = core::SizeRange{3, 0};
  options.threads = 3;
  const auto stats =
      core::enumerate_maximal_cliques_parallel(g, sink.callback(), options);
  EXPECT_EQ(stats.threads, 3u);
  EXPECT_EQ(stats.seed_thread_seconds.size(), 3u);
  EXPECT_EQ(stats.thread_busy_seconds.size(), 3u);
  EXPECT_EQ(stats.level_thread_seconds.size(), stats.base.levels.size());
  // Busy time uses per-thread CPU clocks whose granularity can exceed this
  // tiny workload's runtime on some kernels, so only non-negativity is
  // asserted here (bench_fig8 exercises the values at measurable scale).
  const double busy_total = std::accumulate(
      stats.thread_busy_seconds.begin(), stats.thread_busy_seconds.end(), 0.0);
  EXPECT_GE(busy_total, 0.0);
  EXPECT_EQ(stats.base.total_maximal, sink.cliques().size());
}

TEST(ParallelEnumerator, TraceCoversEveryTask) {
  const auto g = test::random_graph(50, 0.35, 29);
  core::CliqueCollector sink;
  core::ParallelOptions options;
  options.range = core::SizeRange{3, 0};
  options.threads = 2;
  options.record_trace = true;
  const auto stats =
      core::enumerate_maximal_cliques_parallel(g, sink.callback(), options);
  ASSERT_EQ(stats.base.traces.size(), stats.base.levels.size());
  for (std::size_t i = 0; i < stats.base.traces.size(); ++i) {
    const auto& trace = stats.base.traces[i];
    EXPECT_EQ(trace.task_work.size(), stats.base.levels[i].sublists);
    // Every slot written (work proxy >= 0 is trivially true; seconds are
    // finite and non-negative).
    for (double s : trace.task_seconds) EXPECT_GE(s, 0.0);
  }
}

TEST(ParallelEnumerator, MemoryAccountingBalances) {
  util::MemoryTracker tracker;
  const auto g = test::random_graph(50, 0.35, 31);
  core::CliqueCollector sink;
  core::ParallelOptions options;
  options.range = core::SizeRange{3, 0};
  options.threads = 4;
  options.tracker = &tracker;
  core::enumerate_maximal_cliques_parallel(g, sink.callback(), options);
  EXPECT_EQ(tracker.current(util::MemTag::kCliqueStorage), 0u);
}

class ParallelSweepTest
    : public ::testing::TestWithParam<
          std::tuple<std::size_t, double, std::size_t, int>> {};

TEST_P(ParallelSweepTest, MatchesReference) {
  const auto [n, p, threads, seed] = GetParam();
  const auto g = test::random_graph(n, p, static_cast<std::uint64_t>(seed));
  core::ParallelOptions options;
  options.range = core::SizeRange{2, 0};
  options.threads = threads;
  EXPECT_EQ(test::run_parallel_enumerator(g, options),
            test::reference_in_range(g, options.range));
}

INSTANTIATE_TEST_SUITE_P(
    RandomSweep, ParallelSweepTest,
    ::testing::Combine(::testing::Values<std::size_t>(20, 40),
                       ::testing::Values(0.2, 0.45),
                       ::testing::Values<std::size_t>(2, 4),
                       ::testing::Values(1, 2)));

// Determinism across thread counts: on 20 seeded G(n, p) graphs, the
// enumerator must emit the exact clique *sequence* of the reference
// enumerator's cliques ordered by size, then lexicographically — same
// cliques, same order — for every thread count and Init_K, over the
// in-memory graph and over the same graph mapped from a .gsbg container.
// The oracle shares no code with the enumerator (sorted vectors, no
// bitmaps).  The paper's multithreaded driver changes only the schedule,
// never the output; this is what makes a .gsbc written by `--engine
// enumerator` byte-identical at every --threads.  The one-thread case runs
// through enumerate_maximal_cliques, the enumerator's one-worker entry point.
TEST(ParallelDeterminism, EmissionSequenceMatchesReferenceOrder) {
  constexpr std::size_t kGraphs = 20;
  constexpr std::size_t kThreadCounts[] = {1, 2, 4, 8};
  constexpr std::size_t kInitKs[] = {2, 3, 5};
  std::size_t compared = 0;
  for (std::size_t i = 0; i < kGraphs; ++i) {
    // Alternate sparse/dense instances so both wide and deep levels occur.
    const std::size_t n = 24 + 2 * i;
    const double p = (i % 2 == 0) ? 0.18 : 0.40;
    const auto g = test::random_graph(n, p, 7000 + i);
    test::TempFile file("parallel_determinism");
    storage::write_gsbg_file(g, file.path());
    const auto mapped = storage::MappedGraph::open(file.path());
    const std::pair<const char*, graph::GraphView> views[] = {
        {"memory", graph::GraphView(g)}, {"mapped", mapped.view()}};
    for (const std::size_t init_k : kInitKs) {
      const core::SizeRange range{init_k, 0};
      const auto expected = test::reference_emission_sequence(g, range);
      for (const auto& [where, view] : views) {
        for (const std::size_t threads : kThreadCounts) {
          core::ParallelOptions options;
          options.range = range;
          options.threads = threads;
          core::CliqueCollector got;
          if (threads == 1) {
            core::enumerate_maximal_cliques(view, got.callback(), options);
          } else {
            core::enumerate_maximal_cliques_parallel(view, got.callback(),
                                                     options);
          }
          EXPECT_EQ(got.cliques(), expected)
              << where << " graph=" << i << " n=" << n << " p=" << p
              << " init_k=" << init_k << " threads=" << threads;
          ++compared;
        }
      }
    }
  }
  EXPECT_EQ(compared, 480u);
}

}  // namespace
}  // namespace gsb

namespace gsb {
namespace {

TEST(ParallelEnumerator, StaticClaimingStillCorrect) {
  const auto g = test::random_graph(45, 0.35, 61);
  core::ParallelOptions options;
  options.range = core::SizeRange{3, 0};
  options.threads = 3;
  options.dynamic_claiming = false;
  EXPECT_EQ(test::run_parallel_enumerator(g, options),
            test::reference_in_range(g, options.range));
}

TEST(MemoryLedger, FlushesBalancedDeltas) {
  util::MemoryTracker tracker;
  {
    core::detail::MemoryLedger ledger(tracker);
    ledger.allocate(100);
    ledger.allocate(50);
    ledger.release(30);
    EXPECT_EQ(tracker.current(), 0u);  // nothing flushed yet
    ledger.flush();
    EXPECT_EQ(tracker.current(util::MemTag::kCliqueStorage), 120u);
    ledger.release(120);
  }  // destructor flushes the remainder
  EXPECT_EQ(tracker.current(), 0u);
}

TEST(SeedLevelWorker, MatchesBatchSeeding) {
  const auto g = test::random_graph(35, 0.4, 67);
  const std::size_t k = 4;
  core::CliqueCollector batch_sink;
  const auto batch = core::build_seed_level(g, k, batch_sink.callback());

  core::CliqueCollector inc_sink;
  const auto sink = inc_sink.callback();
  core::SeedLevelWorker worker(g, k, sink);
  for (const auto& pair : core::collect_seed_pairs(g)) {
    worker.process_pair(pair);
  }
  auto level = worker.take_level();

  EXPECT_EQ(core::normalize(std::move(batch_sink.cliques())),
            core::normalize(std::move(inc_sink.cliques())));
  auto key = [](const core::CliqueSublist& s) {
    return std::make_pair(s.prefix, s.tails);
  };
  std::vector<std::pair<core::Clique, std::vector<graph::VertexId>>> a, b;
  for (const auto& s : batch) a.push_back(key(s));
  for (const auto& s : level) b.push_back(key(s));
  std::sort(a.begin(), a.end());
  std::sort(b.begin(), b.end());
  EXPECT_EQ(a, b);
}

}  // namespace
}  // namespace gsb
