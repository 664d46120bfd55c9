// Tests for the DAG job scheduler (par::JobGraph): randomized-DAG
// property tests across thread counts, cycle rejection at submit time,
// deterministic ordered completions, window backpressure, work
// stealing, dynamic spawn, and failure isolation.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/parallel_enumerator.h"
#include "graph/generators.h"
#include "graph/graph.h"
#include "obs/metrics.h"
#include "obs/timeline.h"
#include "parallel/job_graph.h"
#include "parallel/thread_pool.h"
#include "pipeline/overlap.h"
#include "util/rng.h"

namespace gsb {
namespace {

constexpr std::size_t kThreadCounts[] = {1, 2, 4, 8};

/// One randomized DAG run: N jobs, forward edges sampled by seeded RNG
/// (acyclic by construction), each job folding its prerequisites'
/// values.  Returns the per-job values plus the ordered completion log.
struct DagRun {
  std::vector<std::uint64_t> values;
  std::vector<par::JobId> completion_order;
  /// Global claim sequence per job, for topological-order assertions.
  std::vector<std::uint64_t> sequence;
  par::JobGraphStats stats;
};

DagRun run_random_dag(std::uint64_t seed, std::size_t jobs,
                      std::size_t threads) {
  util::Rng rng(seed);
  std::vector<std::vector<par::JobId>> deps(jobs);
  for (par::JobId to = 1; to < jobs; ++to) {
    for (par::JobId from = 0; from < to; ++from) {
      if (rng.below(100) < 15) deps[to].push_back(from);
    }
  }

  DagRun out;
  out.values.assign(jobs, 0);
  out.sequence.assign(jobs, 0);
  std::atomic<std::uint64_t> clock{0};

  par::ThreadPool pool(threads);
  par::JobGraph::Options options;
  options.ordered = true;
  par::JobGraph graph(&pool, options);
  for (par::JobId id = 0; id < jobs; ++id) {
    par::JobGraph::JobSpec spec;
    spec.deps = deps[id];
    spec.bytes = 8;
    spec.run = [&, id](std::size_t) {
      out.sequence[id] = 1 + clock.fetch_add(1, std::memory_order_relaxed);
      std::uint64_t acc = id * 2654435761u;
      for (par::JobId dep : deps[id]) acc ^= out.values[dep] * 31 + dep;
      out.values[id] = acc;
    };
    spec.complete = [&, id] { out.completion_order.push_back(id); };
    graph.add(std::move(spec));
  }
  graph.run();
  out.stats = graph.stats();
  return out;
}

TEST(JobGraph, RandomDagsDeterministicAcrossThreadCounts) {
  for (std::uint64_t seed : {11u, 42u, 99u}) {
    const std::size_t jobs = 48;
    const DagRun reference = run_random_dag(seed, jobs, 1);
    ASSERT_EQ(reference.completion_order.size(), jobs);
    for (std::size_t threads : kThreadCounts) {
      const DagRun run = run_random_dag(seed, jobs, threads);
      // Identical values and identical completion order: the scheduler
      // preserves the byte-identical-output contract.
      EXPECT_EQ(run.values, reference.values)
          << "seed=" << seed << " threads=" << threads;
      EXPECT_EQ(run.completion_order, reference.completion_order)
          << "seed=" << seed << " threads=" << threads;
      // Completions drain strictly in JobId order.
      for (par::JobId id = 0; id < jobs; ++id) {
        EXPECT_EQ(run.completion_order[id], id);
      }
      EXPECT_EQ(run.stats.jobs_run, jobs);
    }
  }
}

TEST(JobGraph, ExecutionRespectsTopologicalOrder) {
  for (std::size_t threads : kThreadCounts) {
    const std::uint64_t seed = 7;
    const std::size_t jobs = 40;
    const DagRun run = run_random_dag(seed, jobs, threads);
    // Rebuild the same edge set and check every job started after all
    // of its prerequisites.
    util::Rng rng(seed);
    for (par::JobId to = 1; to < jobs; ++to) {
      for (par::JobId from = 0; from < to; ++from) {
        if (rng.below(100) < 15) {
          EXPECT_GT(run.sequence[to], run.sequence[from])
              << "threads=" << threads << " edge " << from << "->" << to;
        }
      }
    }
  }
}

TEST(JobGraph, CycleRejectedAtSubmitTime) {
  par::JobGraph graph(nullptr);
  const auto a = graph.add([](std::size_t) {});
  const auto b = graph.add([](std::size_t) {});
  const auto c = graph.add([](std::size_t) {});
  graph.add_edge(a, b);
  graph.add_edge(b, c);
  EXPECT_THROW(graph.add_edge(c, a), std::invalid_argument);
  EXPECT_THROW(graph.add_edge(b, a), std::invalid_argument);
  EXPECT_THROW(graph.add_edge(a, a), std::invalid_argument);
  // The rejected edges left the graph runnable.
  graph.run();
  EXPECT_EQ(graph.stats().jobs_run, 3u);
}

TEST(JobGraph, EdgeEndpointsValidated) {
  par::JobGraph graph(nullptr);
  const auto a = graph.add([](std::size_t) {});
  EXPECT_THROW(graph.add_edge(a, 7), std::invalid_argument);
  EXPECT_THROW(graph.add_edge(7, a), std::invalid_argument);
  par::JobGraph::JobSpec bad;
  bad.run = [](std::size_t) {};
  bad.deps = {9};
  EXPECT_THROW(graph.add(std::move(bad)), std::invalid_argument);
}

TEST(JobGraph, ExceptionFailsGraphWithoutDeadlockingPool) {
  par::ThreadPool pool(4);
  {
    par::JobGraph graph(&pool);
    std::atomic<int> ran{0};
    const auto boom = graph.add([](std::size_t) {
      throw std::runtime_error("job failed");
    });
    // A long chain behind the failing job: none of it may run.
    par::JobId prev = boom;
    for (int i = 0; i < 16; ++i) {
      par::JobGraph::JobSpec spec;
      spec.run = [&](std::size_t) { ++ran; };
      spec.deps = {prev};
      prev = graph.add(std::move(spec));
    }
    EXPECT_THROW(graph.run(), std::runtime_error);
    EXPECT_EQ(ran.load(), 0);
  }
  // The pool survives a failed graph and still runs rounds.
  std::atomic<int> hits{0};
  pool.run_round([&](std::size_t) { ++hits; });
  EXPECT_EQ(hits.load(), 4);
}

TEST(JobGraph, ExceptionSkipsOrderedCompletions) {
  par::JobGraph::Options options;
  options.ordered = true;
  par::ThreadPool pool(2);
  par::JobGraph graph(&pool, options);
  std::atomic<int> completes{0};
  for (int i = 0; i < 8; ++i) {
    par::JobGraph::JobSpec spec;
    spec.run = [i](std::size_t) {
      if (i == 3) throw std::logic_error("mid-graph failure");
    };
    spec.complete = [&] { ++completes; };
    graph.add(std::move(spec));
  }
  EXPECT_THROW(graph.run(), std::logic_error);
  // Completions stop at the failure; later jobs may have finished
  // bodies but never drain once the graph has failed.
  EXPECT_LE(completes.load(), 7);
}

TEST(JobGraph, WindowBackpressureBoundsReorderBuffer) {
  constexpr std::size_t kJobs = 64;
  constexpr std::size_t kBytesPerJob = 64;
  par::JobGraph::Options options;
  options.ordered = true;
  options.window_bytes = 2 * kBytesPerJob;
  par::ThreadPool pool(4);
  par::JobGraph graph(&pool, options);
  std::vector<par::JobId> order;
  for (std::size_t i = 0; i < kJobs; ++i) {
    par::JobGraph::JobSpec spec;
    spec.bytes = kBytesPerJob;
    spec.run = [](std::size_t) {};
    spec.complete = [&order, i] { order.push_back(static_cast<par::JobId>(i)); };
    graph.add(std::move(spec));
  }
  graph.run();
  ASSERT_EQ(order.size(), kJobs);
  for (std::size_t i = 0; i < kJobs; ++i) EXPECT_EQ(order[i], i);
  // The window admits at most window_bytes of finished-but-undrained
  // output plus the jobs already running when it filled (one per
  // worker can still land after the gate closes).
  EXPECT_LE(graph.stats().peak_pending_bytes,
            options.window_bytes + pool.size() * kBytesPerJob);
  EXPECT_GT(graph.stats().peak_pending_bytes, 0u);
}

TEST(JobGraph, WorkStealingFromHomeQueues) {
  constexpr std::size_t kWorkers = 4;
  par::ThreadPool pool(kWorkers);
  par::JobGraph graph(&pool);
  // Everything homed to worker 0; a rendezvous forces all four workers
  // to hold one job at once, so three of them must have stolen.
  std::atomic<std::size_t> arrivals{0};
  for (std::size_t i = 0; i < kWorkers; ++i) {
    par::JobGraph::JobSpec spec;
    spec.home = 0;
    spec.run = [&](std::size_t) {
      arrivals.fetch_add(1);
      while (arrivals.load() < kWorkers) std::this_thread::yield();
    };
    graph.add(std::move(spec));
  }
  graph.run();
  EXPECT_EQ(graph.stats().jobs_run, kWorkers);
  EXPECT_GE(graph.stats().jobs_stolen, kWorkers - 1);
}

TEST(JobGraph, DynamicSpawnFromRunningJob) {
  par::ThreadPool pool(2);
  par::JobGraph graph(&pool);
  std::atomic<int> ran{0};
  const auto root = graph.add([&](std::size_t) {
    ++ran;
    for (int i = 0; i < 5; ++i) {
      graph.add([&](std::size_t) { ++ran; });
    }
  });
  (void)root;
  graph.run();
  EXPECT_EQ(ran.load(), 6);
  EXPECT_EQ(graph.stats().jobs_run, 6u);
}

TEST(JobGraph, DepOnFinishedJobIsSatisfied) {
  par::JobGraph graph(nullptr);
  std::vector<int> log;
  const auto first = graph.add([&](std::size_t) {
    log.push_back(1);
    // By the time this body runs, no dep bookkeeping remains for job 0:
    // the new job's dep is already finished... except job 0 *is* the
    // running job, so the spawned job waits for it.
    par::JobGraph::JobSpec spec;
    spec.run = [&](std::size_t) { log.push_back(2); };
    graph.add(std::move(spec));
  });
  (void)first;
  graph.run();
  EXPECT_EQ(log, (std::vector<int>{1, 2}));
}

TEST(JobGraph, InlineExecutionWithoutPool) {
  par::JobGraph graph(nullptr);
  EXPECT_EQ(graph.workers(), 1u);
  std::vector<std::size_t> ids;
  for (int i = 0; i < 4; ++i) {
    graph.add([&](std::size_t worker) { ids.push_back(worker); });
  }
  graph.run();
  EXPECT_EQ(ids, (std::vector<std::size_t>{0, 0, 0, 0}));
}

TEST(JobGraph, RunsLowestReadyIdFirst) {
  // Job 0 releases job 3 before job 1 releases job 2; the worker still
  // runs 2 before 3, so ordered completions drain as early as they can.
  par::JobGraph graph(nullptr);
  std::vector<int> log;
  const auto first = graph.add([&](std::size_t) { log.push_back(0); });
  const auto second = graph.add([&](std::size_t) { log.push_back(1); });
  for (const auto& [dep, mark] : {std::pair{second, 2}, std::pair{first, 3}}) {
    par::JobGraph::JobSpec spec;
    spec.deps = {dep};
    spec.run = [&log, mark = mark](std::size_t) { log.push_back(mark); };
    graph.add(std::move(spec));
  }
  graph.run();
  EXPECT_EQ(log, (std::vector<int>{0, 1, 2, 3}));
}

TEST(JobGraph, SingleShotLifecycle) {
  par::JobGraph graph(nullptr);
  graph.add([](std::size_t) {});
  graph.run();
  EXPECT_THROW(graph.run(), std::logic_error);
  EXPECT_THROW(graph.add([](std::size_t) {}), std::logic_error);
  EXPECT_THROW(graph.add_edge(0, 0), std::logic_error);
}

TEST(JobGraph, EmptyGraphRunsToCompletion) {
  par::JobGraph graph(nullptr);
  graph.run();
  EXPECT_EQ(graph.stats().jobs_run, 0u);
}

TEST(JobGraph, MissingBodyRejected) {
  par::JobGraph graph(nullptr);
  par::JobGraph::JobSpec empty;
  EXPECT_THROW(graph.add(std::move(empty)), std::invalid_argument);
}

TEST(JobGraph, UnorderedCompleteRunsInline) {
  par::JobGraph graph(nullptr);
  std::vector<int> log;
  par::JobGraph::JobSpec spec;
  spec.run = [&](std::size_t) { log.push_back(1); };
  spec.complete = [&] { log.push_back(2); };
  graph.add(std::move(spec));
  graph.add([&](std::size_t) { log.push_back(3); });
  graph.run();
  EXPECT_EQ(log, (std::vector<int>{1, 2, 3}));
}

TEST(JobGraph, PublishesSchedulerMetrics) {
  auto& registry = obs::MetricsRegistry::global();
  registry.reset();
  registry.set_enabled(true);
  {
    par::ThreadPool pool(2);
    par::JobGraph::Options options;
    options.ordered = true;
    par::JobGraph graph(&pool, options);
    for (int i = 0; i < 12; ++i) {
      par::JobGraph::JobSpec spec;
      spec.bytes = 16;
      spec.run = [](std::size_t) {};
      spec.complete = [] {};
      graph.add(std::move(spec));
    }
    graph.run();
  }
  const auto snapshot = registry.scrape();
  registry.set_enabled(false);
  std::uint64_t jobs_total = 0;
  bool saw_wait_histogram = false;
  bool saw_pending_gauge = false;
  for (const auto& metric : snapshot.metrics) {
    if (metric.name == "gsb_sched_jobs_total") jobs_total = metric.value;
    if (metric.name == "gsb_sched_queue_wait_micros") {
      saw_wait_histogram = metric.histogram.count >= 12;
    }
    if (metric.name == "gsb_sched_pending_peak_bytes") {
      saw_pending_gauge = true;
    }
  }
  registry.reset();
  EXPECT_GE(jobs_total, 12u);
  EXPECT_TRUE(saw_wait_histogram);
  EXPECT_TRUE(saw_pending_gauge);
}

TEST(JobGraph, TimelineRecordsLabeledJobSpans) {
  obs::TimelineJournal& journal = obs::TimelineJournal::global();
  journal.reset();
  journal.set_enabled(true);
  {
    par::ThreadPool pool(2);
    par::JobGraph graph(&pool);
    par::JobGraph::JobSpec first;
    first.label = "stage-a";
    first.run = [](std::size_t) {};
    const par::JobId a = graph.add(std::move(first));
    par::JobGraph::JobSpec second;
    second.label = "stage-b";
    second.deps = {a};
    second.run = [](std::size_t) {};
    graph.add(std::move(second));
    graph.run();
  }
  journal.set_enabled(false);
  const obs::TimelineSnapshot snapshot = journal.snapshot();
  journal.reset();
  bool saw_a = false;
  bool saw_b = false;
  std::size_t queue_waits = 0;
  for (const obs::TimelineEvent& event : snapshot.events) {
    if (event.kind == obs::TimelineEventKind::kJob) {
      if (std::string(event.label) == "stage-a") saw_a = true;
      if (std::string(event.label) == "stage-b") saw_b = true;
    }
    if (event.kind == obs::TimelineEventKind::kQueueWait) ++queue_waits;
  }
  EXPECT_TRUE(saw_a);
  EXPECT_TRUE(saw_b);
  EXPECT_EQ(queue_waits, 2u);  // one ready->claimed span per job
  bool named_worker_lane = false;
  for (const obs::TimelineLane& lane : snapshot.lanes) {
    if (lane.name.rfind("worker-", 0) == 0) named_worker_lane = true;
  }
  EXPECT_TRUE(named_worker_lane);
}

// The multithreaded Clique Enumerator runs its rounds as labelled range
// jobs, so its workers show up on the timeline (one label per round) and
// its jobs in the gsb_sched_* metrics.
TEST(JobGraph, TimelineRecordsEnumeratorRangeJobs) {
  util::Rng rng(11);
  const graph::Graph g = graph::gnp(60, 0.3, rng);
  obs::MetricsRegistry& registry = obs::MetricsRegistry::global();
  registry.reset();
  registry.set_enabled(true);
  obs::TimelineJournal& journal = obs::TimelineJournal::global();
  journal.reset();
  journal.set_enabled(true);
  core::CliqueCounter counter;
  core::ParallelOptions options;
  options.range = core::SizeRange{3, 0};
  options.threads = 2;
  const auto stats = core::enumerate_maximal_cliques_parallel(
      g, counter.callback(), options);
  journal.set_enabled(false);
  registry.set_enabled(false);
  const obs::TimelineSnapshot snapshot = journal.snapshot();
  journal.reset();
  const auto metrics = registry.scrape();
  registry.reset();

  ASSERT_EQ(snapshot.dropped, 0u);
  std::uint64_t enum_jobs = 0;
  bool saw_seed = false;
  std::set<std::string> level_labels;
  for (const obs::TimelineEvent& event : snapshot.events) {
    if (event.kind != obs::TimelineEventKind::kJob) continue;
    const std::string label(event.label);
    if (label.rfind("enum-", 0) != 0) continue;
    ++enum_jobs;
    if (label == "enum-seed") {
      saw_seed = true;
    } else {
      level_labels.insert(label);
    }
  }
  EXPECT_TRUE(saw_seed);
  ASSERT_FALSE(stats.base.levels.empty());
  std::set<std::string> expected_levels;
  for (const auto& level : stats.base.levels) {
    expected_levels.insert("enum-k" + std::to_string(level.k));
  }
  EXPECT_EQ(level_labels, expected_levels);
  std::uint64_t jobs_total = 0;
  for (const auto& metric : metrics.metrics) {
    if (metric.name == "gsb_sched_jobs_total") jobs_total = metric.value;
  }
  EXPECT_EQ(jobs_total, enum_jobs);
}

TEST(JobGraph, TimelineOnOffKeepsGsbcEmissionByteIdentical) {
  namespace fs = std::filesystem;
  const std::string on_path =
      (fs::temp_directory_path() / "gsb_sched_timeline_on.gsbc").string();
  const std::string off_path =
      (fs::temp_directory_path() / "gsb_sched_timeline_off.gsbc").string();
  util::Rng rng(7);
  const graph::Graph g = graph::gnp(80, 0.25, rng);
  const auto run_pipeline = [&g](const std::string& path) {
    pipeline::AnalysisOptions analysis;
    analysis.range = core::SizeRange{3, 0};
    analysis.threads = 1;  // deterministic emission order
    analysis.overlap = true;
    analysis.clique_out = path;
    pipeline::run_analysis(g, analysis);
  };
  obs::TimelineJournal& journal = obs::TimelineJournal::global();
  journal.reset();
  journal.set_enabled(true);
  run_pipeline(on_path);
  journal.set_enabled(false);
  const obs::TimelineSnapshot traced = journal.snapshot();
  journal.reset();
  run_pipeline(off_path);

  const auto slurp = [](const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    return std::string(std::istreambuf_iterator<char>(in), {});
  };
  const std::string with_timeline = slurp(on_path);
  ASSERT_FALSE(with_timeline.empty());
  EXPECT_EQ(with_timeline, slurp(off_path));
  EXPECT_FALSE(traced.events.empty());  // recording actually happened
  fs::remove(on_path);
  fs::remove(off_path);
}

}  // namespace
}  // namespace gsb
