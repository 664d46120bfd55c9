// Differential tests for the degeneracy-ordered Bron–Kerbosch driver, at
// one worker (degeneracy_bk) and at 2/4/8 (parallel_bk): on the oracle
// corpus, in memory and off a mapped .gsbg, every setting finds the
// reference maximal cliques and every deterministic run emits the
// one-worker sequence; roots run as range jobs, a fixed number per
// worker; the reorder window stays bounded.

#include <gtest/gtest.h>

#include <optional>
#include <string>

#include "core/bron_kerbosch.h"
#include "core/parallel_bk.h"
#include "core/verify.h"
#include "graph/transforms.h"
#include "obs/metrics.h"
#include "tests/test_helpers.h"
#include "util/memory_tracker.h"

namespace gsb::core {
namespace {

std::vector<Clique> run_degeneracy_bk(const graph::GraphView& g,
                                      const SizeRange& range = {}) {
  CliqueCollector out;
  degeneracy_bk(g, out.callback(), range);
  return normalize(std::move(out.cliques()));
}

std::vector<Clique> run_parallel_bk(const graph::GraphView& g,
                                    ParallelBkOptions options = {}) {
  CliqueCollector out;
  parallel_bk(g, out.callback(), options);
  return normalize(std::move(out.cliques()));
}

/// A sink appending size-prefixed records to \p flat: an order-sensitive
/// emission transcript.
CliqueCallback flat_sink(std::vector<graph::VertexId>& flat) {
  return [&flat](std::span<const graph::VertexId> clique) {
    flat.push_back(static_cast<graph::VertexId>(clique.size()));
    flat.insert(flat.end(), clique.begin(), clique.end());
  };
}

std::vector<graph::VertexId> emission_sequence(const graph::GraphView& g,
                                               ParallelBkOptions options) {
  std::vector<graph::VertexId> flat;
  parallel_bk(g, flat_sink(flat), options);
  return flat;
}

/// The normalized clique set of a flat emission transcript.
std::vector<Clique> decode(const std::vector<graph::VertexId>& flat) {
  std::vector<Clique> cliques;
  for (std::size_t i = 0; i < flat.size(); i += flat[i] + 1) {
    cliques.emplace_back(flat.begin() + static_cast<std::ptrdiff_t>(i + 1),
                         flat.begin() +
                             static_cast<std::ptrdiff_t>(i + 1 + flat[i]));
  }
  return normalize(std::move(cliques));
}

TEST(DegeneracyBk, MatchesReferenceOnSmallGraphs) {
  const auto g =
      graph::Graph::from_edges(4, {{0, 1}, {1, 2}, {0, 2}, {2, 3}});
  EXPECT_EQ(run_degeneracy_bk(g), reference_maximal_cliques(g));

  const graph::Graph edgeless(5);
  const auto singletons = run_degeneracy_bk(edgeless);
  ASSERT_EQ(singletons.size(), 5u);
  for (const auto& clique : singletons) EXPECT_EQ(clique.size(), 1u);

  const graph::Graph empty(0);
  EXPECT_TRUE(run_degeneracy_bk(empty).empty());

  const auto complete = test::random_graph(12, 1.0, 1);
  const auto one = run_degeneracy_bk(complete);
  ASSERT_EQ(one.size(), 1u);
  EXPECT_EQ(one[0].size(), 12u);
}

TEST(DegeneracyBk, SizeRangeFiltersEmissionOnly) {
  const auto g = test::random_graph(30, 0.4, 7);
  const auto all = run_degeneracy_bk(g);
  const SizeRange range{3, 4};
  EXPECT_EQ(run_degeneracy_bk(g, range), filter_by_size(all, range));
  CliqueCollector sink;
  const auto stats = degeneracy_bk(g, sink.callback(), range);
  EXPECT_EQ(stats.maximal_cliques, all.size());
}

TEST(DegeneracyBk, VisitsFewerNodesThanImprovedOnModuleGraphs) {
  util::Rng rng(5);
  graph::ModuleGraphConfig config;
  config.n = 120;
  config.num_modules = 15;
  config.max_module_size = 12;
  config.overlap = 0.4;
  const auto mg = graph::planted_modules(config, rng);
  CliqueCounter a;
  CliqueCounter b;
  const auto improved_stats = improved_bk(mg.graph, a.callback());
  const auto degeneracy_stats = degeneracy_bk(mg.graph, b.callback());
  EXPECT_EQ(a.total(), b.total());
  EXPECT_LT(degeneracy_stats.tree_nodes, improved_stats.tree_nodes);
}

// The one driver over the oracle corpus, in memory and off a mapped
// .gsbg: degeneracy_bk, and parallel_bk at 2/4/8 threads in deterministic
// and completion order, must each find the reference maximal cliques, and
// every deterministic run must emit exactly degeneracy_bk's sequence.  The
// Clique Enumerator's full maximal set is a second yardstick.  The five
// dense G(70, 0.8) graphs (~170k-310k maximal cliques each) skip the
// enumerator and run in one rotating (backend, setting) each.
TEST(ParallelBk, DifferentialSweepMemoryMappedEnumerator) {
  struct Setting {
    std::size_t threads;
    bool deterministic;
  };
  // One thread means degeneracy_bk itself.
  constexpr Setting kSettings[] = {{1, true}, {2, true}, {2, false},
                                   {4, true}, {4, false}, {8, true},
                                   {8, false}};
  constexpr std::size_t kDense = 20000;
  const auto run = [](const graph::GraphView& g, const Setting& setting) {
    if (setting.threads == 1) {
      std::vector<graph::VertexId> flat;
      degeneracy_bk(g, flat_sink(flat));
      return flat;
    }
    ParallelBkOptions options;
    options.threads = setting.threads;
    options.deterministic = setting.deterministic;
    return emission_sequence(g, options);
  };
  const auto corpus = test::oracle_graphs();
  std::size_t compared = 0;
  std::size_t expected_runs = 0;
  for (std::size_t gi = 0; gi < corpus.size(); ++gi) {
    const auto& [name, g] = corpus[gi];
    const test::InMemoryAndMapped backends(g);
    const auto views = backends.views();
    const auto expect = reference_maximal_cliques(g);
    const bool dense = expect.size() > kDense;
    if (!dense) {
      CliqueEnumeratorOptions enum_options;
      enum_options.range = SizeRange{1, 0};
      ASSERT_EQ(test::run_clique_enumerator(g, enum_options), expect) << name;
    }
    const std::size_t per_graph = views.size() * std::size(kSettings);
    expected_runs += dense ? 1 : per_graph;
    for (std::size_t where = 0; where < views.size(); ++where) {
      std::optional<std::vector<graph::VertexId>> one_worker;
      for (std::size_t si = 0; si < std::size(kSettings); ++si) {
        if (dense && where * std::size(kSettings) + si != gi % per_graph) {
          continue;
        }
        const Setting& setting = kSettings[si];
        const auto flat = run(views[where], setting);
        const std::string what =
            name + (where == 0 ? " memory" : " mapped") + " threads " +
            std::to_string(setting.threads) +
            (setting.deterministic ? " deterministic" : " completion");
        EXPECT_EQ(decode(flat), expect) << what;
        if (si == 0) {
          one_worker = flat;
        } else if (setting.deterministic) {
          if (!one_worker) one_worker = run(views[where], kSettings[0]);
          EXPECT_EQ(flat, *one_worker) << what;
        }
        ++compared;
      }
    }
  }
  EXPECT_EQ(compared, expected_runs);
}

TEST(ParallelBk, DeterministicMergeEmitsIdenticalSequences) {
  const graph::Graph g = test::random_graph(60, 0.3, 11);
  // The reference sequence: the driver at one worker (degeneracy_bk).
  std::vector<graph::VertexId> one_worker;
  degeneracy_bk(g, flat_sink(one_worker));
  for (const std::size_t threads : {1u, 2u, 4u, 8u}) {
    ParallelBkOptions options;
    options.threads = threads;
    options.deterministic = true;
    EXPECT_EQ(emission_sequence(g, options), one_worker)
        << "threads " << threads;
  }
}

TEST(ParallelBk, CompletionOrderModeStillYieldsTheSameSet) {
  const graph::Graph g = test::random_graph(50, 0.35, 13);
  const auto expect = run_degeneracy_bk(g);
  for (const std::size_t threads : {2u, 4u}) {
    ParallelBkOptions options;
    options.threads = threads;
    options.deterministic = false;
    EXPECT_EQ(run_parallel_bk(g, options), expect);
  }
}

TEST(ParallelBk, StatsAreCoherent) {
  const graph::Graph g = test::random_graph(60, 0.4, 19);
  CliqueCounter counter;
  ParallelBkOptions options;
  options.threads = 4;
  const auto stats = parallel_bk(g, counter.callback(), options);
  EXPECT_EQ(stats.base.maximal_cliques, counter.total());
  EXPECT_EQ(stats.threads, 4u);
  EXPECT_EQ(stats.degeneracy, graph::core_decomposition(g).degeneracy);
  EXPECT_GT(stats.base.tree_nodes, 0u);
  EXPECT_EQ(stats.thread_busy_seconds.size(), 4u);
}

// Roots run as contiguous range jobs, a fixed number per worker (64, the
// enumerator's seed grain), not one job per root: on 2,500 vertices at 2
// threads the scheduler runs at most 2 x 64 jobs.
TEST(ParallelBk, SchedulesRangeJobsNotOneJobPerRoot) {
  const graph::Graph g = test::random_graph(2500, 0.002, 29);
  obs::MetricsRegistry& registry = obs::MetricsRegistry::global();
  const auto jobs_total = [&registry] {
    for (const auto& metric : registry.scrape().metrics) {
      if (metric.name == "gsb_sched_jobs_total") return metric.value;
    }
    return std::uint64_t{0};
  };
  registry.set_enabled(true);
  const std::uint64_t before = jobs_total();
  CliqueCounter counter;
  ParallelBkOptions options;
  options.threads = 2;
  const auto stats = parallel_bk(g, counter.callback(), options);
  const std::uint64_t jobs = jobs_total() - before;
  registry.set_enabled(false);
  EXPECT_EQ(stats.base.maximal_cliques, reference_maximal_cliques(g).size());
  EXPECT_GT(jobs, 0u);
  EXPECT_LE(jobs, 2u * 64u);
}

TEST(ParallelBk, ReorderWindowStaysBoundedAndBalanced) {
  // A clique-dense graph whose total emitted bytes dwarf any sane reorder
  // window: full buffering would hold every clique at once.
  const graph::Graph g = test::random_graph(70, 0.5, 23);
  util::MemoryTracker tracker;
  std::size_t total_flat_bytes = 0;
  ParallelBkOptions options;
  options.threads = 4;
  options.tracker = &tracker;
  // The default window (64 MiB) dwarfs this graph's whole output, so
  // nothing would bound the peak but scheduling luck; pin a window small
  // enough that backpressure is what holds the line.
  options.reorder_window_bytes = 16u * 1024u;
  const auto stats = parallel_bk(
      g,
      [&](std::span<const graph::VertexId> clique) {
        total_flat_bytes += (clique.size() + 1) * sizeof(graph::VertexId);
      },
      options);
  ASSERT_GT(total_flat_bytes, 64u * 1024u);
  // The deterministic merge may only ever hold an in-flight window, never
  // the full output.
  EXPECT_LT(stats.peak_pending_bytes, total_flat_bytes / 2);
  EXPECT_LT(tracker.peak(), total_flat_bytes / 2);
  EXPECT_EQ(tracker.current(), 0u);  // everything drained and released
  // The tracker allocates in the job body (before the scheduler's
  // finish-lock) and releases in the completion (after the scheduler's
  // drain-claim deduction), so its window strictly contains the
  // scheduler's: the peaks are close but tracker >= scheduler.
  EXPECT_GE(tracker.peak(), stats.peak_pending_bytes);
}

TEST(ParallelBk, TinyReorderWindowThrottlesAndStaysCorrect) {
  const graph::Graph g = test::random_graph(70, 0.5, 23);
  const auto expect = run_degeneracy_bk(g);
  std::size_t total_flat_bytes = 0;
  degeneracy_bk(g, [&](std::span<const graph::VertexId> clique) {
    total_flat_bytes += (clique.size() + 1) * sizeof(graph::VertexId);
  });
  ParallelBkOptions options;
  options.threads = 4;
  options.reorder_window_bytes = 4096;
  CliqueCollector out;
  const auto stats = parallel_bk(g, out.callback(), options);
  EXPECT_EQ(normalize(std::move(out.cliques())), expect);
  // Backpressure holds pending output to the window plus the outputs of
  // roots already in flight when the cap was hit — far under the total.
  EXPECT_LT(stats.peak_pending_bytes, total_flat_bytes / 4);
}

}  // namespace
}  // namespace gsb::core
