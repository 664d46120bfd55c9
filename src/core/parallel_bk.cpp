#include "core/parallel_bk.h"

#include <algorithm>
#include <memory>
#include <mutex>
#include <optional>
#include <utility>

#include "bitset/dynamic_bitset.h"
#include "core/detail/bk_kernel.h"
#include "graph/transforms.h"
#include "obs/metrics.h"
#include "parallel/job_graph.h"
#include "parallel/thread_pool.h"
#include "util/timer.h"

namespace gsb::core {
namespace {

using bits::DynamicBitset;
using graph::VertexId;

/// Range jobs per worker, the Clique Enumerator's seed grain.  Root
/// subtrees differ in cost by orders of magnitude (a root inside the
/// densest core against a leaf), so the order is cut fine enough that
/// stealing balances it, and coarse enough that a graph of n roots does
/// not cost n scheduler jobs.
constexpr std::size_t kJobsPerWorker = 64;

/// Per-worker enumeration state, built lazily on a worker's first range.
/// The sink object must outlive the search (BkPivotSearch keeps a
/// reference), so both live here together.
struct BkWorker {
  std::vector<VertexId> buffer;  ///< flat size-prefixed clique records
  CliqueCallback local_sink;
  std::unique_ptr<detail::BkPivotSearch> search;
  DynamicBitset cand;
  DynamicBitset not_set;
  double busy_seconds = 0.0;

  BkWorker(const graph::GraphView& g, const SizeRange& range)
      : cand(g.order()), not_set(g.order()) {
    local_sink = [this](std::span<const VertexId> clique) {
      buffer.push_back(static_cast<VertexId>(clique.size()));
      buffer.insert(buffer.end(), clique.begin(), clique.end());
    };
    search = std::make_unique<detail::BkPivotSearch>(g, local_sink, range);
  }
};

/// Replays one range's flat buffer into the caller's sink.
void drain_flat(const CliqueCallback& sink, const std::vector<VertexId>& flat) {
  std::size_t i = 0;
  while (i < flat.size()) {
    const std::size_t size = flat[i++];
    sink(std::span<const VertexId>(&flat[i], size));
    i += size;
  }
}

}  // namespace

ParallelBkStats parallel_bk(const graph::GraphView& g,
                            const CliqueCallback& sink,
                            const ParallelBkOptions& options) {
  util::Timer total_timer;
  ParallelBkStats stats;
  util::MemoryTracker& tracker = options.tracker != nullptr
                                     ? *options.tracker
                                     : util::global_memory_tracker();
  const std::size_t n = g.order();
  const std::size_t num_threads = options.threads != 0
                                      ? options.threads
                                      : par::ThreadPool::default_threads();
  stats.threads = num_threads;
  stats.thread_busy_seconds.assign(num_threads, 0.0);
  if (n == 0) {
    stats.total_seconds = total_timer.seconds();
    return stats;
  }

  const graph::CoreDecomposition cores = graph::core_decomposition(g);
  stats.degeneracy = cores.degeneracy;
  std::vector<std::size_t> pos(n);
  for (std::size_t i = 0; i < n; ++i) pos[cores.order[i]] = i;

  // --- schedule: one job per contiguous range of the degeneracy order -----
  // Jobs are added in root order with no home queue: the scheduler deals
  // them round-robin and idle workers steal them.  Its ordered drain
  // (strict JobId order) therefore replays root order, and its window
  // backpressure redirects workers to the next-to-emit range when
  // finished-but-undrained output exceeds the window.  One worker builds
  // no pool: the graph then runs inline on the calling thread.
  std::optional<par::ThreadPool> pool;
  if (num_threads > 1) pool.emplace(num_threads);
  par::JobGraph::Options graph_options;
  graph_options.ordered = options.deterministic;
  graph_options.window_bytes = options.reorder_window_bytes;
  par::JobGraph jobs(pool ? &*pool : nullptr, graph_options);
  const std::size_t num_jobs = std::min(n, num_threads * kJobsPerWorker);

  std::vector<std::unique_ptr<BkWorker>> workers(jobs.workers());
  auto worker_for = [&](std::size_t wid) -> BkWorker& {
    if (!workers[wid]) {
      workers[wid] = std::make_unique<BkWorker>(g, options.range);
    }
    return *workers[wid];
  };

  // Per-range output parked between body finish and ordered drain; the
  // bytes are tracked (MemTag::kCliqueStorage) for exactly that span.
  std::vector<std::vector<VertexId>> slots(options.deterministic ? num_jobs
                                                                 : 0);
  std::vector<std::size_t> slot_bytes(slots.size(), 0);
  // Completion-order mode drains inside the body; the sink contract
  // ("never invoked concurrently") then needs its own serialization.
  std::mutex emit_mutex;

  for (std::size_t j = 0; j < num_jobs; ++j) {
    par::JobGraph::JobSpec spec;
    spec.label = "bk-roots";
    spec.run = [&, j](std::size_t wid) {
      const double cpu_begin = util::thread_cpu_seconds();
      BkWorker& w = worker_for(wid);
      w.buffer.clear();
      for (std::size_t i = n * j / num_jobs; i < n * (j + 1) / num_jobs;
           ++i) {
        const VertexId v = cores.order[i];
        w.cand.clear_all();
        w.not_set.clear_all();
        g.neighbors(v).for_each([&](std::size_t u) {
          if (pos[u] > i) {
            w.cand.set(u);
          } else {
            w.not_set.set(u);
          }
        });
        w.search->run_root(v, w.cand, w.not_set);
      }
      if (options.deterministic) {
        const std::size_t bytes = w.buffer.size() * sizeof(VertexId);
        slots[j] = std::move(w.buffer);
        w.buffer = {};
        slot_bytes[j] = bytes;
        tracker.allocate(bytes, util::MemTag::kCliqueStorage);
        jobs.set_bytes(static_cast<par::JobId>(j), bytes);
      } else {
        const std::lock_guard<std::mutex> lock(emit_mutex);
        drain_flat(sink, w.buffer);
      }
      w.busy_seconds += util::thread_cpu_seconds() - cpu_begin;
    };
    if (options.deterministic) {
      spec.complete = [&, j] {
        drain_flat(sink, slots[j]);
        tracker.release(slot_bytes[j], util::MemTag::kCliqueStorage);
        // Not `= {}`: that assigns an empty initializer list and keeps
        // the capacity, so every drained range would stay resident.
        slots[j] = std::vector<VertexId>();
        slot_bytes[j] = 0;
      };
    }
    jobs.add(std::move(spec));
  }

  try {
    jobs.run();
  } catch (...) {
    // A throwing sink cancels the run mid-drain; release the window
    // accounting of whatever never drained before propagating.
    for (std::size_t i = 0; i < slot_bytes.size(); ++i) {
      tracker.release(slot_bytes[i], util::MemTag::kCliqueStorage);
    }
    throw;
  }

  stats.steals = jobs.stats().jobs_stolen;
  stats.peak_pending_bytes = jobs.stats().peak_pending_bytes;
  for (std::size_t wid = 0; wid < workers.size(); ++wid) {
    if (!workers[wid]) continue;
    const BronKerboschStats ws = workers[wid]->search->stats();
    stats.base.maximal_cliques += ws.maximal_cliques;
    stats.base.tree_nodes += ws.tree_nodes;
    stats.base.max_depth = std::max(stats.base.max_depth, ws.max_depth);
    if (wid < stats.thread_busy_seconds.size()) {
      stats.thread_busy_seconds[wid] = workers[wid]->busy_seconds;
    }
  }
  stats.total_seconds = total_timer.seconds();

  // Fold the run's scheduling behaviour into the metrics registry so a
  // serving process exposes enumeration health without plumbing stats
  // structs through every caller.  The reorder-window high-water mark is
  // NOT mirrored here: the scheduler already publishes it on
  // gsb_sched_pending_peak_bytes, the one gauge `gsb serve --metrics`
  // and the pipeline report both read.
  {
    obs::MetricsRegistry& registry = obs::MetricsRegistry::global();
    static const obs::Counter runs = registry.counter(
        "gsb_bk_runs_total", "Parallel Bron-Kerbosch enumerations.");
    static const obs::Counter steals = registry.counter(
        "gsb_bk_steals_total",
        "Root range jobs stolen across worker threads.");
    runs.inc();
    steals.inc(stats.steals);
  }
  return stats;
}

BronKerboschStats degeneracy_bk(const graph::GraphView& g,
                                const CliqueCallback& sink,
                                const SizeRange& range) {
  ParallelBkOptions one_worker;
  one_worker.range = range;
  one_worker.threads = 1;
  return parallel_bk(g, sink, one_worker).base;
}

}  // namespace gsb::core
