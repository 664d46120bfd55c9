#include "core/parallel_enumerator.h"

#include <algorithm>
#include <span>
#include <string>
#include <vector>

#include "core/detail/sublist_kernel.h"
#include "core/kclique.h"
#include "graph/transforms.h"
#include "parallel/job_graph.h"
#include "parallel/thread_pool.h"
#include "util/timer.h"

namespace gsb::core {
namespace {

using detail::BitsetPool;
using graph::VertexId;

/// Forwards cliques to the caller's sink, translating ids of the k-core
/// reduced working graph back through its ascending id mapping (which
/// keeps each clique sorted).
class MappedSink {
 public:
  MappedSink(const CliqueCallback& sink, const std::vector<VertexId>* mapping)
      : sink_(sink), mapping_(mapping) {}

  void emit(std::span<const VertexId> clique) {
    if (mapping_ == nullptr) {
      sink_(clique);
      return;
    }
    buf_.clear();
    for (VertexId v : clique) buf_.push_back((*mapping_)[v]);
    sink_(buf_);
  }

 private:
  const CliqueCallback& sink_;
  const std::vector<VertexId>* mapping_;
  std::vector<VertexId> buf_;
};

/// Range jobs per worker.  Seed tasks differ in cost by orders of
/// magnitude (the DFS under one edge of a dense module against an
/// isolated edge), so seeding is cut finer than the levels.
constexpr std::size_t kSeedJobsPerWorker = 64;
constexpr std::size_t kLevelJobsPerWorker = 16;

/// What one range job produced.  Only its own job writes it; the calling
/// thread reads it after the round.
struct RangeSlot {
  std::vector<VertexId> emitted;  ///< maximal cliques, flat, fixed stride
  Level next;                     ///< generated sub-lists, in task order
  LevelCounts next_counts;        ///< count_level(next)
  std::size_t next_bytes = 0;     ///< level_bytes_actual(next)
  detail::KernelCounters counters;
  std::size_t worker = 0;
  double busy_seconds = 0.0;
};

/// A candidate level as the chunks its producing jobs wrote, in job
/// order.  Their concatenation is the whole level, in task order, at
/// every thread count.
struct ChunkedLevel {
  std::vector<Level> chunks;
  std::vector<std::size_t> starts;  ///< global index of each chunk's front
  LevelCounts counts;
  std::size_t bytes_actual = 0;

  /// Calls fn(sublist, global_index) for the global range [begin, end).
  template <typename Fn>
  void for_range(std::size_t begin, std::size_t end, Fn&& fn) {
    std::size_t c = static_cast<std::size_t>(
        std::upper_bound(starts.begin(), starts.end(), begin) -
        starts.begin() - 1);
    for (std::size_t i = begin; i < end; ++c) {
      Level& chunk = chunks[c];
      const std::size_t stop = std::min(end, starts[c] + chunk.size());
      for (; i < stop; ++i) fn(chunk[i - starts[c]], i);
    }
  }
};

/// One bulk-synchronous round: \p tasks tasks cut into contiguous ranges,
/// one JobGraph job each, running body(slot, begin, end, worker).
/// Returns the slots in task order; stolen jobs are added to \p stolen.
template <typename Body>
std::vector<RangeSlot> run_ranges(par::ThreadPool& pool, bool steal,
                                 std::size_t tasks, std::size_t jobs_per_worker,
                                 const std::string& label, Body&& body,
                                 std::uint64_t& stolen) {
  const std::size_t jobs = std::min(tasks, pool.size() * jobs_per_worker);
  std::vector<RangeSlot> slots(jobs);
  par::JobGraph::Options options;
  options.steal = steal;
  par::JobGraph graph(&pool, options);
  for (std::size_t j = 0; j < jobs; ++j) {
    par::JobGraph::JobSpec spec;
    spec.label = label;
    spec.run = [&, j](std::size_t worker) {
      const double cpu_begin = util::thread_cpu_seconds();
      RangeSlot& slot = slots[j];
      body(slot, tasks * j / jobs, tasks * (j + 1) / jobs, worker);
      slot.next_counts = count_level(slot.next);
      slot.next_bytes = level_bytes_actual(slot.next);
      slot.worker = worker;
      slot.busy_seconds = util::thread_cpu_seconds() - cpu_begin;
    };
    graph.add(std::move(spec));
  }
  graph.run();
  stolen += graph.stats().jobs_stolen;
  return slots;
}

/// Drains a round's slots in job order on the calling thread: emits the
/// cliques (\p stride vertices each), adds up the counters and the busy
/// time per worker, and returns the next level built from the chunks.
ChunkedLevel drain(std::vector<RangeSlot>& slots, std::size_t stride,
                   MappedSink& sink, detail::KernelCounters& counters,
                   std::vector<double>& thread_seconds) {
  ChunkedLevel next;
  for (RangeSlot& slot : slots) {
    for (std::size_t i = 0; i + stride <= slot.emitted.size(); i += stride) {
      sink.emit(std::span<const VertexId>(&slot.emitted[i], stride));
    }
    counters.pairs_checked += slot.counters.pairs_checked;
    counters.edges_present += slot.counters.edges_present;
    counters.maximal_emitted += slot.counters.maximal_emitted;
    thread_seconds[slot.worker] += slot.busy_seconds;
    if (slot.next.empty()) continue;
    next.starts.push_back(next.counts.sublists);
    next.counts.sublists += slot.next_counts.sublists;
    next.counts.candidates += slot.next_counts.candidates;
    next.bytes_actual += slot.next_bytes;
    next.chunks.push_back(std::move(slot.next));
  }
  return next;
}

}  // namespace

ParallelEnumerationStats enumerate_maximal_cliques_parallel(
    const graph::GraphView& g, const CliqueCallback& sink,
    const ParallelOptions& options) {
  util::Timer total_timer;
  ParallelEnumerationStats pstats;
  EnumerationStats& stats = pstats.base;
  util::MemoryTracker& tracker = options.tracker != nullptr
                                     ? *options.tracker
                                     : util::global_memory_tracker();
  const SizeRange range = options.range;
  const std::size_t lo = std::max<std::size_t>(range.lo, 1);
  const std::size_t num_threads = options.threads != 0
                                      ? options.threads
                                      : par::ThreadPool::default_threads();
  pstats.threads = num_threads;
  pstats.seed_thread_seconds.assign(num_threads, 0.0);
  pstats.thread_busy_seconds.assign(num_threads, 0.0);

  // Size-1 maximal cliques (isolated vertices) are only reachable here.
  if (lo == 1) {
    Clique buf(1);
    for (VertexId v = 0; v < g.order(); ++v) {
      if (g.degree(v) == 0) {
        buf[0] = v;
        ++stats.total_maximal;
        sink(buf);
      }
    }
  }
  const std::size_t seed_k = std::max<std::size_t>(lo, 2);
  if (range.hi != 0 && range.hi < seed_k) {
    stats.total_seconds = total_timer.seconds();
    stats.finalize();
    return pstats;
  }

  // --- degree preprocessing -------------------------------------------------
  // Vertices of a clique of size >= seed_k have >= seed_k - 1 neighbors
  // inside it, so the iterated (seed_k - 1)-core contains every such clique
  // and every witness to (non-)maximality of cliques at or above the seed.
  graph::GraphView work = g;
  graph::InducedSubgraph reduced;
  const std::vector<VertexId>* mapping = nullptr;
  if (options.use_kcore && seed_k >= 2) {
    reduced = graph::kcore_subgraph(g, seed_k - 1);
    if (reduced.graph.order() < g.order()) {
      work = graph::GraphView(reduced.graph);
      mapping = &reduced.mapping;
    }
  }
  MappedSink mapped(sink, mapping);
  const std::size_t n = work.order();

  par::ThreadPool pool(num_threads);
  std::vector<BitsetPool> bitset_pools;
  bitset_pools.reserve(num_threads);
  for (std::size_t t = 0; t < num_threads; ++t) bitset_pools.emplace_back(n);

  // --- parallel seeding -------------------------------------------------------
  // Seed tasks are canonical 2-prefixes (edges) at Init_K >= 3 — fine
  // enough that no single dense region becomes an unsplittable task — or
  // root vertices at Init_K = 2.  Both cover every k-clique exactly once,
  // in lexicographic order.
  util::Timer seed_timer;
  ChunkedLevel current;
  {
    const bool pair_seed = seed_k >= 3;
    const std::vector<SeedPair> pairs =
        pair_seed ? collect_seed_pairs(work) : std::vector<SeedPair>{};
    const std::size_t tasks = pair_seed ? pairs.size() : n;
    SeedTrace seed_trace;
    if (options.record_trace) {
      seed_trace.task_work.assign(tasks, 0);
      seed_trace.task_seconds.assign(tasks, 0.0);
    }
    auto slots = run_ranges(
        pool, options.dynamic_claiming, tasks, kSeedJobsPerWorker, "enum-seed",
        [&](RangeSlot& slot, std::size_t begin, std::size_t end, std::size_t) {
          const CliqueCallback local_sink =
              [&slot](std::span<const VertexId> clique) {
                slot.emitted.insert(slot.emitted.end(), clique.begin(),
                                    clique.end());
              };
          SeedLevelWorker worker(work, seed_k, local_sink);
          for (std::size_t task = begin; task < end; ++task) {
            util::Timer task_timer;
            const std::uint64_t nodes_before = worker.stats().tree_nodes;
            if (pair_seed) {
              worker.process_pair(pairs[task]);
            } else {
              worker.process_root(static_cast<VertexId>(task));
            }
            if (options.record_trace) {
              seed_trace.task_work[task] =
                  worker.stats().tree_nodes - nodes_before;
              seed_trace.task_seconds[task] = task_timer.seconds();
            }
          }
          slot.counters.maximal_emitted = worker.stats().maximal;
          slot.next = worker.take_level();
          detail::MemoryLedger ledger(tracker);
          for (const auto& sublist : slot.next) {
            ledger.allocate(sublist.bytes());
          }
        },
        pstats.total_transfers);
    detail::KernelCounters counters;
    current =
        drain(slots, seed_k, mapped, counters, pstats.seed_thread_seconds);
    stats.total_maximal += counters.maximal_emitted;
    if (options.record_trace) stats.seed_trace = std::move(seed_trace);
  }
  for (std::size_t t = 0; t < num_threads; ++t) {
    pstats.thread_busy_seconds[t] += pstats.seed_thread_seconds[t];
  }
  stats.seed_seconds = seed_timer.seconds();

  // --- level-synchronous enumeration -----------------------------------------
  std::size_t k = seed_k;
  while (!current.chunks.empty() && range.open_above(k)) {
    util::Timer level_timer;
    LevelStats level;
    level.k = k;
    level.sublists = current.counts.sublists;
    level.candidates = current.counts.candidates;
    level.bytes_formula = level_bytes_formula(current.counts, k, n);
    level.bytes_actual = current.bytes_actual;

    const std::size_t tasks = current.counts.sublists;
    LevelTrace trace;
    if (options.record_trace) {
      trace.k = k;
      trace.task_work.assign(tasks, 0);
      trace.task_seconds.assign(tasks, 0.0);
    }
    auto slots = run_ranges(
        pool, options.dynamic_claiming, tasks, kLevelJobsPerWorker,
        "enum-k" + std::to_string(k),
        [&](RangeSlot& slot, std::size_t begin, std::size_t end,
            std::size_t worker) {
          detail::MemoryLedger ledger(tracker);
          current.for_range(begin, end, [&](CliqueSublist& sublist,
                                            std::size_t task) {
            util::Timer task_timer;
            const std::uint64_t work_proxy = sublist.pair_work();
            const auto counters = detail::process_sublist(
                work, sublist,
                [&](const std::vector<VertexId>& prefix, VertexId v,
                    VertexId u) {
                  slot.emitted.insert(slot.emitted.end(), prefix.begin(),
                                      prefix.end());
                  slot.emitted.push_back(v);
                  slot.emitted.push_back(u);
                },
                slot.next, bitset_pools[worker], ledger);
            slot.counters.pairs_checked += counters.pairs_checked;
            slot.counters.edges_present += counters.edges_present;
            slot.counters.maximal_emitted += counters.maximal_emitted;
            if (options.record_trace) {
              trace.task_work[task] = work_proxy;
              trace.task_seconds[task] = task_timer.seconds();
            }
          });
        },
        pstats.total_transfers);

    detail::KernelCounters counters;
    std::vector<double> thread_seconds(num_threads, 0.0);
    current = drain(slots, k + 1, mapped, counters, thread_seconds);
    level.pairs_checked = counters.pairs_checked;
    level.edges_present = counters.edges_present;
    level.maximal_emitted = counters.maximal_emitted;
    stats.total_maximal += counters.maximal_emitted;
    for (std::size_t t = 0; t < num_threads; ++t) {
      pstats.thread_busy_seconds[t] += thread_seconds[t];
    }
    ++k;

    level.seconds = level_timer.seconds();
    stats.levels.push_back(level);
    pstats.level_thread_seconds.push_back(std::move(thread_seconds));
    if (options.record_trace) stats.traces.push_back(std::move(trace));
    if (options.progress) options.progress(level);
  }

  // Window closed with candidates still alive: release their accounting.
  for (const Level& chunk : current.chunks) {
    for (const auto& sublist : chunk) {
      tracker.release(sublist.bytes(), util::MemTag::kCliqueStorage);
    }
  }

  stats.total_seconds = total_timer.seconds();
  stats.finalize();
  return pstats;
}

EnumerationStats enumerate_maximal_cliques(
    const graph::GraphView& g, const CliqueCallback& sink,
    const CliqueEnumeratorOptions& options) {
  ParallelOptions one_worker;
  static_cast<CliqueEnumeratorOptions&>(one_worker) = options;
  one_worker.threads = 1;
  return enumerate_maximal_cliques_parallel(g, sink, one_worker).base;
}

}  // namespace gsb::core
