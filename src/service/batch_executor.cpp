#include "service/batch_executor.h"

#include <algorithm>
#include <array>
#include <optional>
#include <stdexcept>

#include "obs/metrics.h"
#include "obs/timeline.h"
#include "parallel/job_graph.h"
#include "obs/trace.h"
#include "util/timer.h"

namespace gsb::service {

namespace {

constexpr std::size_t kNumQueryKinds =
    static_cast<std::size_t>(QueryKind::kTopHubs) + 1;

/// Per-query-type series for the one parse→cache→engine path every
/// transport funnels through.  Slot kNumQueryKinds is `type="invalid"`
/// (lines that fail to parse).
struct RequestMetrics {
  std::array<obs::Counter, kNumQueryKinds + 1> requests;
  std::array<obs::Counter, kNumQueryKinds + 1> errors;
  std::array<obs::Histogram, kNumQueryKinds + 1> duration;
  obs::Counter cache_hits;
  obs::Counter cache_misses;
};

const RequestMetrics& request_metrics() {
  static const RequestMetrics metrics = [] {
    obs::MetricsRegistry& registry = obs::MetricsRegistry::global();
    RequestMetrics m;
    for (std::size_t k = 0; k <= kNumQueryKinds; ++k) {
      const char* type = k < kNumQueryKinds
                             ? query_kind_name(static_cast<QueryKind>(k))
                             : "invalid";
      const std::string labels = std::string("type=\"") + type + "\"";
      m.requests[k] = registry.counter(
          "gsb_requests_by_type_total", "Query requests per query type.",
          labels);
      m.errors[k] = registry.counter(
          "gsb_request_errors_total",
          "Requests answered with an error line, per query type.", labels);
      m.duration[k] = registry.histogram(
          "gsb_request_duration_microseconds",
          "End-to-end request latency (parse + cache + execute).", labels);
    }
    m.cache_hits = registry.counter("gsb_cache_hits_total",
                                    "Result-cache lookups that hit.");
    m.cache_misses = registry.counter("gsb_cache_misses_total",
                                      "Result-cache lookups that missed.");
    return m;
  }();
  return metrics;
}

}  // namespace

std::string execute_cached_line(QueryEngine& engine, ResultCache* cache,
                                const std::string& line,
                                std::uint64_t& cache_hits,
                                std::uint64_t& cache_misses) {
  const RequestMetrics& metrics = request_metrics();
  const bool instrumented = obs::MetricsRegistry::global().enabled();
  util::Timer timer;

  Query query;
  bool parsed = false;
  {
    obs::SpanTimer span(obs::Span::kParse);
    try {
      query = parse_query(line);
      parsed = true;
    } catch (const std::exception&) {
    }
  }
  if (!parsed) {
    // Counted + formatted by the engine; metered as type="invalid".
    std::string response = engine.execute_line(line);
    if (instrumented) {
      metrics.requests[kNumQueryKinds].inc();
      metrics.errors[kNumQueryKinds].inc();
      metrics.duration[kNumQueryKinds].observe_micros(
          static_cast<std::uint64_t>(timer.micros()));
    }
    return response;
  }
  const auto kind = static_cast<std::size_t>(query.kind);
  metrics.requests[kind].inc();
  const auto finish = [&](std::string response) {
    if (instrumented) {
      if (response.starts_with("error:")) metrics.errors[kind].inc();
      metrics.duration[kind].observe_micros(
          static_cast<std::uint64_t>(timer.micros()));
    }
    return response;
  };

  if (cache == nullptr) {
    obs::SpanTimer span(obs::Span::kExecute);
    return finish(engine.execute(query));
  }
  const std::uint64_t epoch = engine.entry().epoch();
  const std::string canonical = canonical_query(query);
  {
    obs::SpanTimer span(obs::Span::kCacheLookup);
    if (auto cached = cache->lookup(epoch, canonical)) {
      ++cache_hits;
      metrics.cache_hits.inc();
      obs::TimelineJournal::global().record_instant(
          obs::TimelineEventKind::kCacheHit, 0, canonical);
      return finish(*std::move(cached));
    }
  }
  ++cache_misses;
  metrics.cache_misses.inc();
  obs::TimelineJournal::global().record_instant(
      obs::TimelineEventKind::kCacheMiss, 0, canonical);
  std::string response;
  {
    obs::SpanTimer span(obs::Span::kExecute);
    response = engine.execute(query);
  }
  if (!response.starts_with("error:")) {
    obs::SpanTimer span(obs::Span::kCacheLookup);
    cache->insert(epoch, canonical, response);
  }
  return finish(std::move(response));
}

namespace {

/// This call's activity out of a borrowed engine's cumulative counters.
QueryEngineStats stats_since(const QueryEngineStats& after,
                             const QueryEngineStats& before) {
  QueryEngineStats delta;
  delta.executed = after.executed - before.executed;
  delta.errors = after.errors - before.errors;
  delta.index_queries = after.index_queries - before.index_queries;
  delta.stream_scans = after.stream_scans - before.stream_scans;
  delta.records_decoded = after.records_decoded - before.records_decoded;
  return delta;
}

}  // namespace

BatchResult execute_batch(std::shared_ptr<const GraphEntry> entry,
                          const std::vector<std::string>& lines,
                          const BatchOptions& options) {
  if (entry == nullptr) {
    throw std::invalid_argument("execute_batch: null graph entry");
  }
  static const obs::Counter batches_total =
      obs::MetricsRegistry::global().counter(
          "gsb_batches_total",
          "Batch executions (CLI --batch and serve groups).");
  static const obs::Counter batch_lines_total =
      obs::MetricsRegistry::global().counter(
          "gsb_batch_lines_total", "Query lines executed through batches.");
  batches_total.inc();
  batch_lines_total.inc(lines.size());

  BatchResult result;
  result.responses.resize(lines.size());

  std::size_t threads = options.threads;
  if (threads == 0) threads = par::ThreadPool::default_threads();
  threads = std::min(threads, std::max<std::size_t>(lines.size(), 1));
  if (options.engines != nullptr) {
    threads = std::min(threads, std::max<std::size_t>(
                                    options.engines->size(), 1));
  }
  result.threads_used = threads;
  auto borrowed = [&](std::size_t thread_id) -> QueryEngine* {
    return options.engines != nullptr && thread_id < options.engines->size()
               ? &(*options.engines)[thread_id]
               : nullptr;
  };

  if (threads == 1) {
    std::optional<QueryEngine> local;
    QueryEngine* engine = borrowed(0);
    if (engine == nullptr) engine = &local.emplace(entry);
    const QueryEngineStats before = engine->stats();
    for (std::size_t i = 0; i < lines.size(); ++i) {
      result.responses[i] =
          execute_cached_line(*engine, options.cache, lines[i],
                              result.cache_hits, result.cache_misses);
    }
    result.engine = stats_since(engine->stats(), before);
    return result;
  }

  // One scheduler job per request line, unordered: response slots make
  // output order a function of the input alone, so work distribution is
  // free to be racy.  A borrowed pool may be larger than the batch's
  // thread budget; worker_limit keeps the clamp (and the engine-per-
  // worker invariant) without re-creating the pool.
  std::optional<par::ThreadPool> owned_pool;
  par::ThreadPool* pool = options.pool;
  if (pool == nullptr || pool->size() < threads) {
    owned_pool.emplace(threads);
    pool = &*owned_pool;
  }
  par::JobGraph::Options graph_options;
  graph_options.worker_limit = threads;
  par::JobGraph jobs(pool, graph_options);

  /// Per-worker engine state, built lazily on the worker's first line.
  struct Worker {
    std::optional<QueryEngine> local;
    QueryEngine* engine = nullptr;
    QueryEngineStats before;
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
  };
  std::vector<Worker> workers(jobs.workers());
  auto engine_for = [&](std::size_t wid) -> Worker& {
    Worker& w = workers[wid];
    if (w.engine == nullptr) {
      w.engine = borrowed(wid);
      if (w.engine == nullptr) w.engine = &w.local.emplace(entry);
      w.before = w.engine->stats();
    }
    return w;
  };
  for (std::size_t i = 0; i < lines.size(); ++i) {
    jobs.add([&, i](std::size_t wid) {
      Worker& w = engine_for(wid);
      obs::TimelineSpan span(obs::TimelineEventKind::kRequest, lines[i]);
      result.responses[i] = execute_cached_line(*w.engine, options.cache,
                                                lines[i], w.hits, w.misses);
    });
  }
  jobs.run();
  for (const Worker& w : workers) {
    if (w.engine == nullptr) continue;
    result.engine += stats_since(w.engine->stats(), w.before);
    result.cache_hits += w.hits;
    result.cache_misses += w.misses;
  }
  return result;
}

}  // namespace gsb::service
