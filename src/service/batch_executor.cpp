#include "service/batch_executor.h"

#include <algorithm>
#include <array>
#include <optional>
#include <stdexcept>

#include "obs/metrics.h"
#include "obs/timeline.h"
#include "parallel/job_graph.h"
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
  std::size_t kind = kNumQueryKinds;  // type="invalid" until parsed
  const auto finish = [&](std::string response) {
    if (instrumented) {
      metrics.requests[kind].inc();
      if (response.starts_with("error:")) metrics.errors[kind].inc();
      metrics.duration[kind].observe_micros(
          static_cast<std::uint64_t>(timer.micros()));
    }
    return response;
  };

  Query query;
  {
    obs::TimelineSpan span(obs::TimelineEventKind::kStage, "parse");
    try {
      query = parse_query(line);
      kind = static_cast<std::size_t>(query.kind);
    } catch (const std::exception&) {
    }
  }
  // The engine counts and formats the parse error.
  if (kind == kNumQueryKinds) return finish(engine.execute_line(line));
  if (cache == nullptr) return finish(engine.execute(query));
  const std::uint64_t epoch = engine.entry().epoch();
  const std::string canonical = canonical_query(query);
  {
    obs::TimelineSpan span(obs::TimelineEventKind::kStage, "cache_lookup");
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
  std::string response = engine.execute(query);
  if (!response.starts_with("error:")) {
    obs::TimelineSpan span(obs::TimelineEventKind::kStage, "cache_lookup");
    cache->insert(epoch, canonical, response);
  }
  return finish(std::move(response));
}

std::string execute_request(
    QueryEngine& engine, ResultCache* cache, const std::string& line,
    const char* transport, std::uint64_t& cache_hits,
    std::uint64_t& cache_misses, std::uint64_t id,
    std::optional<std::chrono::steady_clock::time_point> dispatched) {
  const obs::RequestScope scope(obs::TimelineJournal::global(), transport,
                                line, id, dispatched);
  return execute_cached_line(engine, cache, line, cache_hits, cache_misses);
}

BatchResult execute_batch(std::shared_ptr<const GraphEntry> entry,
                          const std::vector<std::string>& lines,
                          const BatchOptions& options) {
  if (entry == nullptr) {
    throw std::invalid_argument("execute_batch: null graph entry");
  }
  static const obs::Counter batches_total =
      obs::MetricsRegistry::global().counter(
          "gsb_batches_total", "Batch executions (gsb query --batch).");
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
  result.threads_used = threads;

  if (threads == 1) {
    QueryEngine engine(entry);
    for (std::size_t i = 0; i < lines.size(); ++i) {
      result.responses[i] =
          execute_request(engine, options.cache, lines[i], "batch",
                          result.cache_hits, result.cache_misses, i);
    }
    result.engine = engine.stats();
    return result;
  }

  // One scheduler job per request line, unordered: response slots make
  // output order a function of the input alone, so work distribution is
  // free to be racy.
  par::ThreadPool pool(threads);
  par::JobGraph jobs(&pool);

  /// Per-worker engine, built on the worker's first line.
  struct Worker {
    std::optional<QueryEngine> engine;
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
  };
  std::vector<Worker> workers(jobs.workers());
  for (std::size_t i = 0; i < lines.size(); ++i) {
    jobs.add([&, i](std::size_t wid) {
      Worker& w = workers[wid];
      if (!w.engine) w.engine.emplace(entry);
      result.responses[i] = execute_request(*w.engine, options.cache,
                                            lines[i], "batch", w.hits,
                                            w.misses, i);
    });
  }
  jobs.run();
  for (const Worker& w : workers) {
    if (!w.engine) continue;
    result.engine += w.engine->stats();
    result.cache_hits += w.hits;
    result.cache_misses += w.misses;
  }
  return result;
}

}  // namespace gsb::service
