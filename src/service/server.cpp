#include "service/server.h"

#include <istream>
#include <optional>
#include <ostream>
#include <stdexcept>
#include <vector>

#include "obs/timeline.h"
#include "obs/trace.h"
#include "service/control_text.h"

namespace gsb::service {

std::string trimmed(std::string_view line) {
  const auto begin = line.find_first_not_of(" \t\r\n");
  if (begin == std::string_view::npos) return {};
  const auto end = line.find_last_not_of(" \t\r\n");
  return std::string(line.substr(begin, end - begin + 1));
}

bool past_deadline(std::chrono::steady_clock::time_point arrival,
                   std::size_t timeout_ms) {
  return timeout_ms != 0 && std::chrono::steady_clock::now() - arrival >
                                std::chrono::milliseconds(timeout_ms);
}

std::string deadline_exceeded() {
  static const obs::Counter counter = obs::MetricsRegistry::global().counter(
      "gsb_timeouts_total",
      "Requests or connections timed out, by timeout kind.",
      "kind=\"request\"");
  counter.inc();
  return "error: deadline exceeded";
}

TransportMetrics transport_metrics(const char* transport) {
  obs::MetricsRegistry& registry = obs::MetricsRegistry::global();
  const std::string labels =
      std::string("transport=\"") + transport + "\"";
  TransportMetrics m;
  m.requests = registry.counter("gsb_requests_total",
                                "Requests received per transport.", labels);
  m.connections = registry.counter(
      "gsb_connections_total", "Connections accepted per transport.", labels);
  m.accept_errors = registry.counter(
      "gsb_accept_errors_total", "Failed accept() calls per transport.",
      labels);
  m.bytes_in = registry.counter("gsb_bytes_read_total",
                                "Request bytes read per transport.", labels);
  m.bytes_out = registry.counter(
      "gsb_bytes_written_total", "Response bytes written per transport.",
      labels);
  m.socket_write = registry.histogram(
      "gsb_socket_write_microseconds",
      "Time spent writing responses to the socket.", labels);
  return m;
}

std::string execute_request(
    QueryEngine& engine, ResultCache* cache, const std::string& line,
    const char* transport, std::uint64_t& cache_hits,
    std::uint64_t& cache_misses, std::uint64_t id,
    std::optional<std::chrono::steady_clock::time_point> dispatched) {
  obs::TraceScope trace(obs::Tracer::global(), transport, line);
  obs::TimelineJournal& journal = obs::TimelineJournal::global();
  if (dispatched && (trace.active() || journal.enabled())) {
    // The wait predates both scopes, so it is attributed explicitly.
    const auto waited = static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(
            std::chrono::steady_clock::now() - *dispatched)
            .count());
    trace.add_pre_span(obs::Span::kQueueWait, waited);
    if (journal.enabled()) {
      const std::uint64_t now = journal.now_micros();
      journal.record(obs::TimelineEventKind::kQueueWait,
                     now >= waited ? now - waited : 0, waited, id, line);
    }
  }
  obs::TimelineSpan span(obs::TimelineEventKind::kRequest, line, id);
  return execute_cached_line(engine, cache, line, cache_hits, cache_misses);
}

namespace {

/// Handles `ping` / `stats` / `profile ...` / `metrics ...` / `shutdown`;
/// nullopt for ordinary queries and for control requests this transport
/// does not serve (`reload`).
std::optional<std::string> control_response(ServeStats& stats,
                                            const ServeOptions& options,
                                            const std::string& request) {
  if (request == "ping") return std::string("ok pong");
  if (request == "shutdown") {
    stats.shutdown_requested = true;
    return std::string("ok shutdown");
  }
  if (request == "stats") {
    StatsFields fields;
    fields.requests = stats.requests;
    fields.cache_hits = stats.cache_hits;
    fields.cache_misses = stats.cache_misses;
    // timeouts= only with a deadline configured, so the default stats
    // line is byte-identical to older servers.
    if (options.request_timeout_ms != 0) fields.timeouts = stats.timeouts;
    fields.cache = options.cache;
    return render_stats_line(fields);
  }
  if (const auto profile = profile_response(request)) return *profile;
  return metrics_response(request);
}

}  // namespace

ServeStats serve_stream(std::shared_ptr<const GraphEntry> entry,
                        std::istream& in, std::ostream& out,
                        const ServeOptions& options) {
  if (entry == nullptr) {
    throw std::invalid_argument("serve_stream: null graph entry");
  }
  ServeStats stats;
  const obs::Counter requests_total = transport_metrics("stream").requests;
  const auto should_stop = [&] {
    return stats.shutdown_requested ||
           (options.stop != nullptr &&
            options.stop->load(std::memory_order_relaxed));
  };

  // Session-lifetime state: multi-line groups borrow one pool and one set
  // of per-thread engines (no thread setup, no re-opened clique readers
  // per group), and single-line groups — the interactive case — run on
  // one persistent engine.  A long session opens the artifacts once.
  std::size_t threads = options.threads;
  if (threads == 0) threads = par::ThreadPool::default_threads();
  std::optional<par::ThreadPool> pool;
  std::vector<QueryEngine> group_engines;
  if (threads > 1) {
    pool.emplace(threads);
    group_engines.reserve(threads);
    for (std::size_t t = 0; t < threads; ++t) group_engines.emplace_back(entry);
  }
  QueryEngine session_engine(entry);
  if (obs::TimelineJournal::global().enabled()) {
    obs::TimelineJournal::global().set_thread_lane("stream");
  }
  // One thread, or a configured deadline, answers each line as it is
  // scanned: every request is individually timed against its group's
  // arrival, which batch fan-out cannot provide, and the first one does
  // not wait for the rest of its group to be scanned.
  const bool per_line = threads == 1 || options.request_timeout_ms != 0;

  std::vector<std::string> group;
  std::string line;
  while (!should_stop() && std::getline(in, line)) {
    // Group the contiguously available request lines so independent
    // queries fan out together; responses still flush in request order.
    group.clear();
    group.push_back(line);
    while (in.rdbuf()->in_avail() > 0 && std::getline(in, line)) {
      group.push_back(line);
    }
    const auto arrival = std::chrono::steady_clock::now();

    std::size_t begin = 0;  // first query line not yet answered
    auto flush_queries = [&](std::size_t end) {
      if (begin == end) return;
      if (per_line || end - begin == 1) {
        for (std::size_t i = begin; i < end; ++i) {
          std::string response;
          if (past_deadline(arrival, options.request_timeout_ms)) {
            // Shed without executing; the slot still answers in order.
            ++stats.timeouts;
            response = deadline_exceeded();
          } else {
            response = execute_request(session_engine, options.cache,
                                       group[i], "stream", stats.cache_hits,
                                       stats.cache_misses);
            if (past_deadline(arrival, options.request_timeout_ms)) {
              ++stats.timeouts;
              response = deadline_exceeded();
            }
          }
          out << response << '\n';
        }
        begin = end;
        return;
      }
      const std::vector<std::string> slice(group.begin() + begin,
                                           group.begin() + end);
      BatchOptions batch;
      batch.threads = threads;
      batch.cache = options.cache;
      batch.pool = pool ? &*pool : nullptr;
      batch.engines = group_engines.empty() ? nullptr : &group_engines;
      const auto result = execute_batch(entry, slice, batch);
      for (const std::string& response : result.responses) {
        out << response << '\n';
      }
      stats.engine += result.engine;
      stats.cache_hits += result.cache_hits;
      stats.cache_misses += result.cache_misses;
      begin = end;
    };

    for (std::size_t i = 0; i < group.size(); ++i) {
      const std::string request = trimmed(group[i]);
      if (request.empty()) {  // blank keep-alive: no response, not counted
        flush_queries(i);
        begin = i + 1;
        continue;
      }
      ++stats.requests;
      requests_total.inc();
      if (is_control_request(request)) {
        // Everything queued before the control line answers first — and
        // must also *execute* first: `stats` reads the cache counters
        // and `profile stop` snapshots the timeline window, so pending
        // queries have to land before the control request evaluates.
        flush_queries(i);
        if (const auto control = control_response(stats, options, request)) {
          out << *control << '\n';
          begin = i + 1;
          continue;
        }
        // Control-shaped but unsupported here ("reload"): answered as a
        // query, with the engine's typed error.
      }
      if (per_line) flush_queries(i + 1);
    }
    flush_queries(group.size());
    out.flush();
  }
  stats.engine += session_engine.stats();
  return stats;
}

}  // namespace gsb::service
