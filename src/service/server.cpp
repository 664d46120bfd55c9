#include "service/server.h"

#include <istream>
#include <optional>
#include <ostream>
#include <stdexcept>

#include "obs/timeline.h"
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

  // One engine for the session: a long session opens the artifacts once.
  QueryEngine engine(std::move(entry));
  if (obs::TimelineJournal::global().enabled()) {
    obs::TimelineJournal::global().set_thread_lane("stream");
  }

  std::string line;
  while (!should_stop() && std::getline(in, line)) {
    // The lines available together form a group, and every deadline in it
    // runs from the group's arrival.  Each line is answered as it is read,
    // so a control line runs after every earlier query landed (`stats`
    // reads the cache counters, `profile stop` snapshots the timeline
    // window).
    const auto arrival = std::chrono::steady_clock::now();
    do {
      const std::string request = trimmed(line);
      if (request.empty()) continue;  // blank keep-alive: no response
      ++stats.requests;
      requests_total.inc();
      if (is_control_request(request)) {
        if (const auto control = control_response(stats, options, request)) {
          out << *control << '\n';
          continue;
        }
        // Control-shaped but unsupported here ("reload"): answered as a
        // query, with the engine's typed error.
      }
      if (past_deadline(arrival, options.request_timeout_ms)) {
        // Shed without executing; the slot still answers in order.
        ++stats.timeouts;
        out << deadline_exceeded() << '\n';
        continue;
      }
      std::string response =
          execute_request(engine, options.cache, line, "stream",
                          stats.cache_hits, stats.cache_misses);
      if (past_deadline(arrival, options.request_timeout_ms)) {
        ++stats.timeouts;
        response = deadline_exceeded();
      }
      out << response << '\n';
    } while (in.rdbuf()->in_avail() > 0 && std::getline(in, line));
    out.flush();
  }
  stats.engine += engine.stats();
  return stats;
}

}  // namespace gsb::service
