#ifndef GSB_SERVICE_SERVER_H
#define GSB_SERVICE_SERVER_H

/// \file server.h
/// The stdin serving loop behind `gsb serve`, and the per-request path
/// every transport shares.  Newline-delimited requests in, one response
/// line per request out (wire format in docs/SERVICE.md).
///
/// serve_stream reads requests from an istream (stdin in the CLI) and
/// writes responses to an ostream.  Contiguously available request lines
/// are grouped and fanned over the thread pool via execute_batch;
/// responses are always emitted in request order, so a scripted session's
/// output is byte-reproducible at any thread count.  The socket
/// transports (`--socket`, `--tcp`) are one epoll loop, TcpServer in
/// tcp_server.h.  Both loops trim, time, trace and meter each request
/// through the helpers declared at the end of this header.
///
/// Control requests: `ping` (liveness), `stats` (served/cache counters),
/// `shutdown` (graceful stop: requests already read are still answered).
/// An external stop flag serves the same purpose for signal handlers.

#include <atomic>
#include <chrono>
#include <cstdint>
#include <iosfwd>
#include <memory>
#include <optional>
#include <string>
#include <string_view>

#include "obs/metrics.h"
#include "service/batch_executor.h"
#include "service/graph_catalog.h"
#include "service/result_cache.h"

namespace gsb::service {

struct ServeOptions {
  std::size_t threads = 0;       ///< 0 = hardware cores
  ResultCache* cache = nullptr;  ///< optional shared response cache
  /// Optional external shutdown flag (e.g. set by a SIGTERM handler);
  /// polled between request groups.
  const std::atomic<bool>* stop = nullptr;
  /// Request deadline in milliseconds (0 = none).  A query answered later
  /// than this after its group arrived gets a typed `error: deadline
  /// exceeded` instead of its result; order is preserved, and requests
  /// already past deadline are shed without executing.  With a deadline
  /// set the loop answers line by line as it scans (no batch fan-out), so
  /// every request is individually timed.
  std::size_t request_timeout_ms = 0;
};

struct ServeStats {
  std::uint64_t requests = 0;  ///< lines served (control lines included)
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;
  std::uint64_t timeouts = 0;  ///< requests past their deadline
  QueryEngineStats engine;
  bool shutdown_requested = false;  ///< a client sent `shutdown`
};

/// Serves requests from \p in until EOF, a `shutdown` request, or the
/// external stop flag.  Responses go to \p out in request order, flushed
/// per group.
ServeStats serve_stream(std::shared_ptr<const GraphEntry> entry,
                        std::istream& in, std::ostream& out,
                        const ServeOptions& options);

// --- the per-request path shared by serve_stream and TcpServer -----------

/// \p line without surrounding spaces, tabs, CR or LF; empty for a blank
/// keep-alive line.
std::string trimmed(std::string_view line);

/// True once a request that arrived at \p arrival is older than
/// \p timeout_ms; never when \p timeout_ms is 0.
bool past_deadline(std::chrono::steady_clock::time_point arrival,
                   std::size_t timeout_ms);

/// Counts one shed or late request in
/// `gsb_timeouts_total{kind="request"}` and returns the typed line that
/// answers it in its slot: `error: deadline exceeded`.
std::string deadline_exceeded();

/// The `transport="NAME"` series every transport registers on the global
/// registry (the registry dedupes on name and labels, so each call for a
/// name returns the same series).  Inert until the registry is enabled.
struct TransportMetrics {
  obs::Counter requests;
  obs::Counter connections;
  obs::Counter accept_errors;
  obs::Counter bytes_in;
  obs::Counter bytes_out;
  obs::Histogram socket_write;
};
TransportMetrics transport_metrics(const char* transport);

/// One query line through execute_cached_line inside its request scope:
/// a trace labelled \p transport (slowest-N and the slow-query log) and a
/// timeline request span carrying \p id.  \p dispatched, when set, is
/// when the request was handed to a worker; the wait since then is
/// attributed to the trace's and the timeline's queue_wait.
std::string execute_request(
    QueryEngine& engine, ResultCache* cache, const std::string& line,
    const char* transport, std::uint64_t& cache_hits,
    std::uint64_t& cache_misses, std::uint64_t id = 0,
    std::optional<std::chrono::steady_clock::time_point> dispatched =
        std::nullopt);

}  // namespace gsb::service

#endif  // GSB_SERVICE_SERVER_H
