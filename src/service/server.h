#ifndef GSB_SERVICE_SERVER_H
#define GSB_SERVICE_SERVER_H

/// \file server.h
/// The stdin serving loop behind `gsb serve`, and the per-request path
/// every transport shares.  Newline-delimited requests in, one response
/// line per request out (wire format in docs/SERVICE.md).
///
/// serve_stream reads requests from an istream (stdin in the CLI) and
/// writes responses to an ostream.  It answers every line in request order
/// on the calling thread, with one QueryEngine for the session, so a
/// scripted session's output is byte-reproducible.  The socket transports
/// (`--socket`, `--tcp`) are one epoll loop, TcpServer in tcp_server.h,
/// whose worker pool `--threads` sizes.  Both loops trim, time and meter
/// each request through the helpers declared at the end of this header,
/// and run it through execute_request (batch_executor.h).
///
/// Control requests: `ping` (liveness), `stats` (served/cache counters),
/// `shutdown` (graceful stop: requests already read are still answered).
/// An external stop flag serves the same purpose for signal handlers.

#include <atomic>
#include <chrono>
#include <cstdint>
#include <iosfwd>
#include <memory>
#include <string>
#include <string_view>

#include "obs/metrics.h"
#include "service/batch_executor.h"
#include "service/graph_catalog.h"
#include "service/result_cache.h"

namespace gsb::service {

struct ServeOptions {
  ResultCache* cache = nullptr;  ///< optional shared response cache
  /// Optional external shutdown flag (e.g. set by a SIGTERM handler);
  /// polled between request groups.
  const std::atomic<bool>* stop = nullptr;
  /// Request deadline in milliseconds (0 = none).  The lines available
  /// together form a group, and a query answered later than this after its
  /// group arrived gets a typed `error: deadline exceeded` instead of its
  /// result; order is preserved, and requests already past deadline are
  /// shed without executing.
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

}  // namespace gsb::service

#endif  // GSB_SERVICE_SERVER_H
