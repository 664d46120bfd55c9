#ifndef GSB_SERVICE_TCP_SERVER_H
#define GSB_SERVICE_TCP_SERVER_H

/// \file tcp_server.h
/// The socket front end behind `gsb serve --tcp` and `gsb serve --socket`:
/// one epoll event loop serving a TCP or a Unix-domain listener.  The
/// class keeps its TCP-era name because perfbench builds against it.
///
/// The loop owns every socket (non-blocking accept, read and write; no
/// thread per connection); parsed requests are executed on a small
/// worker pool, at most one in flight per connection, so responses leave
/// each connection in request order and the engine's per-connection
/// state never needs locks.  Each connection speaks one of two protocols,
/// sniffed from its first byte (wire_protocol.h): the newline-delimited
/// line protocol, or the length-prefixed binary protocol with request ids
/// and pipelining.  Response payloads are produced by the same
/// execute_request path the stdin transport uses (batch_executor.h), so
/// bytes are identical across stdin, Unix-socket, TCP, line and binary
/// serving.
///
/// Admission control: a connection may hold at most `max_pipeline` queued
/// requests and `max_inflight_bytes` of un-drained response bytes; beyond
/// either bound new requests are answered immediately with a typed `busy`
/// response (status kBusy on the binary protocol, a `busy: ...` line on
/// the line protocol) instead of queueing unboundedly.  A client that
/// keeps flooding without reading at all is disconnected once its output
/// backlog reaches four times the byte budget.
///
/// Hot reload: the `reload` control request invokes the injected reload
/// callback (the CLI wires it to a fresh GraphCatalog::open of the same
/// spec) and swaps the served entry under live traffic.  In-flight
/// queries finish against the old epoch through their shared_ptr; every
/// request dispatched after the swap runs against the new epoch — no
/// response ever mixes epochs.

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>

#include "service/graph_catalog.h"
#include "service/query_engine.h"
#include "service/result_cache.h"

namespace gsb::service {

struct TcpServerOptions {
  std::size_t threads = 0;       ///< execution workers; 0 = hardware cores
  ResultCache* cache = nullptr;  ///< optional shared response cache
  /// Optional external shutdown flag (signal handlers); polled by the
  /// event loop.
  const std::atomic<bool>* stop = nullptr;
  /// Per-connection bound on buffered, un-drained response bytes before
  /// admission control answers `busy`.
  std::size_t max_inflight_bytes = 4u << 20;
  /// Per-connection bound on queued (not yet executing) requests before
  /// admission control answers `busy`.
  std::size_t max_pipeline = 256;
  /// Hot-reload hook: returns a freshly opened entry (new epoch) for the
  /// `reload` control request; empty = reload unavailable.
  std::function<std::shared_ptr<const GraphEntry>()> reload;
  /// Request deadline in milliseconds (0 = none).  A query whose age
  /// (arrival to response) exceeds the deadline answers a typed
  /// `error: deadline exceeded` through the normal FIFO — order is
  /// preserved, and queued requests past deadline are shed without
  /// dispatching to a worker.
  std::size_t request_timeout_ms = 0;
  /// Close a connection with no traffic and nothing pending after this
  /// many milliseconds (0 = never).  Reclaims epoll state held by
  /// silent peers without disturbing other connections.
  std::size_t idle_timeout_ms = 0;
  /// Disconnect a client that accepts no response bytes for this many
  /// milliseconds while output is pending (0 = never) — a slow-reader
  /// bound tighter than the admission-control byte budget.
  std::size_t write_timeout_ms = 0;
};

struct TcpServeStats {
  std::uint64_t requests = 0;     ///< requests parsed (control included)
  std::uint64_t connections = 0;  ///< connections accepted
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;
  std::uint64_t busy_rejections = 0;  ///< requests answered `busy`
  std::uint64_t accept_errors = 0;    ///< failed accept() calls
  std::uint64_t protocol_errors = 0;  ///< malformed frames, overlong lines
  std::uint64_t disconnects = 0;      ///< mid-session client disconnects
  std::uint64_t reloads = 0;          ///< successful hot reloads
  std::uint64_t timeouts = 0;         ///< deadline + idle + write timeouts
  QueryEngineStats engine;            ///< merged across connection engines
  bool shutdown_requested = false;    ///< a client sent `shutdown`
};

/// Binds in the constructor (so an ephemeral `HOST:0` port is readable
/// via port() before serving) and runs the event loop in serve().
/// Throws std::runtime_error when the address cannot be bound, or — on
/// platforms without epoll — from the constructor.
class TcpServer {
 public:
  /// \p address is `HOST:PORT` (an empty host binds every interface, port
  /// 0 picks an ephemeral port) or, when it contains a `/`, the path of a
  /// Unix-domain socket.  A stale socket file is replaced; an existing
  /// non-socket file, or a socket a live server still accepts on, is
  /// refused.
  TcpServer(std::shared_ptr<const GraphEntry> entry, const std::string& address,
            TcpServerOptions options = {});
  /// Closes the listener and removes the socket file, but only while it is
  /// still the file this server bound (a newer server may own the path).
  ~TcpServer();

  TcpServer(const TcpServer&) = delete;
  TcpServer& operator=(const TcpServer&) = delete;

  /// The bound port (useful after binding port 0); 0 on a Unix listener.
  [[nodiscard]] std::uint16_t port() const noexcept { return port_; }

  /// Serves until a `shutdown` request or the external stop flag, then
  /// drains: queued requests finish, responses flush, connections close.
  TcpServeStats serve();

 private:
  std::shared_ptr<const GraphEntry> entry_;
  TcpServerOptions options_;
  int listen_fd_ = -1;
  std::uint16_t port_ = 0;
  /// Unix listener only: the socket file and the device/inode it had
  /// when bound.
  std::string socket_path_;
  std::uint64_t socket_dev_ = 0;
  std::uint64_t socket_ino_ = 0;
};

}  // namespace gsb::service

#endif  // GSB_SERVICE_TCP_SERVER_H
