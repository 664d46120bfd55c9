#ifndef GSB_PERFBENCH_LOADGEN_H
#define GSB_PERFBENCH_LOADGEN_H

/// \file loadgen.h
/// Open-loop load generator for `gsb serve --tcp`: one thread drives a few
/// binary-protocol connections and sends each request at its scheduled
/// time, whether or not earlier requests were answered.  Latency is taken
/// from the scheduled send time, so a stall shows up in every request it
/// delays.  The generator never queues more than `max_outstanding`
/// requests on one connection (below the server's admission bound, so it
/// never provokes `busy:`); when every connection is full it falls behind
/// its schedule, and that lateness is reported with the step.

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <limits>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "service/wire_protocol.h"

namespace gsb::perf {

namespace wire = service::wire;

/// 64-bit FNV-1a of a response payload (the reference is kept as hashes).
inline std::uint64_t fnv1a(std::string_view bytes) {
  std::uint64_t h = 1469598103934665603ull;
  for (const char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ull;
  }
  return h;
}

/// The requests to send: `sequence[i]` indexes `pool` for the i-th request
/// overall; `expected[j]` is the hash of pool line j's reference response.
struct LoadPlan {
  std::vector<std::string> pool;
  std::vector<std::uint32_t> sequence;
  std::vector<std::uint64_t> expected;
};

struct LoadStep {
  double rate = 0.0;       ///< requests per second
  double warmup_s = 0.0;   ///< sent but not recorded
  double measure_s = 0.0;  ///< recorded time
};

/// Latency percentiles are taken per window of this length and the step
/// reports their median, so one stall of the machine spoils a window of
/// the reported latency, not the step.  The validity check does not use
/// windows: it takes the generator's lateness over the whole step.
inline constexpr double kWindowSeconds = 0.5;

struct StepResult {
  double rate = 0.0;
  std::uint64_t attempted = 0;   ///< requests scheduled in the window
  std::uint64_t failed = 0;      ///< busy + error + mismatch + unanswered
  std::uint64_t busy = 0;
  std::uint64_t mismatched = 0;
  std::uint64_t unanswered = 0;
  std::uint64_t distinct = 0;    ///< distinct request lines in the window
  std::size_t windows = 0;       ///< latency windows (medians below)
  double p50_us = 0.0;
  double p99_us = 0.0;
  /// p99 of the generator's lateness against its schedule over the whole
  /// step (not windowed: a step that fell behind anywhere shows it).
  double late_p99_us = 0.0;
  std::uint64_t backlog_max = 0;  ///< peak outstanding requests
  /// Responses to the recorded requests per second, from the first
  /// recorded send to the last response: the server's capacity when the
  /// step overloads it.
  double completed_rps = 0.0;
  bool backlog_growing = false;
  /// Met the latency limit: p99 within it, no failure, generator on
  /// schedule and no growing backlog.
  bool pass = false;
};

namespace detail {

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

inline double percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(values.size())));
  return values[std::min(values.size() - 1, rank == 0 ? 0 : rank - 1)];
}

/// Median over consecutive windows of \p per values of each window's
/// q-percentile (a short last window joins the one before it).  Infinite
/// entries (failed requests, which fail the step on their own) are left
/// out.
inline double windowed(const std::vector<double>& values, std::size_t per,
                       double q) {
  std::vector<double> by_window;
  for (std::size_t at = 0; at < values.size();) {
    std::size_t end = std::min(values.size(), at + per);
    if (values.size() - end < per / 2) end = values.size();
    std::vector<double> window;
    for (std::size_t i = at; i < end; ++i) {
      if (std::isfinite(values[i])) window.push_back(values[i]);
    }
    if (!window.empty()) by_window.push_back(percentile(window, q));
    at = end;
  }
  return percentile(by_window, 0.5);
}

struct Connection {
  int fd = -1;
  std::string out;
  std::size_t out_off = 0;
  std::string in;
  std::size_t outstanding = 0;
};

inline int connect_loopback(std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) throw std::runtime_error("loadgen: socket failed");
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) !=
      0) {
    ::close(fd);
    throw std::runtime_error("loadgen: connect failed");
  }
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
  ::fcntl(fd, F_SETFL, ::fcntl(fd, F_GETFL) | O_NONBLOCK);
  return fd;
}

}  // namespace detail

/// Runs \p steps in order against the server on 127.0.0.1:\p port over
/// \p connections binary connections.  A step whose p99 exceeds
/// \p limit_us fails the limit.
inline std::vector<StepResult> run_open_loop(
    std::uint16_t port, const LoadPlan& plan,
    const std::vector<LoadStep>& steps, std::size_t connections,
    std::size_t max_outstanding, double limit_us) {
  using detail::now_ns;
  // Precise wakeups: the default 50 us timer slack would show up as
  // generator lateness.
  ::prctl(PR_SET_TIMERSLACK, 1UL, 0, 0, 0);
  std::vector<detail::Connection> conns(connections);
  for (auto& c : conns) c.fd = detail::connect_loopback(port);

  std::vector<StepResult> results;
  std::size_t cursor = 0;  // next entry of plan.sequence
  for (const LoadStep& step : steps) {
    const auto warm = static_cast<std::size_t>(step.rate * step.warmup_s);
    const auto measured = static_cast<std::size_t>(step.rate * step.measure_s);
    const std::size_t total = warm + measured;
    if (cursor + total > plan.sequence.size()) {
      throw std::runtime_error("loadgen: plan shorter than the ladder");
    }
    const double interval_ns = 1e9 / step.rate;
    const std::int64_t start = now_ns() + 1000000;
    auto due = [&](std::size_t i) {
      return start + static_cast<std::int64_t>(static_cast<double>(i) *
                                               interval_ns);
    };
    std::vector<double> latency(measured,
                                std::numeric_limits<double>::infinity());
    std::vector<double> lateness;
    lateness.reserve(measured);
    std::vector<char> answered(total, 0);
    std::vector<std::size_t> backlog;  // outstanding, sampled every 2 ms
    StepResult r;
    r.rate = step.rate;
    r.attempted = measured;
    std::size_t next = 0;
    std::size_t done = 0;
    std::size_t outstanding = 0;
    std::size_t rr = 0;
    std::int64_t next_sample = due(warm);
    std::int64_t last_response = due(warm);

    auto on_response = [&](wire::Status status, std::uint64_t id,
                           const std::string& payload, std::int64_t at) {
      const std::size_t i = static_cast<std::size_t>(id);
      if (i >= total || answered[i]) {
        throw std::runtime_error("loadgen: unexpected response id");
      }
      answered[i] = 1;
      ++done;
      --outstanding;
      if (i < warm) return;
      last_response = std::max(last_response, at);
      const std::size_t m = i - warm;
      if (status == wire::Status::kBusy) {
        ++r.busy;
      } else if (fnv1a(payload) !=
                 plan.expected[plan.sequence[cursor + i]]) {
        ++r.mismatched;
      } else {
        latency[m] = static_cast<double>(at - due(i)) * 1e-3;
      }
    };

    auto pump = [&](std::int64_t wait_ns) {
      std::vector<pollfd> fds(conns.size());
      for (std::size_t c = 0; c < conns.size(); ++c) {
        fds[c].fd = conns[c].fd;
        fds[c].events = static_cast<short>(
            POLLIN | (conns[c].out_off < conns[c].out.size() ? POLLOUT : 0));
        fds[c].revents = 0;
      }
      timespec ts{};
      wait_ns = std::max<std::int64_t>(0, wait_ns);
      ts.tv_sec = static_cast<time_t>(wait_ns / 1000000000);
      ts.tv_nsec = static_cast<long>(wait_ns % 1000000000);
      if (::ppoll(fds.data(), fds.size(), &ts, nullptr) < 0 &&
          errno != EINTR) {
        throw std::runtime_error("loadgen: ppoll failed");
      }
      for (std::size_t c = 0; c < conns.size(); ++c) {
        detail::Connection& conn = conns[c];
        if (fds[c].revents & (POLLERR | POLLHUP | POLLNVAL)) {
          throw std::runtime_error("loadgen: connection closed by server");
        }
        if ((fds[c].revents & POLLOUT) && conn.out_off < conn.out.size()) {
          const ssize_t n =
              ::send(conn.fd, conn.out.data() + conn.out_off,
                     conn.out.size() - conn.out_off, MSG_NOSIGNAL);
          if (n > 0) conn.out_off += static_cast<std::size_t>(n);
          if (conn.out_off == conn.out.size()) {
            conn.out.clear();
            conn.out_off = 0;
          }
        }
        if (fds[c].revents & POLLIN) {
          char buf[65536];
          for (;;) {
            const ssize_t n = ::recv(conn.fd, buf, sizeof buf, 0);
            if (n > 0) {
              conn.in.append(buf, static_cast<std::size_t>(n));
              continue;
            }
            if (n == 0) {
              throw std::runtime_error("loadgen: server closed connection");
            }
            if (errno == EINTR) continue;
            break;  // EAGAIN
          }
          const std::int64_t at = now_ns();
          std::size_t pos = 0;
          for (;;) {
            std::size_t consumed = 0;
            wire::Status status = wire::Status::kOk;
            std::uint64_t id = 0;
            std::string payload;
            const auto decoded = wire::decode_response(
                std::string_view(conn.in).substr(pos), consumed, status, id,
                payload);
            if (decoded == wire::DecodeResult::kNeedMore) break;
            if (decoded == wire::DecodeResult::kMalformed) {
              throw std::runtime_error("loadgen: malformed response frame");
            }
            pos += consumed;
            --conn.outstanding;
            on_response(status, id, payload, at);
          }
          conn.in.erase(0, pos);
        }
      }
    };

    while (next < total) {
      std::int64_t now = now_ns();
      while (next < total && due(next) <= now) {
        std::size_t pick = conns.size();
        for (std::size_t k = 0; k < conns.size(); ++k) {
          const std::size_t c = (rr + k) % conns.size();
          if (conns[c].outstanding < max_outstanding) {
            pick = c;
            break;
          }
        }
        if (pick == conns.size()) break;  // every connection full: stall
        rr = pick + 1;
        detail::Connection& conn = conns[pick];
        wire::encode_request(conn.out, next,
                             plan.pool[plan.sequence[cursor + next]]);
        ++conn.outstanding;
        ++outstanding;
        if (next >= warm) {
          lateness.push_back(static_cast<double>(now - due(next)) * 1e-3);
        }
        ++next;
      }
      // Write what was queued right away rather than after the next poll.
      for (auto& conn : conns) {
        if (conn.out_off < conn.out.size()) {
          const ssize_t n =
              ::send(conn.fd, conn.out.data() + conn.out_off,
                     conn.out.size() - conn.out_off, MSG_NOSIGNAL);
          if (n > 0) conn.out_off += static_cast<std::size_t>(n);
        }
      }
      now = now_ns();
      while (next_sample <= now && next >= warm) {
        backlog.push_back(outstanding);
        next_sample += 2000000;
      }
      // Sleep at least one 100 us quantum between send bursts: requests
      // that fall due meanwhile go out together (their lateness counts).
      // Fewer wakeups leave the cores to the server.
      const bool stalled = next < total && due(next) <= now;
      pump(stalled ? 200000
                   : (next < total ? std::max<std::int64_t>(due(next) - now,
                                                            100000)
                                   : 0));
    }
    // Drain what is still in flight (bounded).
    const std::int64_t drain_until = now_ns() + 3000000000LL;
    while (done < total && now_ns() < drain_until) pump(1000000);
    for (std::size_t i = warm; i < total; ++i) {
      if (!answered[i]) ++r.unanswered;
    }
    if (done < total) {
      // Unanswered requests would poison the next step's id space.
      throw std::runtime_error("loadgen: requests left unanswered");
    }
    r.failed = r.busy + r.mismatched + r.unanswered;
    r.completed_rps =
        static_cast<double>(measured - r.unanswered) * 1e9 /
        static_cast<double>(std::max<std::int64_t>(1, last_response - due(warm)));
    const auto per = std::max<std::size_t>(
        1, static_cast<std::size_t>(step.rate * kWindowSeconds));
    r.windows = std::max<std::size_t>(1, measured / per);
    r.p50_us = detail::windowed(latency, per, 0.50);
    r.p99_us = detail::windowed(latency, per, 0.99);
    r.late_p99_us = detail::percentile(lateness, 0.99);
    for (const std::size_t b : backlog) {
      r.backlog_max = std::max<std::uint64_t>(r.backlog_max, b);
    }
    if (backlog.size() >= 8) {
      const std::size_t q = backlog.size() / 4;
      double first = 0.0;
      double last = 0.0;
      for (std::size_t i = 0; i < q; ++i) {
        first += static_cast<double>(backlog[i]);
        last += static_cast<double>(backlog[backlog.size() - 1 - i]);
      }
      first /= static_cast<double>(q);
      last /= static_cast<double>(q);
      r.backlog_growing = last > 1.5 * first + 32.0;
    }
    std::vector<std::uint32_t> lines(
        plan.sequence.begin() + static_cast<std::ptrdiff_t>(cursor + warm),
        plan.sequence.begin() + static_cast<std::ptrdiff_t>(cursor + total));
    std::sort(lines.begin(), lines.end());
    r.distinct = static_cast<std::uint64_t>(
        std::unique(lines.begin(), lines.end()) - lines.begin());
    r.pass = r.failed == 0 && r.p99_us <= limit_us &&
             r.late_p99_us <= limit_us && !r.backlog_growing;
    results.push_back(r);
    cursor += total;
    // Ids restart at 0 for the next step; the server answers in order per
    // connection and everything is drained, so no id is ambiguous.
  }
  for (auto& c : conns) ::close(c.fd);
  return results;
}

}  // namespace gsb::perf

#endif  // GSB_PERFBENCH_LOADGEN_H
