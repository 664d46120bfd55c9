#include "service/client.h"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <iostream>
#include <stdexcept>
#include <thread>
#include <utility>

#include <cstring>

#include <fcntl.h>
#include <netdb.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include "obs/metrics.h"
#include "util/io.h"

#ifndef MSG_NOSIGNAL
#define MSG_NOSIGNAL 0  // macOS: SO_NOSIGPIPE is set on the socket instead
#endif

namespace gsb::service {

namespace {

constexpr std::size_t kIoChunk = 64 * 1024;

void set_nonblocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags >= 0) ::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
}

void set_nosigpipe(int fd) {
#ifdef SO_NOSIGPIPE
  const int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_NOSIGPIPE, &one, sizeof(one));
#else
  (void)fd;
#endif
}

}  // namespace

ServiceClient ServiceClient::connect_tcp(const std::string& host_port,
                                         std::size_t connect_timeout_ms) {
  const auto colon = host_port.rfind(':');
  if (colon == std::string::npos || colon + 1 == host_port.size()) {
    throw std::runtime_error("client: expected HOST:PORT, got '" +
                             host_port + "'");
  }
  const std::string host = host_port.substr(0, colon);
  const std::string service = host_port.substr(colon + 1);

  addrinfo hints{};
  hints.ai_family = AF_UNSPEC;
  hints.ai_socktype = SOCK_STREAM;
  hints.ai_flags = AI_NUMERICSERV;
  addrinfo* found = nullptr;
  const int rc = ::getaddrinfo(host.empty() ? "127.0.0.1" : host.c_str(),
                               service.c_str(), &hints, &found);
  if (rc != 0) {
    throw std::runtime_error("client: cannot resolve '" + host_port +
                             "': " + gai_strerror(rc));
  }
  int fd = -1;
  std::string error = "no usable address";
  for (const addrinfo* ai = found; ai != nullptr; ai = ai->ai_next) {
    fd = ::socket(ai->ai_family, ai->ai_socktype, ai->ai_protocol);
    if (fd < 0) {
      error = "socket() failed";
      continue;
    }
    if (util::io::connect_with_timeout(fd, ai->ai_addr, ai->ai_addrlen,
                                       connect_timeout_ms) == 0) {
      break;
    }
    error = std::strerror(errno);
    ::close(fd);
    fd = -1;
  }
  ::freeaddrinfo(found);
  if (fd < 0) {
    throw std::runtime_error("client: cannot connect to '" + host_port +
                             "': " + error);
  }
  set_nosigpipe(fd);
  set_nonblocking(fd);
  return ServiceClient(fd);
}

ServiceClient ServiceClient::connect_unix(const std::string& socket_path,
                                          std::size_t connect_timeout_ms) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (socket_path.size() >= sizeof(addr.sun_path)) {
    throw std::runtime_error("client: socket path too long: " + socket_path);
  }
  std::memcpy(addr.sun_path, socket_path.c_str(), socket_path.size() + 1);
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) throw std::runtime_error("client: socket() failed");
  if (util::io::connect_with_timeout(
          fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr),
          connect_timeout_ms) != 0) {
    const std::string error = std::strerror(errno);
    ::close(fd);
    throw std::runtime_error("client: cannot connect to '" + socket_path +
                             "': " + error);
  }
  set_nosigpipe(fd);
  set_nonblocking(fd);
  return ServiceClient(fd);
}

ServiceClient::ServiceClient(ServiceClient&& other) noexcept
    : fd_(std::exchange(other.fd_, -1)), out_(std::move(other.out_)),
      in_(std::move(other.in_)), next_id_(other.next_id_),
      io_timeout_ms_(other.io_timeout_ms_) {}

ServiceClient& ServiceClient::operator=(ServiceClient&& other) noexcept {
  if (this != &other) {
    close();
    fd_ = std::exchange(other.fd_, -1);
    out_ = std::move(other.out_);
    in_ = std::move(other.in_);
    next_id_ = other.next_id_;
    io_timeout_ms_ = other.io_timeout_ms_;
  }
  return *this;
}

ServiceClient::~ServiceClient() { close(); }

void ServiceClient::close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

void ServiceClient::finish_sending() {
  flush();
  if (fd_ >= 0) ::shutdown(fd_, SHUT_WR);
}

/// Drives the socket until \p done (which may consume from in_) returns
/// true: sends pending bytes and receives available bytes, interleaved
/// through poll so neither direction can wedge the other.
template <typename DonePredicate>
void ServiceClient::transfer(const DonePredicate& done) {
  if (fd_ < 0) throw std::runtime_error("client: connection is closed");
  const int poll_ms =
      io_timeout_ms_ == 0 ? -1 : static_cast<int>(io_timeout_ms_);
  while (!done()) {
    pollfd poller{};
    poller.fd = fd_;
    poller.events = POLLIN;
    if (!out_.empty()) poller.events |= POLLOUT;
    const int ready = ::poll(&poller, 1, poll_ms);
    if (ready < 0) {
      if (errno == EINTR) continue;
      throw std::runtime_error("client: poll failed");
    }
    if (ready == 0) {
      throw std::runtime_error("client: I/O timed out after " +
                               std::to_string(io_timeout_ms_) + "ms");
    }
    if (!out_.empty() && (poller.revents & POLLOUT) != 0) {
      const std::size_t chunk = std::min(out_.size(), kIoChunk);
      const ssize_t n =
          util::io::send_some(fd_, out_.data(), chunk, MSG_NOSIGNAL);
      if (n < 0) {
        if (errno != EAGAIN && errno != EWOULDBLOCK) {
          throw std::runtime_error("client: connection lost while sending");
        }
      } else {
        out_.erase(0, static_cast<std::size_t>(n));
      }
    }
    if ((poller.revents & (POLLIN | POLLHUP | POLLERR)) != 0) {
      char buf[kIoChunk];
      const ssize_t n = util::io::recv_some(fd_, buf, sizeof(buf), 0);
      if (n < 0) {
        if (errno != EAGAIN && errno != EWOULDBLOCK) {
          throw std::runtime_error("client: connection lost while receiving");
        }
      } else if (n == 0) {
        if (done()) return;
        throw std::runtime_error(
            "client: server closed the connection mid-response");
      } else {
        in_.append(buf, static_cast<std::size_t>(n));
      }
    }
  }
}

// --- line protocol ----------------------------------------------------------

std::string ServiceClient::request(const std::string& line) {
  return request_pipelined({line}).front();
}

std::vector<std::string> ServiceClient::request_pipelined(
    const std::vector<std::string>& lines) {
  std::vector<std::string> responses;
  responses.reserve(lines.size());
  request_pipelined_into(lines, 0, responses);
  return responses;
}

void ServiceClient::request_pipelined_into(
    const std::vector<std::string>& lines, std::size_t from,
    std::vector<std::string>& responses) {
  for (std::size_t i = from; i < lines.size(); ++i) {
    out_.append(lines[i]);
    out_.push_back('\n');
  }
  transfer([&] {
    std::size_t start = 0;
    for (std::size_t nl = in_.find('\n');
         nl != std::string::npos && responses.size() < lines.size();
         nl = in_.find('\n', start)) {
      responses.push_back(in_.substr(start, nl - start));
      start = nl + 1;
    }
    if (start > 0) in_.erase(0, start);
    return responses.size() == lines.size();
  });
}

// --- binary protocol --------------------------------------------------------

std::uint64_t ServiceClient::send(const std::string& payload) {
  const std::uint64_t id = next_id_++;
  send(id, payload);
  return id;
}

void ServiceClient::send(std::uint64_t id, const std::string& payload) {
  wire::encode_request(out_, id, payload);
}

void ServiceClient::flush() {
  transfer([&] { return out_.empty(); });
}

ServiceClient::BinaryResponse ServiceClient::receive() {
  BinaryResponse response;
  bool have = false;
  transfer([&] {
    if (have) return true;
    std::size_t consumed = 0;
    const auto result = wire::decode_response(
        in_, consumed, response.status, response.id, response.payload);
    if (result == wire::DecodeResult::kMalformed) {
      throw std::runtime_error("client: malformed response frame");
    }
    if (result == wire::DecodeResult::kFrame) {
      in_.erase(0, consumed);
      have = true;
    }
    return have;
  });
  return response;
}

std::vector<ServiceClient::BinaryResponse> ServiceClient::call_pipelined(
    const std::vector<std::string>& payloads) {
  for (const std::string& payload : payloads) send(payload);
  std::vector<BinaryResponse> responses;
  responses.reserve(payloads.size());
  transfer([&] {
    while (responses.size() < payloads.size()) {
      BinaryResponse response;
      std::size_t consumed = 0;
      const auto result = wire::decode_response(
          in_, consumed, response.status, response.id, response.payload);
      if (result == wire::DecodeResult::kMalformed) {
        throw std::runtime_error("client: malformed response frame");
      }
      if (result == wire::DecodeResult::kNeedMore) break;
      in_.erase(0, consumed);
      responses.push_back(std::move(response));
    }
    return responses.size() == payloads.size();
  });
  return responses;
}

// --- RetryingClient ---------------------------------------------------------
//
// Platform-independent: built entirely on the public ServiceClient API,
// so on platforms without sockets it fails the same way ServiceClient
// does (after exhausting its retry budget).

namespace {

std::uint64_t mix64(std::uint64_t x) noexcept {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

obs::Counter& retry_counter() {
  static obs::Counter counter = obs::MetricsRegistry::global().counter(
      "gsb_retries_total", "Client reconnect-and-replay retries.");
  return counter;
}

}  // namespace

RetryingClient::RetryingClient(std::string target, bool unix_socket,
                               RetryPolicy policy)
    : target_(std::move(target)), unix_socket_(unix_socket), policy_(policy),
      rng_(policy.seed) {}

void RetryingClient::close() { client_.reset(); }

ServiceClient& RetryingClient::ensure_connected() {
  if (!client_ || !client_->is_open()) {
    client_.emplace(unix_socket_
                        ? ServiceClient::connect_unix(target_,
                                                      policy_.timeout_ms)
                        : ServiceClient::connect_tcp(target_,
                                                     policy_.timeout_ms));
    client_->set_io_timeout(policy_.timeout_ms);
  }
  return *client_;
}

std::size_t RetryingClient::backoff_ms(std::size_t attempt) {
  if (policy_.base_backoff_ms == 0) return 0;
  const std::size_t shift = std::min<std::size_t>(attempt - 1, 20);
  const std::uint64_t nominal =
      std::min<std::uint64_t>(policy_.base_backoff_ms << shift,
                              policy_.max_backoff_ms);
  rng_ = mix64(rng_);
  const double scale =
      0.5 + 0.5 * (static_cast<double>(rng_ >> 11) * 0x1.0p-53);
  return static_cast<std::size_t>(static_cast<double>(nominal) * scale);
}

std::string RetryingClient::request(const std::string& line) {
  return request_pipelined({line}).front();
}

std::vector<std::string> RetryingClient::request_pipelined(
    const std::vector<std::string>& lines) {
  std::vector<std::string> responses;
  responses.reserve(lines.size());
  std::size_t attempt = 0;
  for (;;) {
    try {
      ensure_connected().request_pipelined_into(lines, responses.size(),
                                                responses);
      return responses;
    } catch (const std::runtime_error& error) {
      client_.reset();  // the connection is in an unknown state: drop it
      if (attempt >= policy_.retries) throw;
      ++attempt;
      ++reconnects_;
      retry_counter().inc();
      const std::size_t delay = backoff_ms(attempt);
      std::cerr << "client: reconnect " << attempt << "/" << policy_.retries
                << " to '" << target_ << "' after error: " << error.what()
                << " (" << (lines.size() - responses.size())
                << " request(s) to replay, backoff " << delay << "ms)\n";
      if (delay > 0) {
        std::this_thread::sleep_for(std::chrono::milliseconds(delay));
      }
    }
  }
}

}  // namespace gsb::service
