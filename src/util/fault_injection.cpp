#include "util/fault_injection.h"

#include <cstdlib>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <vector>

#include "obs/metrics.h"

namespace gsb::fault {

namespace detail {
std::atomic<bool> g_enabled{false};
}  // namespace detail

namespace {

/// One install(): its schedule, never written after publication, and its
/// own call counters, so a new install starts every op at call 1 without
/// writing anything a concurrent decide() may be reading.
struct Installation {
  Schedule schedule;
  std::array<std::atomic<std::uint64_t>, kNumOps> calls{};
  std::atomic<std::uint64_t> injected{0};
};

/// The current installation, stored with release after it is complete and
/// loaded with acquire.  Every installation stays alive until exit: a
/// decide() that loaded the previous one may still be reading it.
std::atomic<Installation*> g_current{nullptr};
std::mutex g_installations_mutex;
std::vector<std::unique_ptr<Installation>> g_installations;

constexpr std::array<const char*, kNumOps> kOpNames{
    "read", "write", "send",  "recv",   "accept",
    "connect", "open", "fsync", "rename", "mmap"};

/// splitmix64: decision randomness is a pure hash of (seed, op, call),
/// so a schedule replays identically regardless of thread interleaving
/// within each op's call sequence.
std::uint64_t mix(std::uint64_t x) noexcept {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

double uniform(std::uint64_t bits) noexcept {
  return static_cast<double>(bits >> 11) * 0x1.0p-53;
}

const obs::Counter& injected_counter() {
  static const obs::Counter counter = obs::MetricsRegistry::global().counter(
      "gsb_faults_injected_total",
      "Faults injected by the deterministic fault-injection shim.");
  return counter;
}

int errno_from_name(const std::string& name) {
  if (name == "EIO") return EIO;
  if (name == "ENOSPC") return ENOSPC;
  if (name == "ECONNRESET") return ECONNRESET;
  if (name == "EPIPE") return EPIPE;
  if (name == "EAGAIN") return EAGAIN;
  if (name == "ETIMEDOUT") return ETIMEDOUT;
  if (name == "EACCES") return EACCES;
  if (name == "EMFILE") return EMFILE;
  throw std::runtime_error("fault schedule: unknown errno name '" + name +
                           "'");
}

double parse_probability(const std::string& clause, const std::string& text) {
  std::size_t used = 0;
  double p = 0.0;
  try {
    p = std::stod(text, &used);
  } catch (const std::exception&) {
    used = 0;
  }
  if (used != text.size() || p < 0.0 || p >= 1.0) {
    throw std::runtime_error("fault schedule: probability in '" + clause +
                             "' must be a number in [0, 1)");
  }
  return p;
}

std::vector<std::string> split(const std::string& text, char sep) {
  std::vector<std::string> parts;
  std::size_t begin = 0;
  while (begin <= text.size()) {
    const auto end = text.find(sep, begin);
    if (end == std::string::npos) {
      parts.push_back(text.substr(begin));
      break;
    }
    parts.push_back(text.substr(begin, end - begin));
    begin = end + 1;
  }
  return parts;
}

}  // namespace

const char* op_name(Op op) noexcept {
  return kOpNames[static_cast<unsigned>(op)];
}

std::optional<Op> op_from_name(std::string_view name) noexcept {
  for (std::size_t i = 0; i < kNumOps; ++i) {
    if (name == kOpNames[i]) return static_cast<Op>(i);
  }
  return std::nullopt;
}

Schedule parse_schedule(const std::string& text) {
  Schedule schedule;
  for (const auto& clause : split(text, ';')) {
    if (clause.empty()) continue;
    const auto eq = clause.find('=');
    if (eq == std::string::npos) {
      throw std::runtime_error("fault schedule: clause '" + clause +
                               "' has no '='");
    }
    const std::string key = clause.substr(0, eq);
    const std::string value = clause.substr(eq + 1);
    if (key == "seed") {
      try {
        schedule.seed = std::stoull(value);
      } catch (const std::exception&) {
        throw std::runtime_error("fault schedule: bad seed '" + value + "'");
      }
      continue;
    }
    const auto dot = key.find('.');
    if (dot == std::string::npos) {
      throw std::runtime_error("fault schedule: unknown clause '" + clause +
                               "' (want <op>.<mode>=...)");
    }
    const auto op = op_from_name(key.substr(0, dot));
    if (!op) {
      throw std::runtime_error("fault schedule: unknown op '" +
                               key.substr(0, dot) + "'");
    }
    OpSchedule& entry = schedule.ops[static_cast<unsigned>(*op)];
    const std::string mode = key.substr(dot + 1);
    if (mode == "eintr") {
      entry.eintr = parse_probability(clause, value);
    } else if (mode == "short") {
      entry.short_io = parse_probability(clause, value);
    } else if (mode == "error") {
      // ERRNO:P — a named errno at a probability.
      const auto colon = value.find(':');
      if (colon == std::string::npos) {
        throw std::runtime_error("fault schedule: '" + clause +
                                 "' wants ERRNO:probability");
      }
      entry.error_errno = errno_from_name(value.substr(0, colon));
      entry.error = parse_probability(clause, value.substr(colon + 1));
    } else if (mode == "fail_after") {
      // N:ERRNO — fail the Nth call, once.
      const auto colon = value.find(':');
      const std::string count =
          colon == std::string::npos ? value : value.substr(0, colon);
      try {
        entry.fail_after = std::stoull(count);
      } catch (const std::exception&) {
        entry.fail_after = 0;
      }
      if (entry.fail_after == 0) {
        throw std::runtime_error("fault schedule: '" + clause +
                                 "' wants a positive call number");
      }
      if (colon != std::string::npos) {
        entry.fail_errno = errno_from_name(value.substr(colon + 1));
      }
    } else {
      throw std::runtime_error("fault schedule: unknown mode '" + mode +
                               "' in '" + clause + "'");
    }
  }
  return schedule;
}

Decision decide(Op op, std::size_t requested) noexcept {
  Decision decision;
  // enabled() is a relaxed load, so a thread may see the shim enabled
  // before it sees the first installation.
  Installation* current = g_current.load(std::memory_order_acquire);
  if (current == nullptr) return decision;
  const Schedule& schedule = current->schedule;
  const auto index = static_cast<unsigned>(op);
  const std::uint64_t call =
      current->calls[index].fetch_add(1, std::memory_order_relaxed) + 1;
  const OpSchedule& entry = schedule.ops[index];

  if (entry.fail_after != 0 && call == entry.fail_after) {
    decision.kind = Decision::Kind::kError;
    decision.injected_errno = entry.fail_errno;
  } else {
    const double roll =
        uniform(mix(schedule.seed ^ (0x1000003ULL * (index + 1)) ^
                    (call * 0x9e3779b97f4a7c15ULL)));
    if (roll < entry.error) {
      decision.kind = Decision::Kind::kError;
      decision.injected_errno = entry.error_errno;
    } else if (roll < entry.error + entry.eintr) {
      decision.kind = Decision::Kind::kEintr;
      decision.injected_errno = EINTR;
    } else if (requested > 1 &&
               roll < entry.error + entry.eintr + entry.short_io) {
      decision.kind = Decision::Kind::kShort;
      decision.count =
          1 + static_cast<std::size_t>(
                  mix(schedule.seed ^ call ^ 0xdecafULL) % (requested - 1));
    }
  }
  if (decision.kind != Decision::Kind::kNone) {
    current->injected.fetch_add(1, std::memory_order_relaxed);
    injected_counter().inc();
  }
  return decision;
}

void install(const Schedule& schedule) {
  auto installation = std::make_unique<Installation>();
  installation->schedule = schedule;
  Installation* published = installation.get();
  {
    std::lock_guard<std::mutex> lock(g_installations_mutex);
    g_installations.push_back(std::move(installation));
  }
  g_current.store(published, std::memory_order_release);
  detail::g_enabled.store(true, std::memory_order_release);
}

void disable() noexcept {
  detail::g_enabled.store(false, std::memory_order_relaxed);
}

std::uint64_t injected_total() noexcept {
  const Installation* current = g_current.load(std::memory_order_acquire);
  return current == nullptr ? 0
                            : current->injected.load(std::memory_order_relaxed);
}

bool install_from_env() {
  const char* text = std::getenv("GSB_FAULT_SCHEDULE");
  if (text == nullptr || *text == '\0') return false;
  install(parse_schedule(text));
  return true;
}

}  // namespace gsb::fault
