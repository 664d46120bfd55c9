#ifndef GSB_OBS_TRACE_H
#define GSB_OBS_TRACE_H

/// Lightweight per-request tracing for the serving layer.
///
/// A transport opens a `TraceScope` around a request; inner layers (the
/// batch executor, the query engine) attribute time to spans through the
/// thread-local active trace without any signature changes.  Completed
/// traces go to the `Tracer`, which retains the slowest-N in a bounded
/// buffer and optionally logs a span breakdown for requests over the
/// `--slow-query-log` threshold.  When the tracer is disabled (the
/// default) a TraceScope is a branch and a SpanTimer is a thread-local
/// load — instrumented paths cost nothing in untraced runs.

#include <array>
#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "util/timer.h"

namespace gsb::obs {

enum class Span : unsigned {
  kQueueWait = 0,  ///< dispatch to worker pickup (socket loop)
  kParse,          ///< query text -> typed Query
  kCacheLookup,    ///< result-cache probe (and insert on miss)
  kExecute,        ///< engine execution
  kNumSpans
};
inline constexpr std::size_t kNumSpans =
    static_cast<std::size_t>(Span::kNumSpans);

const char* span_name(Span span) noexcept;

struct Trace {
  std::string request;  ///< truncated to kMaxRequestChars
  const char* transport = "";
  std::array<std::uint64_t, kNumSpans> span_micros{};
  std::uint64_t total_micros = 0;

  static constexpr std::size_t kMaxRequestChars = 160;
};

class Tracer {
 public:
  static Tracer& global();

  void set_enabled(bool enabled) noexcept {
    enabled_.store(enabled, std::memory_order_relaxed);
  }
  bool enabled() const noexcept {
    return enabled_.load(std::memory_order_relaxed);
  }

  /// Requests at or above this total are logged with a span breakdown
  /// through util::log_warn; 0 disables slow logging.
  void set_slow_log_micros(std::uint64_t micros) noexcept {
    slow_log_micros_.store(micros, std::memory_order_relaxed);
  }

  /// Maximum number of slowest traces retained (default 32).
  void set_capacity(std::size_t capacity);

  void complete(Trace trace);

  /// Retained traces, slowest first.
  std::vector<Trace> slowest() const;

  std::uint64_t slow_logged() const noexcept {
    return slow_logged_.load(std::memory_order_relaxed);
  }
  std::size_t retained() const;

  void clear();

 private:
  mutable std::mutex mutex_;
  std::vector<Trace> heap_;  ///< min-heap on total_micros
  std::size_t capacity_ = 32;
  std::atomic<bool> enabled_{false};
  std::atomic<std::uint64_t> slow_log_micros_{0};
  std::atomic<std::uint64_t> slow_logged_{0};
};

/// The trace the current thread is filling in, or nullptr.
Trace* active_trace() noexcept;

/// RAII request scope: when the tracer is enabled, activates a trace for
/// the current thread and hands it to the tracer on destruction with
/// `total = pre-spans + elapsed` (pre-spans are externally measured time
/// such as queue wait, added via add_pre_span before the work runs).
class TraceScope {
 public:
  TraceScope(Tracer& tracer, const char* transport,
             const std::string& request);
  TraceScope(const TraceScope&) = delete;
  TraceScope& operator=(const TraceScope&) = delete;
  ~TraceScope();

  bool active() const noexcept { return active_; }

  /// Attributes time spent before this scope existed (e.g. queue wait);
  /// counted into both the span and the total.
  void add_pre_span(Span span, std::uint64_t micros) noexcept;

 private:
  Tracer* tracer_ = nullptr;
  Trace trace_;
  Trace* previous_ = nullptr;
  bool active_ = false;
  std::uint64_t pre_micros_ = 0;
  util::Timer timer_;
};

/// Accumulates elapsed time into one span of the active trace; inert when
/// no trace is active.
class SpanTimer {
 public:
  explicit SpanTimer(Span span) noexcept
      : trace_(active_trace()), span_(span) {}
  SpanTimer(const SpanTimer&) = delete;
  SpanTimer& operator=(const SpanTimer&) = delete;
  ~SpanTimer() {
    if (trace_ != nullptr) {
      trace_->span_micros[static_cast<std::size_t>(span_)] +=
          static_cast<std::uint64_t>(timer_.micros());
    }
  }

 private:
  Trace* trace_;
  Span span_;
  util::Timer timer_;
};

}  // namespace gsb::obs

#endif  // GSB_OBS_TRACE_H
