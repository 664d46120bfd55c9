#ifndef GSB_OBS_TIMELINE_H
#define GSB_OBS_TIMELINE_H

/// Execution timeline journal: per-thread buffers of fixed-size typed
/// events (job spans, queue waits, steals, pipeline stages, request
/// lifecycles, I/O spans, cache hits/misses) stamped with a monotonic
/// clock, drained into a Chrome trace (obs/timeline_export.h) that opens
/// in Perfetto or chrome://tracing.
///
/// Same cost model as MetricsRegistry: the journal is off by default and
/// a record() on the disabled path is one relaxed atomic load plus a
/// branch.  When enabled, each recording thread appends into its own
/// fixed-capacity event buffer owned by the journal — no locks, no
/// allocation, no cross-thread stores on the hot path.  A full buffer
/// drops the new event and bumps a counter (exported as
/// `gsb_timeline_events_dropped_total`); memory stays bounded at
/// capacity * threads events per capture window.
///
/// Recording never changes what instrumented code computes or emits:
/// artifacts and wire responses are byte-identical with the timeline on
/// or off (pinned by scheduler_test and the serve-path tests).
///
/// Served requests run inside a RequestScope.  With request traces on
/// (`gsb serve --metrics`), every TimelineSpan that closes on the
/// request's thread adds its duration to the request's breakdown, and the
/// closed scope feeds the journal's RequestLog: the slowest-N buffer and
/// the `--slow-query-log` line.  Spans are the one instrumentation API;
/// with recording and request traces both off a span site is one relaxed
/// load and a branch.

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace gsb::obs {

enum class TimelineEventKind : std::uint8_t {
  kJob,        ///< scheduler job body (id = JobId, label from JobSpec)
  kQueueWait,  ///< job ready -> claimed by a worker
  kSteal,      ///< instant: a worker claimed a job homed elsewhere
  kStage,      ///< engine/pipeline stage span (e.g. query execute)
  kRequest,    ///< serve-path request lifecycle
  kIo,         ///< syscall span (separately gated, see set_io_spans_enabled)
  kCacheHit,   ///< instant: result cache hit
  kCacheMiss,  ///< instant: result cache miss
};

/// Stable lowercase name for a kind (trace `cat` field, tests).
const char* timeline_event_kind_name(TimelineEventKind kind) noexcept;

/// One journal entry.  Fixed 64-byte layout: no allocation on record,
/// labels truncate at kLabelChars.
struct TimelineEvent {
  static constexpr std::size_t kLabelChars = 34;

  std::uint64_t start_micros = 0;  ///< monotonic, since the journal epoch
  std::uint64_t dur_micros = 0;    ///< 0 for instant events
  std::uint64_t id = 0;            ///< JobId / request sequence / byte count
  std::uint32_t tid = 0;           ///< dense lane index, one per thread
  TimelineEventKind kind = TimelineEventKind::kJob;
  char label[kLabelChars + 1] = {};  ///< NUL-terminated, truncated
};
static_assert(sizeof(TimelineEvent) == 64);

struct TimelineLane {
  std::uint32_t tid = 0;
  std::string name;  ///< "worker-3", "tcp-worker-0", ... ; may be empty
};

/// Merged view of one capture window, sorted by start time.
struct TimelineSnapshot {
  std::vector<TimelineEvent> events;
  std::vector<TimelineLane> lanes;  ///< lanes that recorded this window
  std::uint64_t dropped = 0;        ///< events lost to full buffers
};

/// One served request as the slowest-N buffer keeps it.  The breakdown
/// sums the spans closed on the request's thread while its scope was
/// open, keyed by label up to the first ':' (`execute:degree` counts as
/// `execute`), in the order each key first closed.
struct RequestTrace {
  static constexpr std::size_t kMaxRequestChars = 160;
  static constexpr std::size_t kMaxSpans = 6;  ///< later keys are dropped

  struct Span {
    char key[16] = {};  ///< NUL-terminated, truncated
    std::uint64_t micros = 0;
  };

  std::string request;  ///< truncated to kMaxRequestChars
  const char* transport = "";  ///< a string literal ("tcp", "stream", ...)
  std::uint64_t total_micros = 0;  ///< queue wait + time inside the scope
  std::array<Span, kMaxSpans> spans{};
  std::size_t span_count = 0;

  /// Adds \p micros to the total of \p label's key.
  void add_span(std::string_view label, std::uint64_t micros) noexcept;
};

/// Where closed request scopes land: the slowest kCapacity traces and the
/// slow-query log.  Thread-safe.
class RequestLog {
 public:
  static constexpr std::size_t kCapacity = 32;

  /// Requests at or above this total are logged with their breakdown
  /// through util::log_warn; 0 disables slow logging.
  void set_slow_log_micros(std::uint64_t micros) noexcept {
    slow_log_micros_.store(micros, std::memory_order_relaxed);
  }

  void complete(RequestTrace trace);

  /// Retained traces, slowest first.
  std::vector<RequestTrace> slowest() const;

  std::uint64_t slow_logged() const noexcept {
    return slow_logged_.load(std::memory_order_relaxed);
  }
  std::size_t retained() const;

  void clear();

 private:
  mutable std::mutex mutex_;
  std::vector<RequestTrace> slowest_;  ///< slowest first, <= kCapacity
  std::atomic<std::uint64_t> slow_log_micros_{0};
  std::atomic<std::uint64_t> slow_logged_{0};
};

class TimelineJournal {
 public:
  /// Default per-thread buffer capacity in events (1 MiB per lane): a
  /// one-thread build's job events and its stage spans fit one lane.
  static constexpr std::size_t kDefaultCapacity = 16384;

  TimelineJournal();
  ~TimelineJournal();
  TimelineJournal(const TimelineJournal&) = delete;
  TimelineJournal& operator=(const TimelineJournal&) = delete;

  /// The process-wide journal every instrumented layer records to.
  static TimelineJournal& global();

  void set_enabled(bool enabled) noexcept { set_flag(kRecording, enabled); }
  bool enabled() const noexcept { return (flags() & kRecording) != 0; }

  /// Syscall spans (util::io) are gated separately so per-read events
  /// don't swamp the buffers; both gates must be on for kIo events.
  void set_io_spans_enabled(bool enabled) noexcept {
    set_flag(kTraceIo, enabled);
  }
  bool io_spans_enabled() const noexcept {
    return (flags() & (kRecording | kTraceIo)) == (kRecording | kTraceIo);
  }

  /// Request traces: each RequestScope collects its span breakdown and
  /// hands it to requests() on close.  Independent of recording.
  void set_request_traces_enabled(bool enabled) noexcept {
    set_flag(kRequestTraces, enabled);
  }
  bool request_traces_enabled() const noexcept {
    return (flags() & kRequestTraces) != 0;
  }

  /// The one gate every span and request scope passes: false while
  /// recording and request traces are both off.
  bool spans_armed() const noexcept {
    return (flags() & (kRecording | kRequestTraces)) != 0;
  }

  RequestLog& requests() noexcept { return requests_; }
  const RequestLog& requests() const noexcept { return requests_; }

  /// Per-thread buffer capacity for lanes registered after the call
  /// (existing lanes keep their size).  Tests use a deliberately tiny
  /// capacity to pin the drop accounting.
  void set_capacity(std::size_t events) noexcept {
    capacity_.store(events == 0 ? 1 : events, std::memory_order_relaxed);
  }

  /// Microseconds since the journal's monotonic epoch.
  std::uint64_t now_micros() const noexcept;

  /// Names the calling thread's lane in exported traces ("worker-0",
  /// "tcp-worker-2", ...).  Idempotent; safe before or after recording.
  void set_thread_lane(std::string_view name);

  /// Appends one event to the calling thread's buffer.  No-op while
  /// disabled; drops (and counts) when the buffer is full.
  void record(TimelineEventKind kind, std::uint64_t start_micros,
              std::uint64_t dur_micros, std::uint64_t id,
              std::string_view label) noexcept;

  /// Instant event stamped "now" with zero duration.
  void record_instant(TimelineEventKind kind, std::uint64_t id,
                      std::string_view label) noexcept {
    if (!enabled()) return;
    record(kind, now_micros(), 0, id, label);
  }

  std::uint64_t events_dropped() const noexcept {
    return dropped_.load(std::memory_order_relaxed);
  }

  /// Merged copy of the current capture window, events sorted by start
  /// time.  Safe against concurrent recording: a racing append may or
  /// may not be included, never torn.
  TimelineSnapshot snapshot() const;

  /// Starts a new capture window: previously recorded events are
  /// discarded lazily (each lane resets on its next record) and the drop
  /// counter zeroes.  Buffers stay allocated.
  void reset() noexcept;

 private:
  struct Lane;

  static constexpr std::uint8_t kRecording = 1;
  static constexpr std::uint8_t kTraceIo = 2;
  static constexpr std::uint8_t kRequestTraces = 4;

  std::uint8_t flags() const noexcept {
    return flags_.load(std::memory_order_relaxed);
  }
  void set_flag(std::uint8_t flag, bool on) noexcept {
    if (on) {
      flags_.fetch_or(flag, std::memory_order_relaxed);
    } else {
      flags_.fetch_and(static_cast<std::uint8_t>(~flag),
                       std::memory_order_relaxed);
    }
  }

  Lane& local_lane();

  const std::uint64_t id_;  ///< process-unique, never reused
  std::atomic<std::uint8_t> flags_{0};
  std::atomic<std::size_t> capacity_{kDefaultCapacity};
  std::atomic<std::uint64_t> dropped_{0};
  /// Capture-window generation; bumped by reset().  Lanes carrying an
  /// older generation are logically empty.
  std::atomic<std::uint64_t> generation_{1};

  mutable std::mutex mutex_;
  std::vector<std::unique_ptr<Lane>> lanes_;
  RequestLog requests_;
};

/// RAII span: stamps `now` on construction; on destruction records one
/// complete event (when the journal records) and adds its duration to
/// the request open on this thread (when request traces are on), so a
/// span opened inside a RequestScope must close before the scope does.
/// Costs one relaxed load while both are off.  A kIo span records only
/// when io_spans_enabled(), and joins no request's breakdown.
class TimelineSpan {
 public:
  TimelineSpan(TimelineEventKind kind, std::string_view label,
               std::uint64_t id = 0) noexcept
      : TimelineSpan(TimelineJournal::global(), kind, label, id) {}

  TimelineSpan(TimelineJournal& journal, TimelineEventKind kind,
               std::string_view label, std::uint64_t id = 0) noexcept {
    if (kind == TimelineEventKind::kIo ? journal.io_spans_enabled()
                                       : journal.spans_armed()) {
      open(journal, kind, label, id);
    }
  }

  TimelineSpan(const TimelineSpan&) = delete;
  TimelineSpan& operator=(const TimelineSpan&) = delete;

  ~TimelineSpan() {
    if (journal_ != nullptr) close();
  }

 private:
  void open(TimelineJournal& journal, TimelineEventKind kind,
            std::string_view label, std::uint64_t id) noexcept;
  void close() noexcept;

  TimelineJournal* journal_ = nullptr;  ///< set only while the span is live
  RequestTrace* request_ = nullptr;     ///< the request open at construction
  TimelineEventKind kind_ = TimelineEventKind::kStage;
  std::uint64_t id_ = 0;
  std::uint64_t start_ = 0;
  char label_[TimelineEvent::kLabelChars + 1] = {};
};

/// RAII scope around one served request (service::execute_request).  When
/// the journal records, it records the request's `queue_wait` (measured
/// from \p dispatched, when given) and `request` events, both carrying
/// \p id.  With request traces on, it collects the breakdown of the spans
/// closed on this thread while it is open, plus the queue wait, and hands
/// the trace to journal.requests() on close.
class RequestScope {
 public:
  using Clock = std::chrono::steady_clock;

  RequestScope(TimelineJournal& journal, const char* transport,
               std::string_view request, std::uint64_t id = 0,
               std::optional<Clock::time_point> dispatched = std::nullopt) {
    if (journal.spans_armed()) {
      open(journal, transport, request, id, dispatched);
    }
  }

  RequestScope(const RequestScope&) = delete;
  RequestScope& operator=(const RequestScope&) = delete;

  ~RequestScope() {
    if (journal_ != nullptr) close();
  }

 private:
  void open(TimelineJournal& journal, const char* transport,
            std::string_view request, std::uint64_t id,
            std::optional<Clock::time_point> dispatched);
  void close();

  TimelineJournal* journal_ = nullptr;  ///< set only while the scope is live
  std::optional<RequestTrace> trace_;   ///< engaged with request traces on
  RequestTrace* previous_ = nullptr;    ///< the enclosing request, if any
  std::uint64_t id_ = 0;
  std::uint64_t start_ = 0;
  std::uint64_t waited_ = 0;
  char label_[TimelineEvent::kLabelChars + 1] = {};
};

}  // namespace gsb::obs

#endif  // GSB_OBS_TIMELINE_H
