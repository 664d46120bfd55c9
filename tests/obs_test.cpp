// Tests for the observability subsystem: sharded metrics registry,
// latency histograms, request scopes and the slowest-N log, the timeline
// journal, and the exposition formats.

#include <gtest/gtest.h>

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <filesystem>
#include <map>
#include <optional>
#include <regex>
#include <sstream>
#include <string>
#include <thread>
#include <tuple>
#include <utility>
#include <vector>

#include "obs/exposition.h"
#include "obs/metrics.h"
#include "obs/timeline.h"
#include "obs/timeline_export.h"
#include "util/io.h"

namespace gsb::obs {
namespace {

/// A registry of its own per test: the global registry is shared process
/// state and other suites may be incrementing it.
class ObsRegistryTest : public ::testing::Test {
 protected:
  ObsRegistryTest() { registry_.set_enabled(true); }
  MetricsRegistry registry_;
};

std::uint64_t find_value(const RegistrySnapshot& snapshot,
                         const std::string& name,
                         const std::string& labels = {}) {
  for (const MetricSnapshot& metric : snapshot.metrics) {
    if (metric.name == name && metric.labels == labels) return metric.value;
  }
  ADD_FAILURE() << "metric not found: " << name << " {" << labels << "}";
  return 0;
}

const MetricSnapshot* find_metric(const RegistrySnapshot& snapshot,
                                  const std::string& name,
                                  const std::string& labels = {}) {
  for (const MetricSnapshot& metric : snapshot.metrics) {
    if (metric.name == name && metric.labels == labels) return &metric;
  }
  return nullptr;
}

TEST_F(ObsRegistryTest, CountersMergeAcrossThreads) {
  const Counter counter = registry_.counter("test_total", "help");
  constexpr std::size_t kThreads = 8;
  constexpr std::uint64_t kPerThread = 10'000;
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&counter] {
      for (std::uint64_t i = 0; i < kPerThread; ++i) counter.inc();
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(find_value(registry_.scrape(), "test_total"),
            kThreads * kPerThread);
}

TEST_F(ObsRegistryTest, ScrapeUnderLoadSeesConsistentCounts) {
  // A scrape concurrent with writers must return a value between zero and
  // the final total (shard merging never double-counts or loses).
  const Counter counter = registry_.counter("load_total", "help");
  constexpr std::uint64_t kTotal = 50'000;
  std::atomic<bool> done{false};
  std::thread writer([&] {
    for (std::uint64_t i = 0; i < kTotal; ++i) counter.inc();
    done.store(true);
  });
  std::uint64_t last = 0;
  while (!done.load()) {
    const std::uint64_t now = find_value(registry_.scrape(), "load_total");
    EXPECT_GE(now, last);  // monotone across scrapes
    EXPECT_LE(now, kTotal);
    last = now;
  }
  writer.join();
  EXPECT_EQ(find_value(registry_.scrape(), "load_total"), kTotal);
}

TEST_F(ObsRegistryTest, GaugeSetAndSetMax) {
  const Gauge gauge = registry_.gauge("test_gauge", "help");
  gauge.set(42);
  EXPECT_EQ(find_value(registry_.scrape(), "test_gauge"), 42u);
  gauge.set_max(17);  // below current: no change
  EXPECT_EQ(find_value(registry_.scrape(), "test_gauge"), 42u);
  gauge.set_max(99);
  EXPECT_EQ(find_value(registry_.scrape(), "test_gauge"), 99u);
}

TEST_F(ObsRegistryTest, HistogramBucketBoundaries) {
  const Histogram histogram = registry_.histogram("test_micros", "help");
  // Bucket i has bound 2^i: observe exact bounds and bounds+1.
  histogram.observe_micros(0);   // -> bucket 0 (bound 1)
  histogram.observe_micros(1);   // -> bucket 0
  histogram.observe_micros(2);   // -> bucket 1 (bound 2)
  histogram.observe_micros(3);   // -> bucket 2 (bound 4)
  histogram.observe_micros(4);   // -> bucket 2
  histogram.observe_micros(5);   // -> bucket 3 (bound 8)
  const std::uint64_t huge = std::uint64_t{1} << 40;
  histogram.observe_micros(huge);  // -> +Inf overflow
  const RegistrySnapshot snapshot = registry_.scrape();
  const MetricSnapshot* metric = find_metric(snapshot, "test_micros");
  ASSERT_NE(metric, nullptr);
  const HistogramSnapshot& h = metric->histogram;
  EXPECT_EQ(h.buckets[0], 2u);
  EXPECT_EQ(h.buckets[1], 1u);
  EXPECT_EQ(h.buckets[2], 2u);
  EXPECT_EQ(h.buckets[3], 1u);
  EXPECT_EQ(h.buckets[kHistogramBuckets], 1u);
  EXPECT_EQ(h.count, 7u);
  EXPECT_EQ(h.sum_micros, 0u + 1 + 2 + 3 + 4 + 5 + huge);
}

TEST_F(ObsRegistryTest, RegistrationDedupesAndChecksType) {
  const Counter a = registry_.counter("dup_total", "help");
  const Counter b = registry_.counter("dup_total", "help");
  a.inc();
  b.inc();
  EXPECT_EQ(find_value(registry_.scrape(), "dup_total"), 2u);
  // Same name, different labels: distinct series.
  const Counter labelled =
      registry_.counter("dup_total", "help", "kind=\"x\"");
  labelled.inc(5);
  EXPECT_EQ(find_value(registry_.scrape(), "dup_total"), 2u);
  EXPECT_EQ(find_value(registry_.scrape(), "dup_total", "kind=\"x\""), 5u);
  // Same name+labels, different type: programming error.
  EXPECT_THROW(registry_.gauge("dup_total", "help"), std::logic_error);
}

TEST_F(ObsRegistryTest, DisabledRegistryIgnoresWrites) {
  const Counter counter = registry_.counter("off_total", "help");
  registry_.set_enabled(false);
  counter.inc(100);
  registry_.set_enabled(true);
  EXPECT_EQ(find_value(registry_.scrape(), "off_total"), 0u);
  counter.inc();
  EXPECT_EQ(find_value(registry_.scrape(), "off_total"), 1u);
}

TEST_F(ObsRegistryTest, InertHandlesAreSafe) {
  const Counter counter;
  const Gauge gauge;
  const Histogram histogram;
  counter.inc();
  gauge.set(1);
  gauge.set_max(2);
  histogram.observe_micros(3);  // no crash, no effect
}

TEST_F(ObsRegistryTest, CollectorsRunAtScrapeAndAreRemovable) {
  const std::size_t id = registry_.add_collector([](RegistrySnapshot& out) {
    MetricSnapshot metric;
    metric.name = "sampled_gauge";
    metric.type = MetricType::kGauge;
    metric.value = 7;
    out.metrics.push_back(std::move(metric));
  });
  EXPECT_EQ(find_value(registry_.scrape(), "sampled_gauge"), 7u);
  registry_.remove_collector(id);
  EXPECT_EQ(find_metric(registry_.scrape(), "sampled_gauge"), nullptr);
}

TEST_F(ObsRegistryTest, ResetZeroesEverything) {
  const Counter counter = registry_.counter("reset_total", "help");
  const Gauge gauge = registry_.gauge("reset_gauge", "help");
  counter.inc(3);
  gauge.set(9);
  registry_.reset();
  EXPECT_EQ(find_value(registry_.scrape(), "reset_total"), 0u);
  EXPECT_EQ(find_value(registry_.scrape(), "reset_gauge"), 0u);
}

// ---- Prometheus exposition grammar ---------------------------------------

TEST_F(ObsRegistryTest, PrometheusGrammarAndCumulativeBuckets) {
  registry_.counter("gsb_things_total", "Things.", "type=\"a\"").inc(2);
  registry_.counter("gsb_things_total", "Things.", "type=\"b\"").inc(3);
  registry_.gauge("gsb_level", "A level.").set(5);
  const Histogram histogram =
      registry_.histogram("gsb_lat_micros", "Latency.");
  histogram.observe_micros(1);
  histogram.observe_micros(100);
  histogram.observe_micros(std::uint64_t{1} << 40);
  const std::string text = render_prometheus(registry_.scrape());

  // Every non-comment line matches the exposition line grammar.
  const std::regex line_re(
      R"(^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[a-zA-Z_][a-zA-Z0-9_]*=\"[^"]*\"(,[a-zA-Z_][a-zA-Z0-9_]*=\"[^"]*\")*\})? [0-9]+(\.[0-9]+)?$)");
  std::istringstream stream(text);
  std::string line;
  std::size_t help_lines = 0;
  std::size_t type_lines = 0;
  while (std::getline(stream, line)) {
    if (line.rfind("# HELP ", 0) == 0) {
      ++help_lines;
      continue;
    }
    if (line.rfind("# TYPE ", 0) == 0) {
      ++type_lines;
      continue;
    }
    EXPECT_TRUE(std::regex_match(line, line_re)) << "bad line: " << line;
  }
  // One HELP/TYPE pair per family, not per labelled series.
  EXPECT_EQ(help_lines, type_lines);
  EXPECT_NE(text.find("# TYPE gsb_things_total counter\n"),
            std::string::npos);
  EXPECT_NE(text.find("gsb_things_total{type=\"a\"} 2\n"), std::string::npos);
  EXPECT_NE(text.find("# TYPE gsb_level gauge\n"), std::string::npos);
  EXPECT_NE(text.find("# TYPE gsb_lat_micros histogram\n"),
            std::string::npos);
  EXPECT_EQ(text.find("# TYPE gsb_things_total counter",
                      text.find("# TYPE gsb_things_total counter") + 1),
            std::string::npos)
      << "HELP/TYPE emitted once per family";

  // Cumulative buckets: monotone nondecreasing, +Inf last and equal to
  // _count.
  std::istringstream bucket_stream(text);
  std::uint64_t previous = 0;
  std::uint64_t inf_value = 0;
  std::uint64_t count_value = 0;
  bool saw_inf = false;
  while (std::getline(bucket_stream, line)) {
    if (line.rfind("gsb_lat_micros_bucket{", 0) == 0) {
      const std::uint64_t value =
          std::stoull(line.substr(line.rfind(' ') + 1));
      EXPECT_GE(value, previous) << "buckets must be cumulative: " << line;
      previous = value;
      if (line.find("le=\"+Inf\"") != std::string::npos) {
        saw_inf = true;
        inf_value = value;
      } else {
        EXPECT_FALSE(saw_inf) << "+Inf must be the last bucket";
      }
    } else if (line.rfind("gsb_lat_micros_count ", 0) == 0) {
      count_value = std::stoull(line.substr(line.rfind(' ') + 1));
    }
  }
  EXPECT_TRUE(saw_inf);
  EXPECT_EQ(inf_value, 3u);
  EXPECT_EQ(count_value, 3u);
  EXPECT_NE(text.find("gsb_lat_micros_sum "), std::string::npos);
}

TEST_F(ObsRegistryTest, JsonRendersSingleLineWithFamilies) {
  registry_.counter("gsb_a_total", "A.").inc(4);
  registry_.gauge("gsb_b", "B.").set(6);
  registry_.histogram("gsb_c_micros", "C.").observe_micros(10);
  const std::string json = render_json(registry_.scrape());
  EXPECT_EQ(json.find('\n'), std::string::npos);
  EXPECT_EQ(json.front(), '{');
  EXPECT_EQ(json.back(), '}');
  EXPECT_NE(json.find("\"counters\""), std::string::npos);
  EXPECT_NE(json.find("\"gauges\""), std::string::npos);
  EXPECT_NE(json.find("\"histograms\""), std::string::npos);
  EXPECT_NE(json.find("\"gsb_a_total\""), std::string::npos);
}

TEST(Exposition, EscapeMultilineRoundTrip) {
  const std::string original = "line one\nline \\two\\\n\\n not a newline\n";
  const std::string escaped = escape_multiline(original);
  EXPECT_EQ(escaped.find('\n'), std::string::npos);
  EXPECT_EQ(unescape_multiline(escaped), original);
  EXPECT_EQ(unescape_multiline(escape_multiline("")), "");
  EXPECT_EQ(unescape_multiline(escape_multiline("\\\\\n\n")), "\\\\\n\n");
}

TEST(Exposition, JsonEscapeControlCharacters) {
  EXPECT_EQ(json_escape("a\"b\\c\nd\te"), "a\\\"b\\\\c\\nd\\te");
  EXPECT_EQ(json_escape(std::string(1, '\x01')), "\\u0001");
}

// ---- Request scopes and the slowest-N log ---------------------------------

RequestTrace make_trace(std::uint64_t total) {
  RequestTrace trace;
  trace.request = "neighbors " + std::to_string(total);
  trace.transport = "test";
  trace.total_micros = total;
  trace.add_span("execute:neighbors", total);
  return trace;
}

std::vector<std::string> keys(const RequestTrace& trace) {
  std::vector<std::string> out;
  for (std::size_t i = 0; i < trace.span_count; ++i) {
    out.emplace_back(trace.spans[i].key);
  }
  return out;
}

TEST(RequestLog, RetainsSlowestN) {
  RequestLog log;
  for (std::uint64_t i = 1; i <= 40; ++i) {
    log.complete(make_trace(i * 17 % 41));  // 1..40, shuffled
  }
  const std::vector<RequestTrace> slowest = log.slowest();
  ASSERT_EQ(slowest.size(), RequestLog::kCapacity);
  for (std::size_t i = 0; i < slowest.size(); ++i) {
    EXPECT_EQ(slowest[i].total_micros, 40 - i);  // 40 down to 9
  }
  EXPECT_EQ(log.retained(), RequestLog::kCapacity);
  log.clear();
  EXPECT_EQ(log.retained(), 0u);
}

TEST(RequestLog, SlowLogThresholdCounts) {
  RequestLog log;
  log.set_slow_log_micros(100);
  log.complete(make_trace(50));
  EXPECT_EQ(log.slow_logged(), 0u);
  log.complete(make_trace(100));
  log.complete(make_trace(5000));
  EXPECT_EQ(log.slow_logged(), 2u);
}

TEST(RequestScope, FillsSpansAndTotal) {
  TimelineJournal journal;
  journal.set_request_traces_enabled(true);
  {
    const RequestScope scope(
        journal, "unix", "degree 3", 7,
        RequestScope::Clock::now() - std::chrono::microseconds(250));
    TimelineSpan span(journal, TimelineEventKind::kStage, "execute:degree");
  }
  const std::vector<RequestTrace> slowest = journal.requests().slowest();
  ASSERT_EQ(slowest.size(), 1u);
  const RequestTrace& trace = slowest[0];
  EXPECT_EQ(trace.request, "degree 3");
  EXPECT_STREQ(trace.transport, "unix");
  EXPECT_EQ(keys(trace), (std::vector<std::string>{"queue_wait", "execute"}));
  EXPECT_GE(trace.spans[0].micros, 250u);
  EXPECT_GE(trace.total_micros, trace.spans[0].micros + trace.spans[1].micros);
  EXPECT_TRUE(journal.snapshot().events.empty());  // recording stayed off
}

TEST(RequestScope, InertWhenOff) {
  TimelineJournal journal;  // recording and request traces off by default
  EXPECT_FALSE(journal.spans_armed());
  {
    const RequestScope scope(journal, "unix", "ping", 1,
                             RequestScope::Clock::now());
    TimelineSpan span(journal, TimelineEventKind::kStage, "execute:degree");
  }
  EXPECT_EQ(journal.requests().retained(), 0u);
  EXPECT_TRUE(journal.snapshot().events.empty());
}

TEST(RequestScope, LongRequestsAreTruncated) {
  TimelineJournal journal;
  journal.set_request_traces_enabled(true);
  const std::string request(1000, 'x');
  { const RequestScope scope(journal, "tcp", request); }
  const std::vector<RequestTrace> slowest = journal.requests().slowest();
  ASSERT_EQ(slowest.size(), 1u);
  EXPECT_EQ(slowest[0].request.size(), RequestTrace::kMaxRequestChars);
}

TEST(RequestLog, RenderTracesJsonShape) {
  RequestLog log;
  RequestTrace trace = make_trace(123);
  trace.request = "say \"hi\"";
  log.complete(std::move(trace));
  const std::string json = render_traces_json(log.slowest());
  EXPECT_EQ(json.find('\n'), std::string::npos);
  EXPECT_EQ(json.front(), '[');
  EXPECT_EQ(json.back(), ']');
  EXPECT_NE(json.find("\"total_micros\":123"), std::string::npos);
  EXPECT_NE(json.find("\\\"hi\\\""), std::string::npos);
  EXPECT_NE(json.find("\"spans\":{\"execute\":123}"), std::string::npos);
}

TEST(RequestScope, BreakdownEqualsTheSpansClosedInside) {
  for (const bool recording : {false, true}) {
    TimelineJournal journal;
    journal.set_request_traces_enabled(true);
    journal.set_enabled(recording);
    {
      const RequestScope scope(journal, "tcp", "degree 3", 5);
      { TimelineSpan span(journal, TimelineEventKind::kStage, "parse"); }
      {
        TimelineSpan span(journal, TimelineEventKind::kStage, "cache_lookup");
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
      {
        TimelineSpan span(journal, TimelineEventKind::kStage,
                          "execute:degree");
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
      }
      { TimelineSpan span(journal, TimelineEventKind::kStage, "cache_lookup"); }
    }
    const std::vector<RequestTrace> slowest = journal.requests().slowest();
    ASSERT_EQ(slowest.size(), 1u) << "recording " << recording;
    const auto& spans = slowest[0].spans;
    ASSERT_EQ(keys(slowest[0]), (std::vector<std::string>{
                                    "parse", "cache_lookup", "execute"}));
    EXPECT_GE(spans[1].micros, 1000u);
    EXPECT_GE(spans[2].micros, 2000u);
    EXPECT_GE(slowest[0].total_micros,
              spans[0].micros + spans[1].micros + spans[2].micros);
    if (!recording) {
      EXPECT_TRUE(journal.snapshot().events.empty());
      continue;
    }
    // The recorded stage events, summed by key, are the breakdown; the
    // request event lasts the trace's total.
    std::map<std::string, std::uint64_t> by_key;
    std::size_t requests = 0;
    for (const TimelineEvent& event : journal.snapshot().events) {
      if (event.kind == TimelineEventKind::kRequest) {
        ++requests;
        EXPECT_EQ(event.id, 5u);
        EXPECT_EQ(event.dur_micros, slowest[0].total_micros);
        continue;
      }
      ASSERT_EQ(event.kind, TimelineEventKind::kStage);
      const std::string_view label(event.label);
      by_key[std::string(label.substr(0, label.find(':')))] +=
          event.dur_micros;
    }
    EXPECT_EQ(requests, 1u);
    EXPECT_EQ(by_key.size(), slowest[0].span_count);
    for (std::size_t i = 0; i < slowest[0].span_count; ++i) {
      EXPECT_EQ(by_key[spans[i].key], spans[i].micros) << spans[i].key;
    }
  }
}

TEST(RequestScope, SpansOutsideAnyRequestFeedNone) {
  for (const bool recording : {false, true}) {
    TimelineJournal journal;
    journal.set_request_traces_enabled(true);
    journal.set_enabled(recording);
    // A pipeline stage with no request open feeds nothing.
    { TimelineSpan stage(journal, TimelineEventKind::kStage, "normalize"); }
    EXPECT_EQ(journal.requests().retained(), 0u);
    {
      // Opened before the request: not part of it, though it closes inside.
      std::optional<TimelineSpan> outer;
      outer.emplace(journal, TimelineEventKind::kStage, "sweep");
      const RequestScope scope(journal, "stream", "degree 1");
      outer.reset();
      // Another thread's span is not part of this thread's request.
      std::thread other([&journal] {
        TimelineSpan span(journal, TimelineEventKind::kStage, "csr");
      });
      other.join();
      TimelineSpan span(journal, TimelineEventKind::kStage, "execute:degree");
    }
    const std::vector<RequestTrace> slowest = journal.requests().slowest();
    ASSERT_EQ(slowest.size(), 1u) << "recording " << recording;
    EXPECT_EQ(keys(slowest[0]), std::vector<std::string>{"execute"});
    EXPECT_EQ(journal.snapshot().events.empty(), !recording);
  }
}

TEST(Uptime, MonotoneNonNegative) {
  anchor_process_start();
  EXPECT_GE(process_uptime_seconds(), 0u);
}

// ---- Histogram quantiles --------------------------------------------------

TEST(HistogramQuantile, EmptyHistogramIsZero) {
  HistogramSnapshot h;
  EXPECT_EQ(histogram_quantile_micros(h, 0.5), 0u);
}

TEST(HistogramQuantile, SingleBucketInterpolates) {
  MetricsRegistry registry;
  registry.set_enabled(true);
  const Histogram h = registry.histogram("q_micros", "help");
  for (int i = 0; i < 100; ++i) h.observe_micros(3);  // bucket (2, 4]
  const RegistrySnapshot snapshot = registry.scrape();
  const MetricSnapshot* metric = find_metric(snapshot, "q_micros");
  ASSERT_NE(metric, nullptr);
  const std::uint64_t p50 = histogram_quantile_micros(metric->histogram, 0.5);
  const std::uint64_t p99 = histogram_quantile_micros(metric->histogram, 0.99);
  EXPECT_GT(p50, 2u);
  EXPECT_LE(p50, 4u);
  EXPECT_GT(p99, p50 - 1);  // higher rank never interpolates lower
  EXPECT_LE(p99, 4u);
}

TEST(HistogramQuantile, SpreadAcrossBucketsIsMonotone) {
  MetricsRegistry registry;
  registry.set_enabled(true);
  const Histogram h = registry.histogram("q2_micros", "help");
  for (std::uint64_t v : {1u, 10u, 100u, 1000u, 10000u}) h.observe_micros(v);
  const RegistrySnapshot snapshot = registry.scrape();
  const MetricSnapshot* metric = find_metric(snapshot, "q2_micros");
  ASSERT_NE(metric, nullptr);
  std::uint64_t previous = 0;
  for (double q : {0.0, 0.25, 0.5, 0.75, 0.99, 1.0}) {
    const std::uint64_t value = histogram_quantile_micros(metric->histogram, q);
    EXPECT_GE(value, previous) << "q=" << q;
    previous = value;
  }
  // p99 of five observations ranks into the last bucket (8192, 16384].
  EXPECT_GT(histogram_quantile_micros(metric->histogram, 0.99), 8192u);
  EXPECT_LE(histogram_quantile_micros(metric->histogram, 0.99), 16384u);
}

// ---- Build info -----------------------------------------------------------

TEST(BuildInfo, GlobalScrapeCarriesVersionIsaSanitizer) {
  MetricsRegistry& registry = MetricsRegistry::global();
  const bool was_enabled = registry.enabled();
  registry.set_enabled(true);
  const RegistrySnapshot snapshot = registry.scrape();
  registry.set_enabled(was_enabled);
  const MetricSnapshot* info = nullptr;
  for (const MetricSnapshot& metric : snapshot.metrics) {
    if (metric.name == "gsb_build_info") info = &metric;
  }
  ASSERT_NE(info, nullptr);
  EXPECT_EQ(info->value, 1u);
  EXPECT_NE(info->labels.find("version=\""), std::string::npos);
  EXPECT_NE(info->labels.find("isa=\""), std::string::npos);
  EXPECT_NE(info->labels.find("sanitizer=\""), std::string::npos);
}

// ---- Timeline journal -----------------------------------------------------

TEST(Timeline, DisabledJournalRecordsNothing) {
  TimelineJournal journal;
  journal.record(TimelineEventKind::kJob, 0, 10, 1, "ignored");
  journal.record_instant(TimelineEventKind::kCacheHit, 2, "ignored");
  const TimelineSnapshot snapshot = journal.snapshot();
  EXPECT_TRUE(snapshot.events.empty());
  EXPECT_EQ(snapshot.dropped, 0u);
}

TEST(Timeline, RecordsEventsSortedByStart) {
  TimelineJournal journal;
  journal.set_enabled(true);
  journal.set_thread_lane("main");
  journal.record(TimelineEventKind::kStage, 200, 50, 7, "later");
  journal.record(TimelineEventKind::kJob, 100, 25, 3, "earlier");
  const TimelineSnapshot snapshot = journal.snapshot();
  ASSERT_EQ(snapshot.events.size(), 2u);
  EXPECT_EQ(snapshot.events[0].start_micros, 100u);
  EXPECT_STREQ(snapshot.events[0].label, "earlier");
  EXPECT_EQ(snapshot.events[0].id, 3u);
  EXPECT_EQ(snapshot.events[1].start_micros, 200u);
  EXPECT_EQ(snapshot.events[1].kind, TimelineEventKind::kStage);
  ASSERT_EQ(snapshot.lanes.size(), 1u);
  EXPECT_EQ(snapshot.lanes[0].name, "main");
}

TEST(Timeline, LabelsTruncateAtFixedWidth) {
  TimelineJournal journal;
  journal.set_enabled(true);
  const std::string longer(100, 'x');
  journal.record(TimelineEventKind::kRequest, 0, 1, 0, longer);
  const TimelineSnapshot snapshot = journal.snapshot();
  ASSERT_EQ(snapshot.events.size(), 1u);
  EXPECT_EQ(std::string(snapshot.events[0].label).size(),
            TimelineEvent::kLabelChars);
}

TEST(Timeline, TinyRingDropsExactlyAndCounts) {
  TimelineJournal journal;
  journal.set_capacity(4);
  journal.set_enabled(true);
  for (std::uint64_t i = 0; i < 10; ++i) {
    journal.record(TimelineEventKind::kJob, i, 1, i, "evt");
  }
  const TimelineSnapshot snapshot = journal.snapshot();
  EXPECT_EQ(snapshot.events.size(), 4u);
  EXPECT_EQ(snapshot.dropped, 6u);
  EXPECT_EQ(journal.events_dropped(), 6u);
  // The retained prefix is the oldest events (drop-on-full, not overwrite).
  EXPECT_EQ(snapshot.events.front().start_micros, 0u);
  EXPECT_EQ(snapshot.events.back().start_micros, 3u);
}

TEST(Timeline, ResetStartsAFreshWindow) {
  TimelineJournal journal;
  journal.set_capacity(4);
  journal.set_enabled(true);
  for (std::uint64_t i = 0; i < 10; ++i) {
    journal.record(TimelineEventKind::kJob, i, 1, i, "old");
  }
  journal.reset();
  EXPECT_EQ(journal.events_dropped(), 0u);
  EXPECT_TRUE(journal.snapshot().events.empty());
  journal.record(TimelineEventKind::kStage, 1, 2, 3, "new");
  const TimelineSnapshot snapshot = journal.snapshot();
  ASSERT_EQ(snapshot.events.size(), 1u);
  EXPECT_STREQ(snapshot.events[0].label, "new");
  EXPECT_EQ(snapshot.dropped, 0u);
}

TEST(Timeline, OneLanePerRecordingThread) {
  TimelineJournal journal;
  journal.set_enabled(true);
  constexpr std::size_t kThreads = 4;
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&journal, t] {
      journal.set_thread_lane("lane-" + std::to_string(t));
      for (int i = 0; i < 16; ++i) {
        journal.record(TimelineEventKind::kJob, static_cast<std::uint64_t>(i),
                       1, t, "work");
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  const TimelineSnapshot snapshot = journal.snapshot();
  EXPECT_EQ(snapshot.events.size(), kThreads * 16);
  ASSERT_EQ(snapshot.lanes.size(), kThreads);
  std::vector<std::uint32_t> tids;
  for (const TimelineLane& lane : snapshot.lanes) tids.push_back(lane.tid);
  std::sort(tids.begin(), tids.end());
  for (std::size_t t = 0; t < kThreads; ++t) {
    EXPECT_EQ(tids[t], t);  // dense lane ids, one per thread
  }
}

TEST(Timeline, SpanRecordsCompleteEvent) {
  TimelineJournal journal;
  journal.set_enabled(true);
  { TimelineSpan span(journal, TimelineEventKind::kRequest, "degree 3", 42); }
  const TimelineSnapshot snapshot = journal.snapshot();
  ASSERT_EQ(snapshot.events.size(), 1u);
  EXPECT_EQ(snapshot.events[0].kind, TimelineEventKind::kRequest);
  EXPECT_EQ(snapshot.events[0].id, 42u);
  EXPECT_STREQ(snapshot.events[0].label, "degree 3");
}

TEST(Timeline, TraceIoNeedsRecording) {
  TimelineJournal journal;
  journal.set_io_spans_enabled(true);
  EXPECT_FALSE(journal.io_spans_enabled());  // journal itself still off
  journal.set_enabled(true);
  EXPECT_TRUE(journal.io_spans_enabled());
  journal.set_io_spans_enabled(false);
  EXPECT_FALSE(journal.io_spans_enabled());
}

TEST(Timeline, WriteFullRecordsOneIoEventOnlyWithBothGates) {
  // util::io records to the global journal; every gate is off again at the
  // end.
  TimelineJournal& journal = TimelineJournal::global();
  const std::string path =
      (std::filesystem::temp_directory_path() /
       ("obs_test_io_" + std::to_string(::getpid()) + ".bin"))
          .string();
  const int fd = ::open(path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0600);
  ASSERT_GE(fd, 0);
  const std::string payload(1234, 'x');
  // Writes the payload inside a request scope; returns the kIo events
  // recorded and the keys of the request's breakdown, if it kept one.
  auto write = [&] {
    journal.reset();
    journal.requests().clear();
    {
      const RequestScope scope(journal, "stream", "write test");
      EXPECT_TRUE(util::io::write_full(fd, payload.data(), payload.size()));
    }
    std::vector<TimelineEvent> io;
    for (const TimelineEvent& event : journal.snapshot().events) {
      if (event.kind == TimelineEventKind::kIo) io.push_back(event);
    }
    const std::vector<RequestTrace> traces = journal.requests().slowest();
    return std::make_pair(io, traces.empty() ? std::vector<std::string>{}
                                             : keys(traces[0]));
  };

  journal.set_enabled(true);  // recording alone
  EXPECT_TRUE(write().first.empty());
  journal.set_enabled(false);

  journal.set_request_traces_enabled(true);  // request traces alone
  auto [io, breakdown] = write();
  EXPECT_TRUE(io.empty());
  EXPECT_TRUE(breakdown.empty());

  journal.set_enabled(true);  // both gates: the request traces stay on
  journal.set_io_spans_enabled(true);
  std::tie(io, breakdown) = write();
  journal.set_io_spans_enabled(false);
  journal.set_enabled(false);
  journal.set_request_traces_enabled(false);
  journal.reset();
  journal.requests().clear();
  ::close(fd);
  std::filesystem::remove(path);

  ASSERT_EQ(io.size(), 1u);
  EXPECT_STREQ(io[0].label, "write");
  EXPECT_EQ(io[0].id, payload.size());
  EXPECT_TRUE(breakdown.empty());  // never part of a request's breakdown
}

// ---- Chrome trace export --------------------------------------------------

TEST(TimelineExport, ChromeTraceShape) {
  TimelineJournal journal;
  journal.set_enabled(true);
  journal.set_thread_lane("worker-0");
  journal.record(TimelineEventKind::kJob, 10, 5, 1, "enumeration");
  journal.record(TimelineEventKind::kCacheHit, 20, 0, 2, "say \"hi\"");
  const std::string json = render_chrome_trace(journal.snapshot());
  EXPECT_EQ(json.find('\n'), std::string::npos);  // wire-safe single line
  EXPECT_EQ(json.front(), '{');
  EXPECT_EQ(json.back(), '}');
  EXPECT_NE(json.find("\"traceEvents\":["), std::string::npos);
  EXPECT_NE(
      json.find("{\"ph\":\"M\",\"pid\":1,\"tid\":0,\"name\":\"thread_name\","
                "\"args\":{\"name\":\"worker-0\"}}"),
      std::string::npos);
  EXPECT_NE(
      json.find("{\"ph\":\"X\",\"pid\":1,\"tid\":0,\"ts\":10,\"dur\":5,"
                "\"cat\":\"job\",\"name\":\"enumeration\","
                "\"args\":{\"id\":1}}"),
      std::string::npos);
  EXPECT_NE(json.find("\"cat\":\"cache_hit\""), std::string::npos);
  EXPECT_NE(json.find("say \\\"hi\\\""), std::string::npos);  // escaped label
  EXPECT_NE(json.find("\"otherData\":{\"dropped\":0}"), std::string::npos);
}

TEST(TimelineExport, DroppedCountSurfacesInTrace) {
  TimelineJournal journal;
  journal.set_capacity(1);
  journal.set_enabled(true);
  journal.record(TimelineEventKind::kJob, 0, 1, 0, "kept");
  journal.record(TimelineEventKind::kJob, 1, 1, 1, "dropped");
  const std::string json = render_chrome_trace(journal.snapshot());
  EXPECT_NE(json.find("\"otherData\":{\"dropped\":1}"), std::string::npos);
}

TEST(TimelineExport, EmptyLabelFallsBackToKindName) {
  TimelineJournal journal;
  journal.set_enabled(true);
  journal.record(TimelineEventKind::kQueueWait, 0, 3, 9, "");
  const std::string json = render_chrome_trace(journal.snapshot());
  EXPECT_NE(json.find("\"cat\":\"queue_wait\",\"name\":\"queue_wait\""),
            std::string::npos);
}

}  // namespace
}  // namespace gsb::obs
