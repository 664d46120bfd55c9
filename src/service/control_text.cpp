#include "service/control_text.h"

#include "obs/exposition.h"
#include "obs/metrics.h"
#include "obs/timeline.h"
#include "obs/timeline_export.h"
#include "service/result_cache.h"
#include "util/memory_tracker.h"

namespace gsb::service {

std::string latency_quantile_fields() {
  const obs::MetricsRegistry& registry = obs::MetricsRegistry::global();
  if (!registry.enabled()) return {};
  obs::HistogramSnapshot merged;
  for (const auto& metric : registry.scrape().metrics) {
    if (metric.name != "gsb_request_duration_microseconds") continue;
    for (std::size_t i = 0; i < merged.buckets.size(); ++i) {
      merged.buckets[i] += metric.histogram.buckets[i];
    }
    merged.count += metric.histogram.count;
    merged.sum_micros += metric.histogram.sum_micros;
  }
  if (merged.count == 0) return {};
  return " p50_us=" +
         std::to_string(obs::histogram_quantile_micros(merged, 0.50)) +
         " p99_us=" +
         std::to_string(obs::histogram_quantile_micros(merged, 0.99));
}

std::string render_stats_line(const StatsFields& fields) {
  std::string out = "ok stats: requests=" + std::to_string(fields.requests) +
                    " cache_hits=" + std::to_string(fields.cache_hits) +
                    " cache_misses=" + std::to_string(fields.cache_misses);
  if (fields.connections) {
    out += " connections=" + std::to_string(*fields.connections);
  }
  if (fields.busy) out += " busy=" + std::to_string(*fields.busy);
  if (fields.timeouts) out += " timeouts=" + std::to_string(*fields.timeouts);
  out += " accept_errors=" + std::to_string(fields.accept_errors) +
         " backlog=" + std::to_string(fields.backlog);
  if (fields.epoch) out += " epoch=" + std::to_string(*fields.epoch);
  out += " uptime_seconds=" + std::to_string(obs::process_uptime_seconds()) +
         " rss_bytes=" + std::to_string(util::process_current_rss_bytes());
  if (fields.cache != nullptr) {
    const auto cache_stats = fields.cache->stats();
    out += " cache_entries=" + std::to_string(cache_stats.entries) +
           " cache_bytes=" + std::to_string(cache_stats.bytes);
  }
  out += latency_quantile_fields();
  return out;
}

std::optional<std::string> metrics_response(const std::string& request) {
  if (request != "metrics" && request.rfind("metrics ", 0) != 0) {
    return std::nullopt;
  }
  std::string format =
      request == "metrics" ? std::string("prom") : request.substr(8);
  const auto begin = format.find_first_not_of(' ');
  if (begin == std::string::npos) {
    format = "prom";
  } else {
    const auto end = format.find_last_not_of(' ');
    format = format.substr(begin, end - begin + 1);
  }

  obs::MetricsRegistry& registry = obs::MetricsRegistry::global();
  if (!registry.enabled()) {
    return std::string("error: metrics disabled (serve with --metrics)");
  }
  if (format == "prom") {
    return "ok metrics prom " +
           obs::escape_multiline(obs::render_prometheus(registry.scrape()));
  }
  if (format == "json") {
    return "ok metrics json " + obs::render_json(registry.scrape());
  }
  if (format == "traces") {
    return "ok metrics traces " +
           obs::render_traces_json(
               obs::TimelineJournal::global().requests().slowest());
  }
  return "error: unknown metrics format '" + format +
         "' (expected prom, json, or traces)";
}

std::optional<std::string> profile_response(const std::string& request) {
  if (request != "profile" && request.rfind("profile ", 0) != 0) {
    return std::nullopt;
  }
  obs::TimelineJournal& journal = obs::TimelineJournal::global();
  if (request == "profile") {
    const auto snapshot = journal.snapshot();
    return "ok profile: enabled=" + std::to_string(journal.enabled() ? 1 : 0) +
           " events=" + std::to_string(snapshot.events.size()) +
           " dropped=" + std::to_string(snapshot.dropped);
  }
  std::string verb = request.substr(8);
  const auto begin = verb.find_first_not_of(' ');
  if (begin == std::string::npos) {
    verb.clear();
  } else {
    const auto end = verb.find_last_not_of(' ');
    verb = verb.substr(begin, end - begin + 1);
  }
  if (verb == "start") {
    // Fresh bounded window: previous events are discarded, buffers are
    // reused, and a full lane drops (and counts) instead of growing.
    journal.reset();
    journal.set_enabled(true);
    return std::string("ok profile started");
  }
  if (verb == "stop") {
    journal.set_enabled(false);
    return "ok profile " + obs::render_chrome_trace(journal.snapshot());
  }
  return "error: unknown profile verb '" + verb + "' (expected start or stop)";
}

bool is_control_request(const std::string& text) {
  return text == "ping" || text == "stats" || text == "shutdown" ||
         text == "reload" || text == "metrics" ||
         text.rfind("metrics ", 0) == 0 || text == "profile" ||
         text.rfind("profile ", 0) == 0;
}

}  // namespace gsb::service
