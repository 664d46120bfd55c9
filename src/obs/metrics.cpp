#include "obs/metrics.h"

#include <bit>
#include <chrono>
#include <stdexcept>

#include "obs/timeline.h"
#include "util/memory_tracker.h"

namespace gsb::obs {

namespace {

std::uint64_t next_registry_id() {
  static std::atomic<std::uint64_t> next{1};
  return next.fetch_add(1, std::memory_order_relaxed);
}

/// Thread-local cache mapping registry id -> shard.  The cache is only a
/// fast path: dropping an entry just means the thread registers a fresh
/// shard on next use (the old shard stays owned by the registry, so no
/// counts are lost).  Matching on the process-unique id — not the
/// registry pointer — keeps a recycled allocation from ever aliasing a
/// dead registry's entry.
struct TlShardCache {
  struct Entry {
    std::uint64_t registry_id;
    void* shard;
  };
  std::vector<Entry> entries;

  void* find(std::uint64_t registry_id) const noexcept {
    for (const Entry& e : entries) {
      if (e.registry_id == registry_id) return e.shard;
    }
    return nullptr;
  }
  void remember(std::uint64_t registry_id, void* shard) {
    if (entries.size() >= 64) entries.erase(entries.begin());
    entries.push_back({registry_id, shard});
  }
};

TlShardCache& tl_shard_cache() {
  thread_local TlShardCache cache;
  return cache;
}

std::chrono::steady_clock::time_point process_anchor() noexcept {
  static const auto anchor = std::chrono::steady_clock::now();
  return anchor;
}

/// Compile-time build identity for gsb_build_info.  The ISA level is the
/// correlation kernel's dispatch ceiling (runtime AVX detection happens
/// in corr_kernel.cpp; this label reports what the binary can select).
const char* build_sanitizer() noexcept {
#if defined(__SANITIZE_THREAD__)
  return "tsan";
#elif defined(__SANITIZE_ADDRESS__)
  return "asan";
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
  return "tsan";
#elif __has_feature(address_sanitizer)
  return "asan";
#else
  return "none";
#endif
#else
  return "none";
#endif
}

const char* build_isa() noexcept {
#if defined(__x86_64__) || defined(__i386__)
  static const bool have_avx = __builtin_cpu_supports("avx") != 0;
  return have_avx ? "avx" : "v128";
#elif defined(__GNUC__) || defined(__clang__)
  return "v128";
#else
  return "scalar";
#endif
}

/// Default collectors sampled at every scrape of the global registry:
/// process uptime/RSS, build identity, MemoryTracker tag gauges, request
/// traces and timeline activity.
void collect_process_metrics(RegistrySnapshot& out) {
  const auto add_gauge = [&out](const char* name, const char* help,
                                std::string labels, std::uint64_t value) {
    MetricSnapshot m;
    m.name = name;
    m.help = help;
    m.labels = std::move(labels);
    m.type = MetricType::kGauge;
    m.value = value;
    out.metrics.push_back(std::move(m));
  };

  add_gauge("gsb_uptime_seconds", "Seconds since process start.", {},
            process_uptime_seconds());
  {
    std::string labels = "version=\"";
#if defined(GSB_VERSION)
    labels += GSB_VERSION;
#else
    labels += "dev";
#endif
    labels += "\",isa=\"";
    labels += build_isa();
    labels += "\",sanitizer=\"";
    labels += build_sanitizer();
    labels += '"';
    add_gauge("gsb_build_info",
              "Build identity; value is always 1, the labels carry it.",
              std::move(labels), 1);
  }
  add_gauge("gsb_process_rss_bytes", "Current resident set size.", {},
            util::process_current_rss_bytes());
  add_gauge("gsb_process_peak_rss_bytes", "Peak resident set size.", {},
            util::process_peak_rss_bytes());

  const util::MemoryTracker& tracker = util::global_memory_tracker();
  for (std::size_t i = 0;
       i < static_cast<std::size_t>(util::MemTag::kNumTags); ++i) {
    const auto tag = static_cast<util::MemTag>(i);
    std::string labels = "tag=\"";
    labels += util::MemoryTracker::tag_name(tag);
    labels += '"';
    add_gauge("gsb_tracked_bytes",
              "Live bytes per MemoryTracker allocation tag.",
              std::move(labels), tracker.current(tag));
  }
  add_gauge("gsb_tracked_peak_bytes",
            "Peak total bytes across MemoryTracker tags.", {},
            tracker.peak());

  const TimelineJournal& journal = TimelineJournal::global();
  MetricSnapshot slow;
  slow.name = "gsb_slow_queries_total";
  slow.help = "Requests over the --slow-query-log threshold.";
  slow.type = MetricType::kCounter;
  slow.value = journal.requests().slow_logged();
  out.metrics.push_back(std::move(slow));
  add_gauge("gsb_traces_retained", "Traces held in the slowest-N buffer.", {},
            journal.requests().retained());

  MetricSnapshot dropped;
  dropped.name = "gsb_timeline_events_dropped_total";
  dropped.help = "Timeline events lost to full per-thread buffers.";
  dropped.type = MetricType::kCounter;
  dropped.value = journal.events_dropped();
  out.metrics.push_back(std::move(dropped));
}

}  // namespace

MetricsRegistry::MetricsRegistry() : id_(next_registry_id()) {}

MetricsRegistry::~MetricsRegistry() = default;

MetricsRegistry& MetricsRegistry::global() {
  static MetricsRegistry* registry = [] {
    auto* r = new MetricsRegistry();
    r->add_collector(collect_process_metrics);
    return r;
  }();
  return *registry;
}

MetricsRegistry::Shard& MetricsRegistry::local_shard() {
  TlShardCache& cache = tl_shard_cache();
  if (void* hit = cache.find(id_)) return *static_cast<Shard*>(hit);
  Shard* shard = nullptr;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    shards_.push_back(std::make_unique<Shard>());
    shard = shards_.back().get();
  }
  cache.remember(id_, shard);
  return *shard;
}

std::uint32_t MetricsRegistry::register_series(MetricType type,
                                               std::string name,
                                               std::string help,
                                               std::string labels) {
  const std::lock_guard<std::mutex> lock(mutex_);
  for (const Series& s : series_) {
    if (s.name == name && s.labels == labels) {
      if (s.type != type) {
        throw std::logic_error("metric '" + name +
                               "' re-registered with a different type");
      }
      return s.index;
    }
  }
  std::uint32_t index = 0;
  switch (type) {
    case MetricType::kCounter:
      if (counters_used_ >= kMaxCounters) {
        throw std::logic_error("metrics registry counter capacity exceeded");
      }
      index = counters_used_++;
      break;
    case MetricType::kGauge:
      if (gauges_used_ >= kMaxGauges) {
        throw std::logic_error("metrics registry gauge capacity exceeded");
      }
      index = gauges_used_++;
      break;
    case MetricType::kHistogram:
      if (histograms_used_ >= kMaxHistograms) {
        throw std::logic_error("metrics registry histogram capacity exceeded");
      }
      index = histograms_used_++;
      break;
  }
  series_.push_back(
      {std::move(name), std::move(help), std::move(labels), type, index});
  return index;
}

Counter MetricsRegistry::counter(std::string name, std::string help,
                                 std::string labels) {
  return Counter(this, register_series(MetricType::kCounter, std::move(name),
                                       std::move(help), std::move(labels)));
}

Gauge MetricsRegistry::gauge(std::string name, std::string help,
                             std::string labels) {
  return Gauge(this, register_series(MetricType::kGauge, std::move(name),
                                     std::move(help), std::move(labels)));
}

Histogram MetricsRegistry::histogram(std::string name, std::string help,
                                     std::string labels) {
  return Histogram(this,
                   register_series(MetricType::kHistogram, std::move(name),
                                   std::move(help), std::move(labels)));
}

void MetricsRegistry::add_counter(std::uint32_t index,
                                  std::uint64_t n) noexcept {
  local_shard().counters[index].fetch_add(n, std::memory_order_relaxed);
}

void MetricsRegistry::observe(std::uint32_t index,
                              std::uint64_t micros) noexcept {
  // Bucket i covers (2^(i-1), 2^i]; values <= 1us land in bucket 0 and
  // anything past the last finite bound lands in the +Inf cell.
  std::size_t bucket =
      micros <= 1 ? 0
                  : static_cast<std::size_t>(std::bit_width(micros - 1));
  if (bucket > kHistogramBuckets) bucket = kHistogramBuckets;
  auto* cells = &local_shard().histograms[index * kHistogramCells];
  cells[bucket].fetch_add(1, std::memory_order_relaxed);
  cells[kHistogramBuckets + 1].fetch_add(micros, std::memory_order_relaxed);
  cells[kHistogramBuckets + 2].fetch_add(1, std::memory_order_relaxed);
}

std::size_t MetricsRegistry::add_collector(Collector collector) {
  const std::lock_guard<std::mutex> lock(mutex_);
  const std::size_t id = next_collector_id_++;
  collectors_.emplace_back(id, std::move(collector));
  return id;
}

void MetricsRegistry::remove_collector(std::size_t id) {
  const std::lock_guard<std::mutex> lock(mutex_);
  for (auto it = collectors_.begin(); it != collectors_.end(); ++it) {
    if (it->first == id) {
      collectors_.erase(it);
      return;
    }
  }
}

RegistrySnapshot MetricsRegistry::scrape() const {
  RegistrySnapshot out;
  std::vector<Collector> collectors;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    out.metrics.reserve(series_.size());
    for (const Series& s : series_) {
      MetricSnapshot m;
      m.name = s.name;
      m.help = s.help;
      m.labels = s.labels;
      m.type = s.type;
      switch (s.type) {
        case MetricType::kCounter:
          for (const auto& shard : shards_) {
            m.value +=
                shard->counters[s.index].load(std::memory_order_relaxed);
          }
          break;
        case MetricType::kGauge:
          m.value = gauges_[s.index].load(std::memory_order_relaxed);
          break;
        case MetricType::kHistogram: {
          const std::size_t base = s.index * kHistogramCells;
          for (const auto& shard : shards_) {
            for (std::size_t b = 0; b <= kHistogramBuckets; ++b) {
              m.histogram.buckets[b] +=
                  shard->histograms[base + b].load(std::memory_order_relaxed);
            }
            m.histogram.sum_micros +=
                shard->histograms[base + kHistogramBuckets + 1].load(
                    std::memory_order_relaxed);
            m.histogram.count +=
                shard->histograms[base + kHistogramBuckets + 2].load(
                    std::memory_order_relaxed);
          }
          break;
        }
      }
      out.metrics.push_back(std::move(m));
    }
    collectors.reserve(collectors_.size());
    for (const auto& [id, fn] : collectors_) collectors.push_back(fn);
  }
  // Collectors run outside the registry lock: they may touch other
  // locks (caches, trackers) that must not nest under ours.
  for (const Collector& fn : collectors) fn(out);
  return out;
}

void MetricsRegistry::reset() {
  const std::lock_guard<std::mutex> lock(mutex_);
  for (const auto& shard : shards_) {
    for (auto& c : shard->counters) c.store(0, std::memory_order_relaxed);
    for (auto& h : shard->histograms) h.store(0, std::memory_order_relaxed);
  }
  for (auto& g : gauges_) g.store(0, std::memory_order_relaxed);
}

void Counter::inc(std::uint64_t n) const noexcept {
  if (registry_ == nullptr || !registry_->enabled()) return;
  registry_->add_counter(index_, n);
}

void Gauge::set(std::uint64_t value) const noexcept {
  if (registry_ == nullptr || !registry_->enabled()) return;
  registry_->gauges_[index_].store(value, std::memory_order_relaxed);
}

void Gauge::set_max(std::uint64_t value) const noexcept {
  if (registry_ == nullptr || !registry_->enabled()) return;
  auto& cell = registry_->gauges_[index_];
  std::uint64_t seen = cell.load(std::memory_order_relaxed);
  while (value > seen &&
         !cell.compare_exchange_weak(seen, value, std::memory_order_relaxed)) {
  }
}

void Histogram::observe_micros(std::uint64_t micros) const noexcept {
  if (registry_ == nullptr || !registry_->enabled()) return;
  registry_->observe(index_, micros);
}

std::uint64_t histogram_quantile_micros(const HistogramSnapshot& h,
                                        double q) {
  if (h.count == 0) return 0;
  if (q < 0.0) q = 0.0;
  if (q > 1.0) q = 1.0;
  // Rank of the target observation (1-based, ceil): the smallest value
  // v such that at least q*count observations are <= v.
  const auto target = static_cast<std::uint64_t>(
      q * static_cast<double>(h.count) + 0.9999999999);
  std::uint64_t cumulative = 0;
  for (std::size_t i = 0; i <= kHistogramBuckets; ++i) {
    const std::uint64_t in_bucket = h.buckets[i];
    if (in_bucket == 0) continue;
    if (cumulative + in_bucket < target) {
      cumulative += in_bucket;
      continue;
    }
    // Linear interpolation inside the covering bucket.  Bucket 0 covers
    // (0, 1]; bucket i covers (2^(i-1), 2^i]; the +Inf bucket clamps to
    // twice the last finite bound.
    const double lower =
        i == 0 ? 0.0
               : static_cast<double>(histogram_bucket_bound(i - 1));
    const double upper =
        i >= kHistogramBuckets
            ? 2.0 * static_cast<double>(
                        histogram_bucket_bound(kHistogramBuckets - 1))
            : static_cast<double>(histogram_bucket_bound(i));
    const double fraction = static_cast<double>(target - cumulative) /
                            static_cast<double>(in_bucket);
    return static_cast<std::uint64_t>(lower + (upper - lower) * fraction);
  }
  return 2 * histogram_bucket_bound(kHistogramBuckets - 1);
}

void anchor_process_start() noexcept { (void)process_anchor(); }

std::uint64_t process_uptime_seconds() noexcept {
  const auto elapsed = std::chrono::steady_clock::now() - process_anchor();
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::seconds>(elapsed).count());
}

}  // namespace gsb::obs
