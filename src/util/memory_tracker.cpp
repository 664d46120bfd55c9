#include "util/memory_tracker.h"

#include <cstdio>

#include <sys/resource.h>
#include <unistd.h>

namespace gsb::util {

void MemoryTracker::allocate(std::size_t bytes, MemTag tag) noexcept {
  per_tag_[index(tag)].fetch_add(bytes, std::memory_order_relaxed);
  const std::size_t now =
      current_.fetch_add(bytes, std::memory_order_relaxed) + bytes;
  std::size_t prev = peak_.load(std::memory_order_relaxed);
  while (now > prev &&
         !peak_.compare_exchange_weak(prev, now, std::memory_order_relaxed)) {
  }
}

void MemoryTracker::release(std::size_t bytes, MemTag tag) noexcept {
  per_tag_[index(tag)].fetch_sub(bytes, std::memory_order_relaxed);
  current_.fetch_sub(bytes, std::memory_order_relaxed);
}

void MemoryTracker::reset() noexcept {
  current_.store(0, std::memory_order_relaxed);
  peak_.store(0, std::memory_order_relaxed);
  for (auto& counter : per_tag_) counter.store(0, std::memory_order_relaxed);
}

std::string_view MemoryTracker::tag_name(MemTag tag) noexcept {
  switch (tag) {
    case MemTag::kCliqueStorage:
      return "clique-storage";
    case MemTag::kNextLevel:
      return "next-level";
    case MemTag::kBitmaps:
      return "bitmaps";
    case MemTag::kGraph:
      return "graph";
    case MemTag::kScratch:
      return "scratch";
    case MemTag::kResultCache:
      return "result-cache";
    case MemTag::kOther:
      return "other";
    case MemTag::kNumTags:
      break;
  }
  return "?";
}

MemoryTracker& global_memory_tracker() noexcept {
  static MemoryTracker tracker;
  return tracker;
}

std::size_t process_peak_rss_bytes() noexcept {
  struct rusage usage{};
  if (getrusage(RUSAGE_SELF, &usage) != 0) return 0;
#if defined(__APPLE__)
  return static_cast<std::size_t>(usage.ru_maxrss);  // bytes on Darwin
#else
  return static_cast<std::size_t>(usage.ru_maxrss) * 1024;  // KiB elsewhere
#endif
}

std::size_t process_current_rss_bytes() noexcept {
#if defined(__linux__)
  if (std::FILE* statm = std::fopen("/proc/self/statm", "r")) {
    unsigned long size_pages = 0;
    unsigned long resident_pages = 0;
    const int matched =
        std::fscanf(statm, "%lu %lu", &size_pages, &resident_pages);
    std::fclose(statm);
    if (matched == 2) {
      const long page = sysconf(_SC_PAGESIZE);
      return static_cast<std::size_t>(resident_pages) *
             static_cast<std::size_t>(page > 0 ? page : 4096);
    }
  }
#endif
  return process_peak_rss_bytes();
}

ByteString format_bytes(std::size_t bytes) noexcept {
  ByteString out{};
  const char* units[] = {"B", "KB", "MB", "GB", "TB"};
  double value = static_cast<double>(bytes);
  std::size_t unit = 0;
  while (value >= 1024.0 && unit + 1 < std::size(units)) {
    value /= 1024.0;
    ++unit;
  }
  std::snprintf(out.text, sizeof(out.text), unit == 0 ? "%.0f %s" : "%.2f %s",
                value, units[unit]);
  return out;
}

}  // namespace gsb::util
