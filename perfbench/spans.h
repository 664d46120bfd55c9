#ifndef GSB_PERFBENCH_SPANS_H
#define GSB_PERFBENCH_SPANS_H

/// \file spans.h
/// The traced pass's span recorder.  The benchmark wraps each call it makes
/// into a gsb module (`bio.quantile_normalize`, `core.maximum_clique`, ...)
/// in a Scope; a span records its name, start, end, recording thread and
/// parent (the innermost open span on that thread).  Spans stay in memory
/// and are written once, as Chrome trace-event JSON, when the run ends.
///
/// The layer of a span is its name up to the first '.', and a span's self
/// time is its duration minus the time its child spans cover.

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

namespace gsb::perf {

struct Span {
  std::string name;
  double start_us = 0.0;
  double end_us = 0.0;
  int parent = -1;  ///< index into the recorder's spans, -1 for a root
  int tid = 0;

  [[nodiscard]] double seconds() const { return (end_us - start_us) * 1e-6; }
  [[nodiscard]] std::string layer() const {
    return name.substr(0, name.find('.'));
  }
};

class SpanRecorder {
 public:
  SpanRecorder() : origin_(std::chrono::steady_clock::now()) {}

  /// Opens a span on the calling thread; returns its index.
  int open(const std::string& name) {
    const double now = now_us();
    const std::lock_guard<std::mutex> lock(mutex_);
    std::vector<int>& stack = stacks_[std::this_thread::get_id()];
    Span span;
    span.name = name;
    span.start_us = now;
    span.parent = stack.empty() ? -1 : stack.back();
    span.tid = thread_number(std::this_thread::get_id());
    spans_.push_back(std::move(span));
    const int index = static_cast<int>(spans_.size()) - 1;
    stack.push_back(index);
    return index;
  }

  void close(int index) {
    const double now = now_us();
    const std::lock_guard<std::mutex> lock(mutex_);
    spans_[static_cast<std::size_t>(index)].end_us = now;
    std::vector<int>& stack = stacks_[std::this_thread::get_id()];
    if (!stack.empty() && stack.back() == index) stack.pop_back();
  }

  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }

  /// Self seconds of every span (duration minus its children's).
  [[nodiscard]] std::vector<double> self_seconds() const {
    std::vector<double> self(spans_.size());
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      self[i] = spans_[i].seconds();
    }
    for (const Span& span : spans_) {
      if (span.parent >= 0) {
        self[static_cast<std::size_t>(span.parent)] -= span.seconds();
      }
    }
    for (double& s : self) s = std::max(0.0, s);
    return self;
  }

  /// True when span \p index lies under span \p root (or is it).
  [[nodiscard]] bool within(int index, int root) const {
    for (int at = index; at >= 0;
         at = spans_[static_cast<std::size_t>(at)].parent) {
      if (at == root) return true;
    }
    return false;
  }

  /// Sum of durations of the spans named \p name under \p root.
  [[nodiscard]] double total_seconds(const std::string& name,
                                     int root = -1) const {
    double sum = 0.0;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      if (spans_[i].name == name &&
          (root < 0 || within(static_cast<int>(i), root))) {
        sum += spans_[i].seconds();
      }
    }
    return sum;
  }

  /// Sum of self times of the spans named \p name under \p root.
  [[nodiscard]] double self_total(const std::string& name,
                                  int root = -1) const {
    const std::vector<double> self = self_seconds();
    double sum = 0.0;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      if (spans_[i].name == name &&
          (root < 0 || within(static_cast<int>(i), root))) {
        sum += self[i];
      }
    }
    return sum;
  }

  /// Self seconds per layer over the spans strictly under \p root.
  [[nodiscard]] std::map<std::string, double> layer_self(int root) const {
    const std::vector<double> self = self_seconds();
    std::map<std::string, double> out;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      if (static_cast<int>(i) != root && within(static_cast<int>(i), root)) {
        out[spans_[i].layer()] += self[i];
      }
    }
    return out;
  }

  /// Writes every span as a Chrome trace-event JSON document (ph "X"
  /// complete events, one tid per recording thread, parent in args).
  void write_chrome_trace(std::FILE* out, const std::string& other) const {
    std::fprintf(out, "{\"displayTimeUnit\":\"ms\",\"otherData\":%s,"
                      "\"traceEvents\":[",
                 other.c_str());
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::fprintf(out,
                   "%s{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\","
                   "\"ts\":%.3f,\"dur\":%.3f,\"pid\":1,\"tid\":%d,"
                   "\"args\":{\"id\":%zu,\"parent\":%d}}",
                   i == 0 ? "" : ",\n", s.name.c_str(), s.layer().c_str(),
                   s.start_us, s.end_us - s.start_us, s.tid, i, s.parent);
    }
    std::fprintf(out, "]}\n");
  }

 private:
  [[nodiscard]] double now_us() const {
    return std::chrono::duration<double, std::micro>(
               std::chrono::steady_clock::now() - origin_)
        .count();
  }
  int thread_number(std::thread::id id) {
    const auto it = threads_.find(id);
    if (it != threads_.end()) return it->second;
    const int number = static_cast<int>(threads_.size()) + 1;
    threads_.emplace(id, number);
    return number;
  }

  std::chrono::steady_clock::time_point origin_;
  std::mutex mutex_;
  std::vector<Span> spans_;
  std::map<std::thread::id, std::vector<int>> stacks_;
  std::map<std::thread::id, int> threads_;
};

/// RAII span; a null recorder records nothing.
class Scope {
 public:
  Scope(SpanRecorder* recorder, const char* name)
      : recorder_(recorder), index_(recorder ? recorder->open(name) : -1) {}
  ~Scope() {
    if (recorder_ != nullptr) recorder_->close(index_);
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

  [[nodiscard]] int index() const { return index_; }

 private:
  SpanRecorder* recorder_;
  int index_;
};

}  // namespace gsb::perf

#endif  // GSB_PERFBENCH_SPANS_H
