#include "parallel/job_graph.h"

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <exception>
#include <functional>
#include <mutex>
#include <stdexcept>
#include <utility>

#include "obs/metrics.h"
#include "obs/timeline.h"

namespace gsb::par {

namespace {

using Clock = std::chrono::steady_clock;

enum class JobState : std::uint8_t {
  kPending,   ///< waiting on prerequisites
  kReady,     ///< in a worker queue
  kRunning,   ///< body executing
  kFinished,  ///< body done, ordered completion not yet drained
  kSkipped,   ///< never ran (graph failed first)
  kDrained,   ///< fully retired
};

struct SchedMetrics {
  obs::Counter jobs;
  obs::Counter steals;
  obs::Histogram queue_wait;
  obs::Gauge ready_peak;
  obs::Gauge pending_peak;
};

SchedMetrics& sched_metrics() {
  static SchedMetrics m = [] {
    auto& reg = obs::MetricsRegistry::global();
    SchedMetrics handles;
    handles.jobs =
        reg.counter("gsb_sched_jobs_total", "Job bodies executed by JobGraph");
    handles.steals = reg.counter("gsb_sched_jobs_stolen_total",
                                 "Jobs executed off another worker's queue");
    handles.queue_wait =
        reg.histogram("gsb_sched_queue_wait_micros",
                      "Time jobs spent ready before a worker picked them up");
    handles.ready_peak = reg.gauge(
        "gsb_sched_ready_peak", "High-water count of simultaneously ready jobs");
    handles.pending_peak =
        reg.gauge("gsb_sched_pending_peak_bytes",
                  "High-water reorder-window occupancy across schedulers");
    return handles;
  }();
  return m;
}

}  // namespace

struct JobGraph::Impl {
  struct Job {
    std::function<void(std::size_t)> run;
    std::function<void()> complete;
    std::vector<JobId> succs;
    std::uint32_t remaining_deps = 0;
    std::uint32_t home = kNoHome;
    std::uint32_t queue = 0;  ///< ready queue it was placed in
    std::size_t bytes = 0;
    std::string label;
    JobState state = JobState::kPending;
    Clock::time_point ready_at{};
  };

  std::mutex mutex;
  std::condition_variable cv;
  std::vector<Job> jobs;
  /// Per-worker ready queues, each a min-heap of ids: a worker runs its
  /// lowest ready id first, so an ordered graph's completions can drain
  /// as soon as the edges allow.  Lazy removal: entries whose job is no
  /// longer kReady (claimed directly by the backpressure gate or
  /// skipped after a failure) are dropped on pop.
  std::vector<std::vector<JobId>> queues;
  std::size_t next_queue = 0;  ///< round-robin cursor for homeless jobs
  std::size_t ready_count = 0;
  std::size_t finished = 0;  ///< bodies done or skipped
  JobId drain_cursor = 0;    ///< next ordered completion to run
  std::size_t pending_bytes = 0;
  bool draining = false;
  bool started = false;
  bool done = false;
  std::exception_ptr failure;
  bool metrics_on = false;
  bool timeline_on = false;
};

JobGraph::JobGraph(ThreadPool* pool) : JobGraph(pool, Options{}) {}

JobGraph::JobGraph(ThreadPool* pool, Options options)
    : pool_(pool), options_(options), impl_(std::make_unique<Impl>()) {
  workers_ = std::max<std::size_t>(1, pool_ ? pool_->size() : 1);
  impl_->queues.resize(workers_);
  impl_->metrics_on = obs::MetricsRegistry::global().enabled();
  impl_->timeline_on = obs::TimelineJournal::global().enabled();
}

JobGraph::~JobGraph() = default;

std::size_t JobGraph::size() const {
  std::lock_guard<std::mutex> lock(impl_->mutex);
  return impl_->jobs.size();
}

JobId JobGraph::add(JobSpec spec) {
  if (!spec.run) {
    throw std::invalid_argument("JobGraph: job has no body");
  }
  std::lock_guard<std::mutex> lock(impl_->mutex);
  if (impl_->done) {
    throw std::logic_error("JobGraph: add after run() returned");
  }
  const JobId id = static_cast<JobId>(impl_->jobs.size());
  for (JobId dep : spec.deps) {
    if (dep >= id) {
      throw std::invalid_argument("JobGraph: dep does not exist");
    }
  }
  Impl::Job job;
  job.run = std::move(spec.run);
  job.complete = std::move(spec.complete);
  job.home = spec.home;
  job.bytes = spec.bytes;
  job.label = std::move(spec.label);
  if (impl_->failure) {
    // The graph already failed: a dynamically spawned job must not run,
    // and must not stall termination either.
    job.state = JobState::kSkipped;
    job.complete = nullptr;
    job.bytes = 0;
    ++impl_->finished;
    impl_->jobs.push_back(std::move(job));
    return id;
  }
  for (JobId dep : spec.deps) {
    Impl::Job& producer = impl_->jobs[dep];
    if (producer.state == JobState::kFinished ||
        producer.state == JobState::kDrained) {
      continue;  // already satisfied
    }
    producer.succs.push_back(id);
    ++job.remaining_deps;
  }
  impl_->jobs.push_back(std::move(job));
  if (impl_->jobs.back().remaining_deps == 0) {
    make_ready_locked(id);
    impl_->cv.notify_all();
  }
  return id;
}

void JobGraph::set_bytes(JobId id, std::size_t bytes) {
  std::lock_guard<std::mutex> lock(impl_->mutex);
  if (id >= impl_->jobs.size()) {
    throw std::invalid_argument("JobGraph: set_bytes on unknown job");
  }
  impl_->jobs[id].bytes = bytes;
}

void JobGraph::add_edge(JobId from, JobId to) {
  std::lock_guard<std::mutex> lock(impl_->mutex);
  if (impl_->started) {
    throw std::logic_error(
        "JobGraph: add_edge after run() started (use JobSpec::deps)");
  }
  if (from >= impl_->jobs.size() || to >= impl_->jobs.size()) {
    throw std::invalid_argument("JobGraph: edge endpoint does not exist");
  }
  if (from == to) {
    throw std::invalid_argument("JobGraph: self-edge is a cycle");
  }
  // Reject at submit time: adding from->to closes a cycle iff `from` is
  // already reachable from `to`.
  std::vector<JobId> stack{to};
  std::vector<bool> visited(impl_->jobs.size(), false);
  visited[to] = true;
  while (!stack.empty()) {
    const JobId at = stack.back();
    stack.pop_back();
    if (at == from) {
      throw std::invalid_argument("JobGraph: edge would create a cycle");
    }
    for (JobId succ : impl_->jobs[at].succs) {
      if (!visited[succ]) {
        visited[succ] = true;
        stack.push_back(succ);
      }
    }
  }
  impl_->jobs[from].succs.push_back(to);
  Impl::Job& sink = impl_->jobs[to];
  if (sink.remaining_deps++ == 0 && sink.state == JobState::kReady) {
    // Was enqueued as dependency-free; lazy removal drops the stale
    // queue entry when popped.
    sink.state = JobState::kPending;
    --impl_->ready_count;
  }
}

void JobGraph::run() {
  {
    std::lock_guard<std::mutex> lock(impl_->mutex);
    if (impl_->started) {
      throw std::logic_error("JobGraph: run() is single-shot");
    }
    impl_->started = true;
    if (impl_->jobs.empty()) {
      impl_->done = true;
      return;
    }
  }
  if (pool_ != nullptr && workers_ > 1) {
    pool_->run_round([this](std::size_t id) { worker_loop(id); });
  } else {
    worker_loop(0);
  }
  {
    std::lock_guard<std::mutex> lock(impl_->mutex);
    impl_->done = true;
  }
  if (impl_->metrics_on) {
    auto& m = sched_metrics();
    m.jobs.inc(stats_.jobs_run);
    if (stats_.jobs_stolen != 0) m.steals.inc(stats_.jobs_stolen);
    m.ready_peak.set_max(stats_.peak_ready);
    m.pending_peak.set_max(stats_.peak_pending_bytes);
  }
  if (impl_->failure) {
    std::rethrow_exception(impl_->failure);
  }
}

// ---------------------------------------------------------------------------
// Locked helpers.  All run under impl_->mutex; none call user code.

void JobGraph::make_ready_locked(JobId id) {
  Impl::Job& job = impl_->jobs[id];
  job.state = JobState::kReady;
  if (impl_->metrics_on || impl_->timeline_on) job.ready_at = Clock::now();
  const std::size_t queue =
      (job.home == kNoHome ? impl_->next_queue++
                           : static_cast<std::size_t>(job.home)) %
      workers_;
  job.queue = static_cast<std::uint32_t>(queue);
  std::vector<JobId>& ready = impl_->queues[queue];
  ready.push_back(id);
  std::push_heap(ready.begin(), ready.end(), std::greater<>());
  ++impl_->ready_count;
  stats_.peak_ready = std::max<std::uint64_t>(stats_.peak_ready, impl_->ready_count);
}

void JobGraph::fail_locked(std::exception_ptr error) {
  if (!impl_->failure) impl_->failure = std::move(error);
  // Skip everything that has not started; in-flight bodies finish on
  // their own and find nothing left to do.
  for (auto& job : impl_->jobs) {
    if (job.state == JobState::kPending || job.state == JobState::kReady) {
      job.state = JobState::kSkipped;
      ++impl_->finished;
    }
  }
  impl_->ready_count = 0;
  impl_->cv.notify_all();
}

bool JobGraph::all_done_locked() const {
  if (impl_->finished != impl_->jobs.size()) return false;
  if (options_.ordered &&
      impl_->drain_cursor != static_cast<JobId>(impl_->jobs.size())) {
    return false;
  }
  return true;
}

JobId JobGraph::pop_locked(std::size_t worker, bool* stolen) {
  const std::size_t scan = options_.steal ? workers_ : 1;
  for (std::size_t i = 0; i < scan; ++i) {
    auto& queue = impl_->queues[(worker + i) % workers_];
    while (!queue.empty()) {
      std::pop_heap(queue.begin(), queue.end(), std::greater<>());
      const JobId id = queue.back();
      queue.pop_back();
      if (impl_->jobs[id].state == JobState::kReady) {
        *stolen = i != 0;
        return id;
      }
      // Stale entry: claimed by the backpressure gate or skipped.
    }
  }
  return kNoHome;
}

// ---------------------------------------------------------------------------

void JobGraph::worker_loop(std::size_t worker) {
  obs::TimelineJournal& journal = obs::TimelineJournal::global();
  if (impl_->timeline_on) {
    journal.set_thread_lane("worker-" + std::to_string(worker));
  }
  std::unique_lock<std::mutex> lock(impl_->mutex);
  for (;;) {
    if (all_done_locked()) {
      impl_->cv.notify_all();
      return;
    }
    // Drain ordered completions first: one drainer at a time, strictly
    // in JobId order, user code outside the lock.
    if (options_.ordered && !impl_->draining &&
        impl_->drain_cursor < impl_->jobs.size()) {
      const JobState head = impl_->jobs[impl_->drain_cursor].state;
      if (head == JobState::kFinished || head == JobState::kSkipped) {
        impl_->draining = true;
        while (impl_->drain_cursor < impl_->jobs.size()) {
          Impl::Job& job = impl_->jobs[impl_->drain_cursor];
          if (job.state != JobState::kFinished &&
              job.state != JobState::kSkipped) {
            break;
          }
          const bool call = job.state == JobState::kFinished &&
                            job.complete != nullptr && !impl_->failure;
          auto complete = std::move(job.complete);
          if (job.state == JobState::kFinished) {
            impl_->pending_bytes -= job.bytes;
          }
          job.state = JobState::kDrained;
          ++impl_->drain_cursor;
          if (call) {
            lock.unlock();
            try {
              complete();
            } catch (...) {
              lock.lock();
              fail_locked(std::current_exception());
              continue;
            }
            lock.lock();
          }
        }
        impl_->draining = false;
        impl_->cv.notify_all();
        continue;
      }
    }
    JobId id = kNoHome;
    bool stolen = false;
    const bool window_full = options_.ordered && options_.window_bytes != 0 &&
                             impl_->pending_bytes >= options_.window_bytes;
    if (window_full && impl_->drain_cursor < impl_->jobs.size()) {
      // Reorder window is full: redirect to the next-to-drain job so
      // the drain cursor advances instead of piling up more output.
      Impl::Job& head = impl_->jobs[impl_->drain_cursor];
      if (head.state == JobState::kReady &&
          (options_.steal || head.queue == worker)) {
        id = impl_->drain_cursor;  // claim directly; queue entry goes stale
        --impl_->ready_count;
      } else if (head.state == JobState::kRunning ||
                 head.state == JobState::kFinished) {
        impl_->cv.wait(lock);
        continue;
      }
      // kPending head still needs its prerequisites: fall through and
      // run whatever is ready so they can finish.
    }
    if (id == kNoHome) {
      id = pop_locked(worker, &stolen);
      if (id == kNoHome) {
        if (all_done_locked()) continue;
        impl_->cv.wait(lock);
        continue;
      }
      --impl_->ready_count;
    }
    std::function<void(std::size_t)> body;
    std::function<void()> unordered_complete;
    std::string label;
    {
      Impl::Job& job = impl_->jobs[id];
      job.state = JobState::kRunning;
      ++stats_.jobs_run;
      if (stolen) ++stats_.jobs_stolen;
      if (impl_->metrics_on || impl_->timeline_on) {
        const auto waited = static_cast<std::uint64_t>(
            std::chrono::duration_cast<std::chrono::microseconds>(Clock::now() -
                                                                  job.ready_at)
                .count());
        if (impl_->metrics_on) {
          sched_metrics().queue_wait.observe_micros(waited);
        }
        if (impl_->timeline_on) {
          const std::uint64_t now = journal.now_micros();
          journal.record(obs::TimelineEventKind::kQueueWait,
                         now >= waited ? now - waited : 0, waited, id,
                         job.label);
          if (stolen) {
            journal.record_instant(obs::TimelineEventKind::kSteal, id,
                                   job.label);
          }
        }
      }
      label = std::move(job.label);
      body = std::move(job.run);
      if (!options_.ordered) unordered_complete = std::move(job.complete);
    }
    lock.unlock();
    const std::uint64_t job_start =
        impl_->timeline_on ? journal.now_micros() : 0;
    std::exception_ptr error;
    try {
      body(worker);
      if (unordered_complete) unordered_complete();
    } catch (...) {
      error = std::current_exception();
    }
    if (impl_->timeline_on) {
      journal.record(obs::TimelineEventKind::kJob, job_start,
                     journal.now_micros() - job_start, id, label);
    }
    lock.lock();
    // Re-index: a dynamic add() from the body may have grown the jobs
    // vector, invalidating any reference held across the unlock.
    Impl::Job& job = impl_->jobs[id];
    job.state = JobState::kFinished;
    ++impl_->finished;
    if (error) {
      job.complete = nullptr;
      job.bytes = 0;  // never entered the window; drain must not deduct it
      fail_locked(error);
      continue;
    }
    if (options_.ordered) {
      impl_->pending_bytes += job.bytes;
      stats_.peak_pending_bytes = std::max<std::uint64_t>(
          stats_.peak_pending_bytes, impl_->pending_bytes);
    }
    for (JobId succ : job.succs) {
      Impl::Job& sink = impl_->jobs[succ];
      if (sink.state == JobState::kPending && --sink.remaining_deps == 0) {
        make_ready_locked(succ);
      }
    }
    impl_->cv.notify_all();
  }
}

}  // namespace gsb::par
