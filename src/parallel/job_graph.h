#ifndef GSB_PARALLEL_JOB_GRAPH_H
#define GSB_PARALLEL_JOB_GRAPH_H

/// \file job_graph.h
/// Dependency-aware DAG scheduler over par::ThreadPool.
///
/// The pipeline stages each grew their own fan-out machinery: the
/// correlation sweep claimed tiles off an atomic cursor and reordered
/// hits under a mutex, parallel Bron-Kerbosch combined a LoadBalancer
/// plan (now the Altix replay's alone) with a reorder buffer and
/// backpressure gate, and BatchExecutor striped request lines over a
/// borrowed pool.  JobGraph subsumes all
/// three: callers describe *jobs* (a parallel body plus an optional
/// ordered completion) and *edges* (prerequisites), and the scheduler
/// provides home-queue placement with work stealing, cycle rejection at
/// submit time, dynamic job spawn from running bodies, and a
/// deterministic-completion mode that preserves the repo's
/// byte-identical-output contract at every thread count.
///
/// Determinism contract: job bodies may run in any order consistent
/// with the edges and must confine side effects to job-private state
/// (their result slot, per-worker scratch).  When `Options::ordered` is
/// set, each job's `complete` callback runs exactly in JobId order —
/// the order `add` was called — one at a time, regardless of worker
/// count.  Emitting output only from `complete` therefore yields the
/// same bytes at 1 or N threads.  A worker runs the lowest JobId ready in
/// its queue (or, stealing, in another's), so completions drain as soon
/// as the edges allow.  `Options::window_bytes` bounds the
/// reorder window exactly like parallel_bk's emitter: when finished-
/// but-undrained completions exceed the window, workers redirect to the
/// next-to-drain job instead of opening new work.
///
/// Edges release successors when the producer's *body* finishes (not
/// its ordered completion), so downstream stages overlap with the
/// emission tail — finished correlation rows can seed clique roots
/// while the writer drains earlier tiles.

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "parallel/thread_pool.h"

namespace gsb::par {

using JobId = std::uint32_t;

/// Sentinel: job has no preferred worker; ready jobs without a home are
/// dealt round-robin across the worker queues.
inline constexpr std::uint32_t kNoHome = 0xFFFFFFFFu;

/// Aggregate counters for one JobGraph::run (also mirrored into
/// obs::MetricsRegistry under the gsb_sched_* family).
struct JobGraphStats {
  std::uint64_t jobs_run = 0;      ///< bodies executed (skipped jobs excluded)
  std::uint64_t jobs_stolen = 0;   ///< bodies taken from another worker's queue
  std::uint64_t peak_ready = 0;    ///< high-water count of simultaneously ready jobs
  std::uint64_t peak_pending_bytes = 0;  ///< high-water reorder-window occupancy
};

/// Single-shot DAG scheduler.  Build the graph with add/add_edge, call
/// run() once, then read stats().  Thread-safe for add() from inside
/// running job bodies (dynamic spawn); construction-phase calls are
/// single-caller like the rest of the parallel layer.
class JobGraph {
 public:
  struct Options {
    /// Run each job's `complete` callback in JobId order (deterministic
    /// emission).  When false, `complete` runs immediately after the
    /// body on the same worker, unordered.
    bool ordered = false;
    /// Reorder-window bound in bytes for ordered mode; 0 = unbounded.
    /// Jobs account against the window with JobSpec::bytes from body
    /// finish until their completion drains.
    std::size_t window_bytes = 0;
    /// Idle workers take ready jobs from other workers' queues.  Off,
    /// each worker only runs jobs homed to it (static-plan ablation).
    bool steal = true;
  };

  struct JobSpec {
    /// Parallel body; receives the executing worker id in
    /// [0, workers()).  Required.
    std::function<void(std::size_t)> run;
    /// Optional completion; ordered mode runs it in JobId order.
    std::function<void()> complete;
    /// Prerequisite jobs (must already exist).  Edges added here cannot
    /// form a cycle by construction; use add_edge for arbitrary pairs.
    std::vector<JobId> deps;
    /// Preferred worker queue; kNoHome round-robins.
    std::uint32_t home = kNoHome;
    /// Reorder-window accounting for ordered mode.
    std::size_t bytes = 0;
    /// Timeline label for this job's span (obs/timeline.h); empty jobs
    /// show up under their JobId only.  Purely observational.
    std::string label;
  };

  /// \p pool may be null: the graph then runs inline on the calling
  /// thread (worker id 0), which is also the path taken for one-worker
  /// pools.  The pool is borrowed, not owned.
  explicit JobGraph(ThreadPool* pool);
  JobGraph(ThreadPool* pool, Options options);
  ~JobGraph();

  JobGraph(const JobGraph&) = delete;
  JobGraph& operator=(const JobGraph&) = delete;

  /// Adds a job; returns its id (ids are dense, in add order).  Legal
  /// from inside a running body of this graph (the new job becomes
  /// ready once its deps finish).  Throws std::invalid_argument if a
  /// dep id does not exist, std::logic_error after run() has returned.
  JobId add(JobSpec spec);

  /// Convenience for dependency-free jobs.
  JobId add(std::function<void(std::size_t)> body) {
    JobSpec spec;
    spec.run = std::move(body);
    return add(std::move(spec));
  }

  /// Replaces the job's reorder-window accounting (JobSpec::bytes).
  /// Meant to be called from the job's own body once the actual output
  /// size is known; the value is read when the body finishes.
  void set_bytes(JobId id, std::size_t bytes);

  /// Declares that \p to must wait for \p from.  Rejected with
  /// std::invalid_argument at submit time if it would close a cycle
  /// (including self-edges); throws std::logic_error once run() has
  /// started (dynamic jobs declare deps through JobSpec::deps instead).
  void add_edge(JobId from, JobId to);

  /// Executes the graph to completion and drains all ordered
  /// completions.  If any body or completion throws, remaining
  /// not-yet-started jobs are skipped, in-flight bodies finish, and the
  /// first exception is rethrown — the pool itself stays usable.
  /// Single-shot: a second call throws std::logic_error.
  void run();

  /// Effective worker count this graph schedules across.
  [[nodiscard]] std::size_t workers() const noexcept { return workers_; }

  /// Number of jobs added so far.
  [[nodiscard]] std::size_t size() const;

  /// Valid after run() returns (or throws).
  [[nodiscard]] const JobGraphStats& stats() const noexcept { return stats_; }

 private:
  struct Impl;
  void worker_loop(std::size_t worker);
  void make_ready_locked(JobId id);
  void fail_locked(std::exception_ptr error);
  [[nodiscard]] bool all_done_locked() const;
  JobId pop_locked(std::size_t worker, bool* stolen);

  ThreadPool* pool_;
  Options options_;
  std::size_t workers_;
  JobGraphStats stats_;
  std::unique_ptr<Impl> impl_;
};

}  // namespace gsb::par

#endif  // GSB_PARALLEL_JOB_GRAPH_H
