#ifndef GSB_PARALLEL_THREAD_POOL_H
#define GSB_PARALLEL_THREAD_POOL_H

/// \file thread_pool.h
/// A fixed team of worker threads executing bulk-synchronous rounds.
///
/// The paper's multithreaded Clique Enumerator is level-synchronous: the
/// scheduler hands out the level's sub-lists, signals all threads to
/// start, waits for all to finish, then collects results.
/// ThreadPool::run_round implements that "signal all / join all"
/// primitive over persistent threads (forking per level would distort the
/// fine-grained level timings the evaluation reports); par::JobGraph runs
/// each graph as one round, and the enumerator runs one graph per level.

#include <condition_variable>
#include <cstddef>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace gsb::par {

/// Persistent worker team.
class ThreadPool {
 public:
  /// Spawns \p threads workers (at least 1; 0 clamps to 1).
  explicit ThreadPool(std::size_t threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Number of workers.
  [[nodiscard]] std::size_t size() const noexcept { return workers_.size(); }

  /// Executes `body(thread_id)` on every worker concurrently and returns
  /// when all have finished.  Exceptions thrown by bodies terminate (the
  /// enumeration kernels are noexcept by construction); rounds must not be
  /// issued concurrently from multiple callers.
  ///
  /// Misuse is rejected instead of deadlocking: a round submitted after
  /// shutdown() throws std::runtime_error, and a round submitted from
  /// inside one of this pool's own running bodies (which would wait on
  /// workers that are all busy waiting on it) throws std::logic_error.
  /// Rounds on a *different* pool nest fine.
  void run_round(const std::function<void(std::size_t)>& body);

  /// Stops and joins the workers.  Idempotent; the destructor calls it.
  /// Must not race a run_round in flight (same single-caller contract as
  /// run_round itself).  After shutdown, run_round throws.
  void shutdown();

  /// True once shutdown() has run (or started).
  [[nodiscard]] bool stopped() const;

  /// Default worker count: hardware concurrency, at least 1.
  static std::size_t default_threads() noexcept;

 private:
  void worker_loop(std::size_t id);

  std::vector<std::thread> workers_;
  mutable std::mutex mutex_;
  std::condition_variable start_cv_;
  std::condition_variable done_cv_;
  const std::function<void(std::size_t)>* job_ = nullptr;
  std::uint64_t generation_ = 0;
  std::size_t remaining_ = 0;
  bool stop_ = false;
};

}  // namespace gsb::par

#endif  // GSB_PARALLEL_THREAD_POOL_H
