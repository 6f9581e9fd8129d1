#pragma once
// Persistent thread pool with a parallel_for helper and a submit/future
// async API.
//
// The simulator executes thread blocks of a kernel grid as independent tasks;
// this mirrors how an A100 schedules blocks over SMs and keeps the functional
// simulation fast on multi-core hosts. The serving engine (src/serve/)
// additionally submits whole requests as fire-and-forget tasks whose results
// come back through std::future. Determinism note: block tasks only write
// disjoint output tiles and their private counters, which are reduced in
// block order, so results and counters are independent of scheduling.
//
// Fan-out rule: every parallel_for, whether called from a plain thread or
// from a pool worker (a kernel running inside a submitted serving task),
// enqueues min(n - 1, idle) helper drains and then drains the range in the
// caller. `idle` is the number of workers parked waiting for work minus the
// tasks already queued, read under the pool mutex, so a grid recruits only
// cores nobody else is using: with every worker busy it is 0 and the range
// runs inline on the caller, and closed-loop work is conserved.
//
// Why this cannot deadlock, nested or not: indices are claimed from a
// shared counter, and the caller itself claims and runs every index no one
// else has claimed. It then waits only for indices already claimed by
// threads that are running them, and those finish by the same argument
// applied to any parallel_for they nest. A helper that is still queued
// holds no index, so nothing waits on it; when it finally runs after the
// range is exhausted it returns at once. Blocking on a future from inside a
// pool task is NOT covered by this argument — keep future waits on non-pool
// threads.

#include <cstddef>
#include <functional>
#include <future>
#include <memory>
#include <type_traits>
#include <utility>

namespace magicube {

/// Global pool sized to std::thread::hardware_concurrency(). Lazily created.
class ThreadPool {
 public:
  static ThreadPool& instance();
  ~ThreadPool();

  /// Runs fn(i) for i in [0, n) on the calling thread plus whatever pool
  /// workers are idle — see the fan-out rule above. Exceptions from fn
  /// propagate (first one wins) after all claimed indices finish.
  void parallel_for(std::size_t n, const std::function<void(std::size_t)>& fn);

  /// Enqueues a task for asynchronous execution and returns a future for
  /// its result. Exceptions thrown by the task surface at future::get().
  /// Throws Error once the pool is shutting down (static destruction) —
  /// a loud failure instead of a future that never becomes ready.
  template <typename F>
  auto submit(F&& f) -> std::future<std::invoke_result_t<std::decay_t<F>>> {
    using R = std::invoke_result_t<std::decay_t<F>>;
    auto task = std::make_shared<std::packaged_task<R()>>(std::forward<F>(f));
    std::future<R> out = task->get_future();
    enqueue([task] { (*task)(); });
    return out;
  }

  /// Fire-and-forget enqueue: no future, one allocation cheaper than
  /// submit(). The task must handle its own failures (it has no one to
  /// rethrow to). Same shutdown behavior as submit().
  void post(std::function<void()> task) { enqueue(std::move(task)); }

  std::size_t worker_count() const { return workers_; }

  /// True on a thread owned by the pool (asserted by the regression tests).
  static bool on_worker_thread();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

 private:
  ThreadPool();
  void enqueue(std::function<void()> task);

  struct Impl;
  std::unique_ptr<Impl> impl_;
  std::size_t workers_ = 1;
};

/// Convenience free function.
inline void parallel_for(std::size_t n,
                         const std::function<void(std::size_t)>& fn) {
  ThreadPool::instance().parallel_for(n, fn);
}

}  // namespace magicube
