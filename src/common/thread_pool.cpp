#include "common/thread_pool.hpp"

#include <algorithm>
#include <atomic>

#include "common/check.hpp"
#include <condition_variable>
#include <deque>
#include <exception>
#include <mutex>
#include <thread>
#include <vector>

namespace magicube {

namespace {
// Set once on each pool-owned thread; read by on_worker_thread().
thread_local bool tl_on_worker = false;
}  // namespace

struct ThreadPool::Impl {
  std::mutex mutex;
  std::condition_variable work_ready;
  std::deque<std::function<void()>> queue;
  std::size_t parked = 0;  // workers inside work_ready.wait
  bool stopping = false;
  std::vector<std::thread> threads;

  /// Workers that would pick up a new task right away: parked ones not
  /// already spoken for by queued tasks. Caller holds `mutex`.
  std::size_t idle_locked() const {
    return parked > queue.size() ? parked - queue.size() : 0;
  }

  void worker_loop() {
    tl_on_worker = true;
    for (;;) {
      std::function<void()> task;
      {
        std::unique_lock<std::mutex> lock(mutex);
        ++parked;
        work_ready.wait(lock, [&] { return stopping || !queue.empty(); });
        --parked;
        if (queue.empty()) return;  // stopping && drained
        task = std::move(queue.front());
        queue.pop_front();
      }
      task();
    }
  }
};

ThreadPool& ThreadPool::instance() {
  static ThreadPool pool;
  return pool;
}

ThreadPool::ThreadPool() : impl_(new Impl) {
  const unsigned hw = std::thread::hardware_concurrency();
  workers_ = hw == 0 ? 2 : hw;
  impl_->threads.reserve(workers_);
  for (std::size_t t = 0; t < workers_; ++t) {
    impl_->threads.emplace_back([this] { impl_->worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(impl_->mutex);
    impl_->stopping = true;
  }
  impl_->work_ready.notify_all();
  for (auto& t : impl_->threads) t.join();
}

bool ThreadPool::on_worker_thread() { return tl_on_worker; }

void ThreadPool::enqueue(std::function<void()> task) {
  {
    std::lock_guard<std::mutex> lock(impl_->mutex);
    MAGICUBE_CHECK_MSG(!impl_->stopping,
                       "task enqueued on a stopping ThreadPool — no worker "
                       "would ever run it");
    impl_->queue.push_back(std::move(task));
  }
  impl_->work_ready.notify_one();
}

namespace {

/// Shared state of one parallel_for invocation. Heap-owned (shared_ptr) so
/// helper tasks that the queue drains *after* the call returned only touch
/// live memory (they find no indices left and exit immediately).
struct ForState {
  std::size_t n;
  const std::function<void(std::size_t)>& fn;
  std::atomic<std::size_t> next{0};
  std::atomic<std::size_t> completed{0};
  std::atomic<bool> failed{false};
  std::exception_ptr first_error;
  std::mutex mutex;  // guards first_error and the completion wait
  std::condition_variable done;

  explicit ForState(std::size_t count,
                    const std::function<void(std::size_t)>& f)
      : n(count), fn(f) {}

  /// Claims and runs indices until the range is exhausted.
  void drain() {
    for (;;) {
      const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= n) return;
      if (!failed.load(std::memory_order_acquire)) {
        try {
          fn(i);
        } catch (...) {
          failed.store(true, std::memory_order_release);
          std::lock_guard<std::mutex> lock(mutex);
          if (!first_error) first_error = std::current_exception();
        }
      }
      if (completed.fetch_add(1, std::memory_order_acq_rel) + 1 == n) {
        std::lock_guard<std::mutex> lock(mutex);  // pair with the wait
        done.notify_all();
      }
    }
  }
};

}  // namespace

void ThreadPool::parallel_for(std::size_t n,
                              const std::function<void(std::size_t)>& fn) {
  if (n == 0) return;
  auto state = std::make_shared<ForState>(n, fn);
  // Count the idle workers and enqueue their helpers in one critical
  // section, so concurrent callers never recruit the same worker twice.
  std::size_t helpers = 0;
  {
    std::lock_guard<std::mutex> lock(impl_->mutex);
    helpers = std::min(n - 1, impl_->idle_locked());
    for (std::size_t t = 0; t < helpers; ++t) {
      impl_->queue.push_back([state] { state->drain(); });
    }
  }
  for (std::size_t t = 0; t < helpers; ++t) impl_->work_ready.notify_one();
  state->drain();  // the caller claims every index nobody else has

  std::unique_lock<std::mutex> lock(state->mutex);
  state->done.wait(lock, [&] {
    return state->completed.load(std::memory_order_acquire) == n;
  });
  if (state->first_error) std::rethrow_exception(state->first_error);
}

}  // namespace magicube
