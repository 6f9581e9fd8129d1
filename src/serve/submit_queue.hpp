#pragma once
// Submit-queue front half of the serving engine (DevicePool).
//
// A submit/future API feeding one dispatcher thread through a bounded queue
// with linger-based coalescing, backpressure, drain() and a
// shutdown-with-inflight-work discipline. The Dispatch callback consumes
// each collected queue drain (DevicePool prices and places it onto
// devices).
//
// Lifecycle / concurrency contract (asserted by tests/test_fleet.cpp's
// DevicePoolLifecycle suite):
//   - submit() blocks while the queue sits at max_queue_depth
//     (backpressure) and throws Error once shutdown began — including for
//     submitters woken *out of* the backpressure wait by shutdown;
//   - the dispatcher always takes the whole queue, never submits, so the
//     backpressure wait cannot deadlock;
//   - every request handed to Dispatch is retired by exactly one
//     complete() call once its promise is fulfilled;
//   - shutdown() is idempotent and safe to call repeatedly (and the
//     destructor calls it): it stops intake, lets the dispatcher drain the
//     queue, then blocks until in-flight work completed and
//     backpressure-blocked submitters left the wait — the owner may
//     destroy caches/stats the work references right after;
//   - tracing: when Tuning::collect_traces is set every admitted request
//     carries a RequestTrace (serve/trace.hpp) stamped with kEngineId and
//     its admission sequence number; the Dispatch owner fills in the
//     spans.

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <thread>
#include <utility>

#include "common/check.hpp"
#include "serve/request.hpp"
#include "serve/trace.hpp"

namespace magicube::serve::detail {

/// Engine id stamped on every trace and TraceLog document.
inline constexpr const char* kEngineId = "device_pool";

/// One admitted request travelling from submit() through Dispatch to its
/// promise fulfilment.
struct PendingRequest {
  Request req;
  std::promise<Response> promise;
  std::shared_ptr<RequestTrace> trace;  // null when tracing is off
};

class SubmitQueueCore {
 public:
  struct Tuning {
    /// How long the dispatcher lingers for a forming drain to grow.
    std::chrono::microseconds linger{200};
    /// Bounded queue; submit() blocks at the bound (0 = unbounded).
    std::size_t max_queue_depth = 0;
    /// Attach a RequestTrace to every admitted request.
    bool collect_traces = false;
  };

  /// Consumes one collected queue drain. Runs on the dispatcher thread;
  /// must eventually fulfil every promise and call complete() per request.
  using Dispatch = std::function<void(std::deque<PendingRequest>)>;

  SubmitQueueCore() = default;
  ~SubmitQueueCore() { shutdown(); }

  SubmitQueueCore(const SubmitQueueCore&) = delete;
  SubmitQueueCore& operator=(const SubmitQueueCore&) = delete;

  /// Spawns the dispatcher thread. Call exactly once, before any submit.
  void start(const Tuning& tuning, Dispatch dispatch) {
    tuning_ = tuning;
    dispatch_ = std::move(dispatch);
    thread_ = std::thread([this] { loop(); });
  }

  std::future<Response> submit(Request req) {
    PendingRequest p;
    p.req = std::move(req);
    std::future<Response> out = p.promise.get_future();
    {
      std::unique_lock<std::mutex> lock(mutex_);
      MAGICUBE_CHECK_MSG(!stopping_,
                         "submit on a stopping DevicePool");
      if (tuning_.max_queue_depth > 0) {
        // Backpressure: block until the dispatcher collects the queue (it
        // always takes the whole queue, so space frees in bulk) or
        // shutdown begins. The wait never deadlocks: the dispatcher
        // thread consumes the queue without ever calling submit(). The
        // blocked count lets shutdown() wait for woken submitters to
        // leave the wait before the owner destroys the mutex/condvar
        // (notify under the lock, same discipline as complete()'s idle
        // notification).
        blocked_submitters_ += 1;
        queue_space_.wait(lock, [&] {
          return stopping_ || queue_.size() < tuning_.max_queue_depth;
        });
        blocked_submitters_ -= 1;
        if (blocked_submitters_ == 0) idle_.notify_all();
        MAGICUBE_CHECK_MSG(!stopping_,
                           "submit on a stopping DevicePool");
      }
      submitted_ += 1;
      if (tuning_.collect_traces) {
        p.trace = std::make_shared<RequestTrace>();
        p.trace->request_id = submitted_;
        p.trace->engine = kEngineId;
      }
      queue_.push_back(std::move(p));
      outstanding_ += 1;
      // Notify under the lock (complete()'s discipline): shutdown() only
      // waits for outstanding_ == 0, which the dispatcher can reach the
      // instant we unlock — a notify issued after releasing the mutex
      // would race the owner destroying this condition variable.
      queue_changed_.notify_all();
    }
    return out;
  }

  /// Blocks until every request submitted so far has completed.
  void drain() {
    std::unique_lock<std::mutex> lock(mutex_);
    idle_.wait(lock, [&] { return outstanding_ == 0; });
  }

  /// One request retired (its promise fulfilled). Any thread.
  void complete() {
    std::lock_guard<std::mutex> lock(mutex_);
    outstanding_ -= 1;
    // Notify under the lock: a drain()/shutdown() waiter may destroy this
    // condition variable as soon as it observes outstanding == 0.
    idle_.notify_all();
  }

  /// Stops intake, drains the queue, waits out in-flight work and blocked
  /// submitters. Idempotent; double (and concurrent) shutdown is safe.
  void shutdown() {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      stopping_ = true;
      // Notify under the lock: a concurrent shutdown() caller can observe
      // the idle predicate and let the owner destroy these condition
      // variables while a notify issued after the unlock is still running.
      queue_changed_.notify_all();
      queue_space_.notify_all();  // blocked submitters must observe stop
    }
    std::thread to_join;
    {
      std::lock_guard<std::mutex> lock(mutex_);
      if (thread_.joinable()) to_join = std::move(thread_);
    }
    if (to_join.joinable()) to_join.join();  // exits once queue is drained
    std::unique_lock<std::mutex> lock(mutex_);
    idle_.wait(lock, [&] {
      return outstanding_ == 0 && blocked_submitters_ == 0;
    });
  }

  /// Requests admitted so far (the owner's `submitted` stat).
  std::uint64_t submitted() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return submitted_;
  }

  /// Live-tunes the linger for subsequent dispatch rounds — the SLA
  /// layer's adaptive cadence: an engine that just saw deadline pressure
  /// drops the linger to 0 so the next drain dispatches immediately, and
  /// restores the configured value once the pressure clears. Safe from any
  /// thread, including from inside the Dispatch callback (the dispatcher
  /// invokes Dispatch without holding the queue mutex).
  void set_linger(std::chrono::microseconds linger) {
    std::lock_guard<std::mutex> lock(mutex_);
    tuning_.linger = linger;
  }

 private:
  void loop() {
    for (;;) {
      std::deque<PendingRequest> taken;
      {
        std::unique_lock<std::mutex> lock(mutex_);
        queue_changed_.wait(lock, [&] { return stopping_ || !queue_.empty(); });
        if (queue_.empty()) return;  // stopping && drained
        if (!stopping_ && tuning_.linger.count() > 0) {
          // Linger so bursts coalesce into one dispatch round. A full
          // bounded queue (submitters are blocked on space — waiting
          // longer cannot grow the drain) cuts it short.
          const std::size_t depth = tuning_.max_queue_depth;
          queue_changed_.wait_for(lock, tuning_.linger, [&] {
            return stopping_ || (depth > 0 && queue_.size() >= depth);
          });
        }
        taken.swap(queue_);
        // The queue is empty again: wake submitters blocked on depth.
        queue_space_.notify_all();
      }
      dispatch_(std::move(taken));
    }
  }

  Tuning tuning_;
  Dispatch dispatch_;
  mutable std::mutex mutex_;
  std::condition_variable queue_changed_;  // dispatcher wakes on submit/stop
  std::condition_variable queue_space_;    // bounded submitters wake on drain
  std::condition_variable idle_;           // drain()/shutdown wake on retire
  std::deque<PendingRequest> queue_;
  bool stopping_ = false;
  std::uint64_t submitted_ = 0;
  std::uint64_t outstanding_ = 0;        // admitted, promise not fulfilled
  std::uint64_t blocked_submitters_ = 0; // inside the backpressure wait
  std::thread thread_;
};

}  // namespace magicube::serve::detail
