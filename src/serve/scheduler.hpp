#pragma once
// Batch scheduler of the inference-serving engine.
//
// Clients submit heterogeneous requests (SpMM/SDDMM, any precision pair)
// through a submit/future API. A dedicated scheduler thread collects the
// queue, lingers briefly so bursts coalesce, groups compatible requests
// (same op, precision, kernel variant, tile width) into batches, and
// dispatches every request of a batch concurrently over the global
// ThreadPool. Operand preparation is memoized by the OperandCache; kernels
// read immutable shared operand handles, so batch members alias one
// preparation safely.
//
// Concurrency contract: the scheduler thread never runs kernels itself and
// pool tasks never wait on futures. The only nesting is a kernel's
// parallel_for inside a request task, which recruits idle pool workers and
// drains the rest of its grid itself (common/thread_pool.hpp), so it is
// deadlock-free by construction. Results are bit-exact with sequential
// core::spmm / core::sddmm calls: batching changes only when work runs,
// never what it computes.

#include <cstdint>
#include <chrono>
#include <future>
#include <memory>

#include "serve/operand_cache.hpp"
#include "serve/request.hpp"
#include "serve/sla.hpp"
#include "serve/trace.hpp"
#include "simt/device_spec.hpp"

namespace magicube::serve {

struct BatchSchedulerConfig {
  /// Largest number of requests dispatched as one batch.
  std::size_t max_batch = 8;
  /// Modeled-work batch sizing: when > 0, each batch grows only while the
  /// aggregate modeled seconds of its members (priced on the cached plan
  /// via serve/sla.hpp's price_request, on the a100 reference spec) stays
  /// within this budget — the batch boundary follows modeled marginal
  /// latency instead of the static max_batch count, so heavy requests
  /// dispatch in small batches and light ones coalesce widely. The first
  /// member of a batch is always admitted (an oversized single request
  /// dispatches alone); max_batch remains the hard count cap. 0 keeps the
  /// static count-only batching.
  double batch_budget_seconds = 0.0;
  /// How long the scheduler waits for a forming batch to fill before
  /// dispatching what it has. Zero dispatches immediately.
  std::chrono::microseconds linger{200};
  /// Operand-cache budget (prepared operands + execution plans).
  std::size_t cache_capacity_bytes = 256ull << 20;
  /// Upper bound on requests sitting in the submit queue (accepted but not
  /// yet collected by the scheduler thread). When the bound is reached,
  /// submit() blocks until the scheduler drains the queue — backpressure
  /// instead of unbounded growth under overload. 0 = unbounded.
  std::size_t max_queue_depth = 0;
  /// Attach a RequestTrace to every request (Response::trace) and keep
  /// completed traces in the engine's bounded TraceLog.
  bool collect_traces = true;
  /// TraceLog ring capacity (oldest completed traces dropped beyond it).
  std::size_t trace_capacity = 4096;
};

/// Engine-level counters, reduced with += like simt::KernelCounters.
struct SchedulerStats {
  std::uint64_t submitted = 0;
  std::uint64_t completed = 0;  // includes failed
  std::uint64_t failed = 0;     // completed exceptionally
  std::uint64_t batches = 0;
  std::uint64_t batched_requests = 0;  // sum of batch sizes
  std::uint64_t max_batch_size = 0;

  SchedulerStats& operator+=(const SchedulerStats& o) {
    submitted += o.submitted;
    completed += o.completed;
    failed += o.failed;
    batches += o.batches;
    batched_requests += o.batched_requests;
    if (o.max_batch_size > max_batch_size) max_batch_size = o.max_batch_size;
    return *this;
  }
  friend bool operator==(const SchedulerStats&,
                         const SchedulerStats&) = default;

  double mean_batch_size() const {
    return batches == 0 ? 0.0
                        : static_cast<double>(batched_requests) /
                              static_cast<double>(batches);
  }
};

class BatchScheduler {
 public:
  explicit BatchScheduler(BatchSchedulerConfig cfg = {});
  /// Drains: every submitted request completes before destruction returns.
  ~BatchScheduler();

  /// Enqueues a request; the future carries the Response (or the exception
  /// the request failed with). Blocks while the submit queue is at
  /// max_queue_depth (backpressure). Throws Error after shutdown began.
  std::future<Response> submit(Request req);

  /// Blocks until every request submitted so far has completed.
  void drain();

  /// Stops intake, drains the queue, waits out in-flight work. Idempotent
  /// (the destructor calls it); submit() throws afterwards.
  void shutdown();

  /// The engine's operand cache (shared by all requests).
  OperandCache& cache() { return cache_; }
  const OperandCache& cache() const { return cache_; }

  /// Pre-builds every manifest entry's execution plan into the engine's
  /// cache and pins the entries marked hot for the engine's lifetime —
  /// known-hot layers start with plan hits instead of paying pure-LRU cold
  /// starts, and batch_budget_seconds prices them from the cached plan
  /// from the first request on. Idempotent; see serve/sla.hpp.
  WarmupReport warmup(const WarmupManifest& manifest);

  /// Completed-request traces (bounded ring; see serve/trace.hpp).
  const TraceLog& traces() const;

  SchedulerStats stats() const;
  const BatchSchedulerConfig& config() const { return cfg_; }

  BatchScheduler(const BatchScheduler&) = delete;
  BatchScheduler& operator=(const BatchScheduler&) = delete;

 private:
  struct Impl;
  BatchSchedulerConfig cfg_;
  OperandCache cache_;
  std::unique_ptr<Impl> impl_;
};

/// Executes one request synchronously against `cache` (the scheduler's
/// per-request body; also the building block for cache-only serving without
/// batching). Throws on malformed requests. Costs the run on simt::a100().
Response serve_request(const Request& req, OperandCache& cache);

/// Split-cache variant used by the multi-device pool: operands are prepared
/// in `operands` (a device's own cache budget) while execution plans live
/// in `plans` (shared across devices — plans are pattern-only, so every
/// device replays one build), and modeled_seconds is priced on `device`.
/// serve_request(req, cache) == serve_request(req, cache, cache, a100()).
Response serve_request(const Request& req, OperandCache& operands,
                       OperandCache& plans, const simt::DeviceSpec& device);

}  // namespace magicube::serve
