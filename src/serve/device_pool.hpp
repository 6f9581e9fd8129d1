#pragma once
// Elastic heterogeneous multi-device serving engine: one dispatcher over N
// simulated devices, with cost-model-driven placement, fault recovery and
// per-request tracing.
//
// A DevicePool runs a submit/future contract (the detail::SubmitQueueCore
// front half, serve/submit_queue.hpp) over a fleet of simulated DeviceSpec
// workers. Each worker owns a modeled clock (the cost model's accumulated
// busy seconds — the device analogue of queue depth) and its own
// OperandCache byte budget; a shared plan cache holds the pattern-only
// execution plans every device replays (plans are value- and device-free,
// so one build serves the whole fleet).
//
// Heterogeneity & elasticity: the fleet may mix specs (an A100-class part
// beside simt::edge()-class parts) — placement prices every request *per
// candidate spec* with simt::estimate_seconds and assigns it to the device
// with the earliest modeled completion time (backlog + per-spec estimate),
// so a fast part naturally absorbs more traffic than a slow one. Devices
// join mid-traffic with add_device() and leave with drain_device(): a
// drained device stops receiving placements immediately but finishes (or
// requeues, on failure) work already placed. On a homogeneous fleet the
// estimate is a uniform addend and the argmin reduces to least modeled
// backlog, exactly the PR 5 behavior; ties are still broken round-robin.
//
// Fault injection & recovery: a FaultPlan (serve/fault.hpp) fails selected
// kernel executions deterministically. A failed execution — injected or
// genuine — rolls its estimate off the device's modeled clock, releases
// its pins, and is requeued to a surviving (active, preferably different)
// device under a bounded per-request retry budget (max_retries); an
// exhausted budget surfaces a clean Error on the future. Outputs stay
// bit-exact vs the sequential reference regardless of injected failures
// (tests/test_fleet.cpp property tier).
//
// Sharding: a request (SpMM or SDDMM) whose modeled runtime exceeds
// shard_threshold_seconds is split row-wise along SR-BCRS block-row
// boundaries (serve/shard.hpp) into up to active-device-count sub-problems
// — never below one modeled wave (the largest active sm_count) — whose
// sub-plans come from the shared plan cache (pinned for the request's
// lifetime), executed in parallel across the least-loaded devices and
// merged by a bit-exact row-concatenation epilogue (dense rows for SpMM,
// BCRS concatenation for SDDMM). Failed slices requeue individually.
//
// SLA layer (serve/sla.hpp): requests may carry a deadline in modeled
// seconds. Dispatch orders each drain by priority, then earliest deadline
// first within a class; a request whose modeled completion (best-candidate
// backlog + per-spec estimate) exceeds its deadline at admission — or at a
// retry re-placement — is shed with a clean ShedError (counted, traced
// with a `shed` span, never silently dropped). A dispatch round that saw
// deadline pressure drops the linger to 0 for the next round
// (adaptive_linger) so backlog drains at full cadence. warmup() pre-builds
// and pins a manifest's hot plans; affinity_tolerance_seconds routes
// repeat-pattern traffic back to the device that served the pattern last
// (where its prepared operands are resident) when the modeled completion
// delta stays under the tolerance. When a device drains mid-backlog, the
// cost model re-prices its queued (not yet executing) work onto the
// surviving devices (`replace` trace spans) instead of finishing it on the
// leaving device; a re-placement is not a retry and consumes no
// max_retries.
//
// Tracing: every request carries a RequestTrace (serve/trace.hpp) of
// queue → price → place → [shard] → replay → [retry] → merge spans over
// modeled time (plus `shed`/`replace`, above), with device ids and
// cache-hit attributes; completed traces land in a bounded TraceLog
// exportable as JSON next to BENCH_*.json.
//
// Concurrency contract: unchanged — the dispatcher thread never executes
// kernels, pool tasks never wait on futures (a sharded request's slices
// rendezvous through an atomic countdown, and the last finisher merges),
// so a kernel's parallel_for inside a request task is the only nesting,
// and the ThreadPool's fan-out rule keeps that deadlock-free. Wall-clock
// execution shares the host ThreadPool; the per-device state is *modeled*,
// which is exactly what the scaling bench gates.

#include <chrono>
#include <cstdint>
#include <future>
#include <memory>
#include <vector>

#include "serve/fault.hpp"
#include "serve/operand_cache.hpp"
#include "serve/request.hpp"
#include "serve/sla.hpp"
#include "serve/trace.hpp"
#include "simt/device_spec.hpp"

namespace magicube::serve {

struct SessionConfig;  // serve/session.hpp
class TokenSession;    // serve/session.hpp

struct DevicePoolConfig {
  /// Initial per-device specs (heterogeneous fleet). When non-empty this
  /// wins over device_count/device; add_device() appends more at runtime.
  std::vector<simt::DeviceSpec> devices;
  /// Homogeneous fallback: device_count copies of `device` (used only when
  /// `devices` is empty).
  std::size_t device_count = 2;
  simt::DeviceSpec device = simt::a100();
  /// Operand-cache budget per device (prepared operands, incl. row slices).
  std::size_t cache_capacity_bytes = 256ull << 20;
  /// Shared plan-cache budget (pattern-only plans + sub-plans).
  std::size_t plan_cache_capacity_bytes = 64ull << 20;
  /// Requests whose modeled runtime (priced on the reference `device` spec)
  /// exceeds this are split row-wise across devices. 0 disables sharding.
  /// The default sits well above the Fig. 12 single-layer shapes (~4-5 us
  /// modeled on the A100 spec) so ordinary traffic places whole and only
  /// genuinely giant patterns shard.
  double shard_threshold_seconds = 2e-5;
  /// Hard cap on row shards per request (0 = active device count).
  std::size_t max_shards = 0;
  /// Wave-fill floor: minimum grid blocks a row shard must keep so the
  /// device it moves to still has work for every SM. 0 = the largest
  /// active sm_count (one block per SM). Tests lower it to shard tiny
  /// problems.
  std::size_t wave_floor_blocks = 0;
  /// How long the dispatcher lingers so a burst coalesces into one
  /// dispatch round. Zero dispatches immediately.
  std::chrono::microseconds linger{200};
  /// Bounded submit queue; submit() blocks at the bound (0 = unbounded).
  std::size_t max_queue_depth = 0;
  /// Deterministic fault injection (tests/soaks; see serve/fault.hpp).
  FaultPlan fault_plan;
  /// Requeues granted per request (and per shard slice) after an execution
  /// failure before the error surfaces on the future.
  std::size_t max_retries = 2;
  /// Attach a RequestTrace to every request (Response::trace) and keep
  /// completed traces in the pool's bounded TraceLog.
  bool collect_traces = true;
  /// TraceLog ring capacity (oldest completed traces dropped beyond it).
  std::size_t trace_capacity = 4096;
  /// Device-affinity placement: when > 0, a whole request whose pattern
  /// was served before is routed back to the device that served it last
  /// (where its prepared operands are resident) as long as the modeled
  /// completion there exceeds the earliest-completion candidate by at most
  /// this tolerance (and stays within the deadline). 0 disables — the
  /// default, keeping pure earliest-completion placement (and its
  /// round-robin tie spreading) for deployments that don't opt in.
  double affinity_tolerance_seconds = 0.0;
  /// Drop the linger to 0 for the dispatch round after one that shed work
  /// or placed a deadline past half its budget, restoring `linger` once
  /// the pressure clears. Modeled-latency-driven cadence instead of a
  /// static knob; counted as urgent_rounds.
  bool adaptive_linger = true;
  /// Token-stream admission budget (serve/session.hpp): the sum of modeled
  /// full-length step costs (price_session_step_seconds on the reference
  /// `device` spec) across open sessions may not exceed this. open_session
  /// throws ShedError once the population would — deadline shedding's
  /// admission-control analogue for streams. 0 = unlimited.
  double session_budget_seconds = 0.0;
};

/// Per-device modeled telemetry.
struct DeviceStats {
  std::uint64_t placed = 0;        // whole requests placed on this device
  std::uint64_t shard_slices = 0;  // row slices executed on this device
  std::uint64_t completed = 0;     // placed requests + slices finished
  double modeled_busy_seconds = 0.0;  // accumulated cost-model time

  DeviceStats& operator+=(const DeviceStats& o) {
    placed += o.placed;
    shard_slices += o.shard_slices;
    completed += o.completed;
    modeled_busy_seconds += o.modeled_busy_seconds;
    return *this;
  }
  friend bool operator==(const DeviceStats&, const DeviceStats&) = default;
};

/// Pool-level counters (reduced with += like the other stats aggregates;
/// devices align by index, so summing pools of different sizes keeps the
/// longer fleet).
struct DevicePoolStats {
  std::uint64_t submitted = 0;
  std::uint64_t completed = 0;  // includes failed
  std::uint64_t failed = 0;
  std::uint64_t sharded_requests = 0;
  std::uint64_t shard_slices = 0;
  std::uint64_t tie_breaks = 0;        // placements decided round-robin
  std::uint64_t faults_injected = 0;   // FaultPlan-selected executions
  std::uint64_t retries = 0;           // requeues after failed executions
  std::uint64_t shed = 0;              // deadline-shed requests (⊆ failed)
  std::uint64_t replaced = 0;          // queued work re-priced off a drain
  std::uint64_t affinity_hits = 0;     // placements upgraded by affinity
  std::uint64_t urgent_rounds = 0;     // dispatch rounds under SLA pressure
  std::uint64_t graph_requests = 0;    // fused attention DAGs placed whole
  std::uint64_t sessions_opened = 0;   // token streams admitted
  std::uint64_t sessions_closed = 0;   // token streams released
  std::uint64_t sessions_shed = 0;     // open_session budget rejections
  std::uint64_t session_steps = 0;     // stream steps submitted
  std::vector<DeviceStats> devices;

  DevicePoolStats& operator+=(const DevicePoolStats& o) {
    submitted += o.submitted;
    completed += o.completed;
    failed += o.failed;
    sharded_requests += o.sharded_requests;
    shard_slices += o.shard_slices;
    tie_breaks += o.tie_breaks;
    faults_injected += o.faults_injected;
    retries += o.retries;
    shed += o.shed;
    replaced += o.replaced;
    affinity_hits += o.affinity_hits;
    urgent_rounds += o.urgent_rounds;
    graph_requests += o.graph_requests;
    sessions_opened += o.sessions_opened;
    sessions_closed += o.sessions_closed;
    sessions_shed += o.sessions_shed;
    session_steps += o.session_steps;
    if (o.devices.size() > devices.size()) devices.resize(o.devices.size());
    for (std::size_t d = 0; d < o.devices.size(); ++d) {
      devices[d] += o.devices[d];
    }
    return *this;
  }

  /// Modeled makespan across the pool: the busiest device's clock. The
  /// scaling bench gates total_work / makespan against recorded bars.
  double modeled_makespan_seconds() const {
    double m = 0.0;
    for (const DeviceStats& d : devices) {
      if (d.modeled_busy_seconds > m) m = d.modeled_busy_seconds;
    }
    return m;
  }
  double modeled_total_seconds() const {
    double t = 0.0;
    for (const DeviceStats& d : devices) t += d.modeled_busy_seconds;
    return t;
  }
};

class DevicePool {
 public:
  explicit DevicePool(DevicePoolConfig cfg = {});
  /// Drains: every submitted request completes before destruction returns.
  ~DevicePool();

  /// Enqueues a request. The future carries the Response (or the
  /// exception the request failed with); submit blocks while the queue
  /// sits at max_queue_depth and throws Error after shutdown began.
  /// Response.device / Response.shards / Response.retries report the
  /// placement.
  std::future<Response> submit(Request req);

  /// Blocks until every request submitted so far has completed.
  void drain();

  /// Stops intake, drains the queue, waits out in-flight work. Idempotent
  /// (the destructor calls it); submit() throws afterwards.
  void shutdown();

  /// Appends a device to the fleet mid-traffic (its own operand cache,
  /// modeled clock starting idle); placement may use it from the next
  /// dispatch round. Returns the new device's index.
  std::size_t add_device(const simt::DeviceSpec& spec);
  /// Stops new placement on device d and re-prices its queued (placed but
  /// not yet executing) work onto the surviving devices via the cost model
  /// (counted as `replaced`, traced as `replace` spans). Work already
  /// executing there finishes (or requeues through the fault path); stats
  /// and cache stay queryable. Idempotent; a drained fleet with no active
  /// device fails new placements cleanly (queued work keeps its drained
  /// target when no survivor exists).
  void drain_device(std::size_t d);

  /// Pre-builds every manifest entry's execution plan into the shared plan
  /// cache and pins the entries marked hot for the pool's lifetime —
  /// repeat-pattern traffic starts with plan hits instead of paying
  /// pure-LRU cold starts. Idempotent; see serve/sla.hpp.
  WarmupReport warmup(const WarmupManifest& manifest);

  /// Opens a per-client token stream over the fused attention graph
  /// (serve/session.hpp): each TokenSession::step submits one GraphRequest
  /// over the stream's grown prefix, coalesced with other active sessions
  /// by the ordinary linger/EDF dispatch loop (continuous batching).
  /// Admission is budgeted: when cfg.session_budget_seconds > 0 and the
  /// open population's summed modeled step cost would exceed it, throws
  /// ShedError (counted as sessions_shed). The session handle must not
  /// outlive the pool.
  TokenSession open_session(SessionConfig cfg);

  /// Summed modeled full-length step cost of the currently open sessions —
  /// what open_session admission compares against the budget.
  double session_load_seconds() const;

  /// Devices ever added to the fleet (drained ones included).
  std::size_t device_count() const;
  /// Devices currently accepting placements.
  std::size_t active_device_count() const;
  simt::DeviceSpec device_spec(std::size_t d) const;
  bool device_active(std::size_t d) const;

  /// Device d's operand cache (prepared operands and row slices).
  OperandCache& device_cache(std::size_t d);
  /// The shared pattern-only plan cache.
  OperandCache& plan_cache() { return plan_cache_; }

  /// Completed-request traces (bounded ring; see serve/trace.hpp).
  const TraceLog& traces() const;

  DevicePoolStats stats() const;
  const DevicePoolConfig& config() const { return cfg_; }

  DevicePool(const DevicePool&) = delete;
  DevicePool& operator=(const DevicePool&) = delete;

 private:
  friend class TokenSession;
  /// Releases an open session's admission cost (TokenSession dtor/close).
  void close_session(std::uint64_t id);
  /// Counts one submitted stream step (TokenSession::step).
  void note_session_step();

  struct Impl;
  DevicePoolConfig cfg_;
  OperandCache plan_cache_;
  std::unique_ptr<Impl> impl_;
};

}  // namespace magicube::serve
