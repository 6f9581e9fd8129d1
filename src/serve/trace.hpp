#pragma once
// Structured per-request tracing for the serving engine.
//
// Every request served through a DevicePool carries a
// RequestTrace: a flat list of named spans over the request's *modeled*
// timeline (t = 0 is the placement round that admitted the request;
// timestamps are cost-model seconds, the same clock the placement and the
// scaling bench reason about — never wall time, so traces are deterministic
// given a deterministic schedule). The span vocabulary follows the request's
// life: queue → price → place → [shard] → replay (per attempt / per slice)
// → [retry] → merge, plus the SLA layer's terminal/bridging spans: `shed`
// (the request was rejected because its modeled completion exceeded its
// deadline — carries deadline_seconds/modeled_completion_seconds attrs) and
// `replace` (queued work re-priced onto a surviving device after
// drain_device removed its target — bridges the old placement start to the
// new one, from_device attr). Spans carry the device id and key/value
// attributes (cache hit flags, estimates, fault markers), enough to
// reconstruct from a CI artifact alone why a soak run placed, sharded,
// retried or failed a request — the observability half of ROADMAP item 5.
//
// Invariants the schema tests assert (tests/test_trace.cpp):
//   - spans sorted by begin nest within [0, total_modeled_seconds],
//   - their union covers that interval exactly (no modeled gap is silent:
//     waiting in a device backlog is a `queue` span, a retry's re-placement
//     gap is a `retry` span),
//   - a `retry` span appears exactly once per requeue, and every failed
//     attempt's `replay` span carries ok="false".
//
// Completed traces are immutable; the engines additionally keep a bounded
// TraceLog ring whose write_json() emits one JSON document next to the
// BENCH_*.json artifacts (same spirit as hb-pytorch's line_trace tooling).

#include <atomic>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace magicube::serve {

/// One named interval on a request's modeled timeline. Attributes are
/// ordered string pairs so the JSON form is deterministic.
struct TraceSpan {
  std::string name;  // queue|price|place|shard|replay|merge|retry|shed|
                     // replace
  double begin_seconds = 0.0; // modeled, relative to the request's admission
  double end_seconds = 0.0;
  int device = -1;            // -1: not tied to one device
  std::vector<std::pair<std::string, std::string>> attrs;

  TraceSpan() = default;
  TraceSpan(std::string n, double b, double e, int dev = -1)
      : name(std::move(n)), begin_seconds(b), end_seconds(e), device(dev) {}

  TraceSpan& attr(std::string key, std::string value) {
    attrs.emplace_back(std::move(key), std::move(value));
    return *this;
  }
};

/// The full trace of one request. Engines append spans while the request is
/// in flight (slices of a sharded request append concurrently — add_span
/// synchronizes); once the response promise is fulfilled the trace is
/// quiescent and read freely through Response::trace or TraceLog.
struct RequestTrace {
  std::uint64_t request_id = 0;  // per-engine admission sequence number
  std::string engine;            // "device_pool"
  std::string op;                // "spmm" | "sddmm"
  std::string precision;         // e.g. "L8R8"
  bool ok = false;
  std::string error;             // what() of the surfaced failure
  int device = -1;               // final device (-1: spanned several)
  std::size_t shards = 1;
  /// Requeues / FaultPlan hits on this request; atomic because a sharded
  /// request's slices retry concurrently.
  std::atomic<std::uint64_t> retries{0};
  std::atomic<std::uint64_t> faults_injected{0};
  double total_modeled_seconds = 0.0; // max span end
  std::vector<TraceSpan> spans;

  void add_span(TraceSpan span) {
    std::lock_guard<std::mutex> lock(mutex_);
    if (span.end_seconds > total_modeled_seconds) {
      total_modeled_seconds = span.end_seconds;
    }
    spans.push_back(std::move(span));
  }

 private:
  std::mutex mutex_;  // guards concurrent appends from slice tasks
};

/// JSON encodings (hand-rolled writer — the engine has no JSON dependency).
/// Numbers use shortest round-trip-ish %.9g; strings are escaped per RFC
/// 8259. The trace must be quiescent (request completed).
std::string to_json(const TraceSpan& span);
std::string to_json(const RequestTrace& trace);

/// Bounded ring of completed traces (oldest dropped beyond capacity), one
/// per engine. Thread-safe; write_json() emits
///   {"schema": "magicube.trace.v1", "engine": ..., "dropped": N,
///    "traces": [...]}
class TraceLog {
 public:
  explicit TraceLog(std::string engine, std::size_t capacity = 4096);

  void add(std::shared_ptr<const RequestTrace> trace);
  std::vector<std::shared_ptr<const RequestTrace>> snapshot() const;
  std::size_t size() const;
  /// Traces dropped to honour the capacity bound.
  std::size_t dropped() const;

  std::string to_json() const;
  /// Writes to_json() to `path`; returns false on I/O failure (the serving
  /// path never throws over observability).
  bool write_json(const std::string& path) const;

 private:
  const std::string engine_;
  const std::size_t capacity_;
  mutable std::mutex mutex_;
  std::deque<std::shared_ptr<const RequestTrace>> traces_;
  std::size_t dropped_ = 0;
};

}  // namespace magicube::serve
