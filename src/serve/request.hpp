#pragma once
// Request/response types of the inference-serving engine.
//
// A request names one quantized sparse kernel invocation (SpMM or SDDMM, any
// precision pair) by its inputs; operands arrive as raw integer matrices
// plus a sparsity pattern, all shared_ptr-owned so the engine can hold them
// past submit() without copying. Preparation (quantize → encode → shuffle)
// happens inside the engine, memoized by the operand cache; see
// serve/operand_cache.hpp for the identity rules behind lhs_id / rhs_id.

#include <cstdint>
#include <memory>
#include <optional>

#include "common/matrix.hpp"
#include "common/precision.hpp"
#include "core/sddmm.hpp"
#include "core/spmm.hpp"
#include "sparse/pattern.hpp"

namespace magicube::serve {

struct RequestTrace;   // serve/trace.hpp
struct GraphRequest;   // serve/graph.hpp
struct GraphResult;    // serve/graph.hpp

enum class OpKind : std::uint8_t { spmm, sddmm };

inline const char* to_string(OpKind k) {
  return k == OpKind::spmm ? "spmm" : "sddmm";
}

struct Request {
  OpKind op = OpKind::spmm;
  PrecisionPair precision = precision::L8R8;

  /// SpMM: sparsity of the M x K LHS weight. SDDMM: the M x N output
  /// sampling pattern.
  std::shared_ptr<const sparse::BlockPattern> pattern;
  /// SpMM: M x K LHS weight values (read through `pattern`). SDDMM: the
  /// M x K dense A activations.
  std::shared_ptr<const Matrix<std::int32_t>> lhs_values;
  /// K x N RHS values for both ops.
  std::shared_ptr<const Matrix<std::int32_t>> rhs_values;

  core::SpmmVariant variant = core::SpmmVariant::full;  // SpMM only
  int bsn = 64;                                         // SpMM only
  bool sddmm_prefetch = false;                          // SDDMM only

  /// Cache identity overrides. SpMM LHS: 0 = key on pattern fingerprint.
  /// SDDMM LHS and both RHS slots: 0 = do not cache (anonymous activation).
  std::uint64_t lhs_id = 0;
  std::uint64_t rhs_id = 0;

  /// Dispatch priority (higher first). The DevicePool dispatcher orders
  /// each collected queue drain by priority before placing; equal
  /// priorities keep arrival order.
  int priority = 0;

  /// SLA deadline in *modeled* seconds from admission (the cost-model
  /// clock placement reasons about — never wall time). 0 = no deadline.
  /// Equal priorities dispatch earliest-deadline-first, and a request
  /// whose modeled completion (best-candidate backlog + per-spec estimate)
  /// already exceeds its deadline is shed with a clean ShedError
  /// (serve/sla.hpp) instead of being served late or silently dropped.
  double deadline_seconds = 0.0;

  /// Fused attention DAG (serve/graph.hpp). When set, the request is the
  /// whole {SDDMM, softmax+quantize, SpMM} graph submitted as one unit:
  /// the engines price and place it whole (never sharded — the stages
  /// share one arena), `pattern` carries the graph's mask for placement
  /// identity, and lhs_values/rhs_values stay null. Build these with
  /// make_graph_request, not by hand.
  std::shared_ptr<const GraphRequest> graph;
};

struct Response {
  OpKind op = OpKind::spmm;
  std::optional<core::SpmmResult> spmm;    // engaged when op == spmm
  std::optional<core::SddmmResult> sddmm;  // engaged when op == sddmm

  bool lhs_cache_hit = false;
  bool rhs_cache_hit = false;
  bool plan_cache_hit = false;  // execution plan served from the cache
  std::uint64_t batch_id = 0;   // the dispatch round that placed this request
  std::size_t batch_size = 0;   // how many requests that round collected
  /// Cost-model estimate of the kernel run on the device that served it
  /// (the placed device's spec under the DevicePool; simt::a100()
  /// otherwise). For a sharded request: the modeled makespan of the
  /// slices — slices on distinct devices run in parallel, slices
  /// co-located by a skewed backlog serialize on their device's clock.
  double modeled_seconds = 0.0;
  /// DevicePool placement: the device the request ran on (-1 when not
  /// served through a pool, or when row shards spanned several devices).
  int device = -1;
  /// Row shards the request was split into (1 = placed whole on one
  /// device; 0 = not served through a DevicePool).
  std::size_t shards = 0;
  /// Requeues performed before this response (fault recovery; DevicePool
  /// with a FaultPlan — 0 otherwise).
  std::uint64_t retries = 0;
  /// DevicePool: the request's modeled completion time (placement start in
  /// the placed device's backlog + the final attempt's estimate; for a
  /// sharded request, the latest slice's completion) on the request's
  /// modeled timeline — what deadline admission compared against
  /// Request::deadline_seconds. 0 when not served through a pool.
  double modeled_completion_seconds = 0.0;
  /// Structured per-request trace (serve/trace.hpp); set when the serving
  /// engine collects traces, null for direct serve_request calls.
  std::shared_ptr<const RequestTrace> trace;
  /// Fused-graph output (serve/graph.hpp): the attention result plus the
  /// per-stage runs/flags. Engaged iff the request carried a graph; the
  /// spmm/sddmm optionals stay empty for graph responses.
  std::shared_ptr<const GraphResult> graph;
};

}  // namespace magicube::serve
