#pragma once
// SLA layer of the serving engines: deadline shedding, cost-model request
// pricing, and manifest-driven cache warmup.
//
// The paper's analytic kernel characterization gives every plan a free
// `KernelRun`, so `simt::estimate_seconds` prices any candidate placement
// *before* dispatch. This header holds the pieces the SLA-aware traffic
// management builds on that price signal:
//
//   - ShedError: the clean rejection a request receives when its modeled
//     completion (queue wait + execution on the best candidate device)
//     already exceeds its deadline — admission control instead of serving
//     work that is guaranteed late, and never a silent drop (the future
//     throws, the trace records a `shed` span, stats count it);
//   - price_request(): the shared one-stop pricing path — the cached plan's
//     KernelRun when the plan is resident (O(1)), the analytic estimator
//     otherwise (identical numbers by the estimate-equals-execute
//     invariant), without building or caching anything;
//   - WarmupManifest: a deployment's known-hot layers (pattern + precision
//     + width per entry), pre-built into a plan cache at startup and
//     optionally pinned against LRU eviction via the existing PinScope —
//     repeat-pattern traffic starts with plan hits instead of paying
//     pure-LRU cold starts.
//
// DevicePool consumes this layer: DevicePool::warmup and the deadline-aware
// dispatcher (serve/device_pool.hpp).

#include <cstddef>
#include <memory>
#include <vector>

#include "common/check.hpp"
#include "core/sddmm.hpp"
#include "core/spmm.hpp"
#include "serve/operand_cache.hpp"
#include "serve/request.hpp"
#include "simt/cost_model.hpp"

namespace magicube::serve {

/// Thrown (on the request's future) when the SLA layer sheds a request
/// whose modeled completion exceeds its deadline on every active device.
/// Derives Error so generic failure handling treats it like any rejection;
/// catch it specifically to distinguish load shedding from real failures.
class ShedError : public Error {
 public:
  using Error::Error;
};

/// Prices a request without executing (or caching) anything: the cached
/// plan's KernelRun when one is resident in `plans`, the analytic
/// estimator otherwise — identical numbers either way by the
/// estimate-equals-execute invariant. The DevicePool dispatcher prices
/// placement, shedding and shard decisions with it.
simt::KernelRun price_request(const Request& req, OperandCache& plans);

/// One known-hot layer of a deployment manifest: enough identity to
/// pre-build its execution plan (plans are pattern-only, so no weights are
/// needed — layers warm up before any weight version exists).
struct WarmupEntry {
  OpKind op = OpKind::spmm;
  PrecisionPair precision = precision::L8R8;
  /// SpMM: the M x K LHS sparsity. SDDMM: the M x N output sampling.
  std::shared_ptr<const sparse::BlockPattern> pattern;
  /// SpMM: RHS width N. SDDMM: reduction depth K.
  std::size_t cols = 0;
  core::SpmmVariant variant = core::SpmmVariant::full;  // SpMM only
  int bsn = 64;                                         // SpMM only
  bool sddmm_prefetch = false;                          // SDDMM only
  /// Hot layer: pin the built plan against LRU eviction for the lifetime
  /// of the warmup scope (the pool's, for DevicePool::warmup()).
  bool pin = false;
};

/// The warmup manifest: the pattern fingerprints + precisions a deployment
/// serves hot, listed as buildable entries. See the README "SLA-aware
/// serving" section for the field-by-field format.
struct WarmupManifest {
  std::vector<WarmupEntry> entries;
};

struct WarmupReport {
  std::size_t plans_built = 0;     // cold entries built by this warmup
  std::size_t plans_resident = 0;  // entries already cached
  std::size_t pinned = 0;          // entries pinned as hot layers
};

/// Pre-builds every manifest entry's execution plan into `plans` and pins
/// the entries marked hot into `pins` (the caller keeps the scope alive —
/// releasing it returns the entries to ordinary LRU). Idempotent: already
/// resident entries count as plans_resident and are still pinned when
/// requested. Throws Error on a malformed entry (missing pattern, zero
/// width).
WarmupReport warmup_plans(OperandCache& plans, const WarmupManifest& manifest,
                          OperandCache::PinScope* pins);

}  // namespace magicube::serve
