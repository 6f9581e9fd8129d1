#pragma once
// Deterministic fault injection for the DevicePool.
//
// A FaultPlan makes modeled devices fail on purpose so the recovery path
// (clock rollback, pin release, requeue to a surviving device, bounded
// retry budget) is exercised by ordinary tests instead of waiting for a
// production incident. Three trigger shapes compose:
//
//   - exact: "the Nth kernel execution on device D fails" — fully
//     deterministic, for pinpoint tests of a single retry or an exhausted
//     budget (executions are counted per device across whole placements
//     and shard slices alike, starting at 1);
//   - probabilistic: every execution fails with probability p, drawn from
//     one seeded Rng — deterministic given (seed, schedule), the knob the
//     property/soak tiers sweep over 0–30%;
//   - windowed: a per-device probability active only for a range of that
//     device's execution counts — how the chaos soak models a device that
//     degrades and later recovers (fail 45% of device 0's first N
//     executions, then return to the global background rate). The
//     effective probability of an execution is the max of the global rate
//     and every matching window.
//
// An injected failure surfaces as FaultError inside the executing pool
// task, indistinguishable from a genuine execution failure to the recovery
// machinery — which is the point: outputs must stay bit-exact vs the
// sequential reference regardless of where faults land (asserted by
// tests/test_fleet.cpp).

#include <cstdint>
#include <limits>
#include <vector>

#include "common/check.hpp"

namespace magicube::serve {

struct FaultPlan {
  /// Fail the `nth` (1-based) kernel execution on `device`.
  struct Exact {
    std::size_t device = 0;
    std::uint64_t nth = 1;
  };
  std::vector<Exact> exact;

  /// Independent per-execution failure probability in [0, 1], drawn from a
  /// dedicated Rng seeded with `seed` (0 disables).
  double probability = 0.0;
  std::uint64_t seed = 0x0fa17ull;

  /// Raises the failure probability of `device` to `probability` while its
  /// execution count (1-based, same counter Exact uses) lies in
  /// [from, to] — a transiently sick device. Windows compose with the
  /// global rate by max, so a window never *lowers* the background rate.
  struct Window {
    std::size_t device = 0;
    double probability = 0.0;
    std::uint64_t from = 1;
    std::uint64_t to = std::numeric_limits<std::uint64_t>::max();
  };
  std::vector<Window> windows;

  bool enabled() const {
    return probability > 0.0 || !exact.empty() || !windows.empty();
  }
};

/// Thrown by an execution a FaultPlan selected. Derives Error so generic
/// failure handling (promise exceptions, retry-budget messages) treats it
/// like any execution failure.
class FaultError : public Error {
 public:
  using Error::Error;
};

}  // namespace magicube::serve
