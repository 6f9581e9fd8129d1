#pragma once
// Shared declarations of the serving benchmark: the seeded workloads, the
// host clock, metrics and the percentile helper the phases and the traced
// pass report with.

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/api.hpp"

namespace perfbench {

using namespace magicube;
using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// One matrix request of a workload with its expected output, computed at
/// set-up by direct core::spmm / core::sddmm calls outside the pool.
struct MatrixItem {
  serve::Request req;
  /// Row slices DevicePool splits the request into under the layer-mix
  /// pool's config (1 = placed whole).
  std::size_t shards = 1;
  std::shared_ptr<const Matrix<std::int32_t>> ref_spmm;
  std::shared_ptr<const sparse::Bcrs<std::int32_t>> ref_sddmm;
};

/// One token stream's feed: the rows each step appends and the expected
/// attention output of every step (attention_forward over the prefix).
struct Feed {
  transformer::AttentionScheme scheme =
      transformer::AttentionScheme::magicube_8b_8b;
  std::vector<Matrix<float>> q, k, v;  // per step: grow x dk
  std::vector<Matrix<float>> ref;      // per step: L x dk
};

/// Frozen per-workload settings (perfbench/config.json, passed on the
/// command line by run.py).
struct Params {
  double light_rps = 0.0;
  double busy_rps = 0.0;
  double slo_ms = 0.0;
  bool quick = false;                // small inputs for the self-check
  /// Only the minimal subset that reaches every layer of the workload once
  /// (the traced pass probes layers its own workload does not exercise).
  bool probe = false;
};

struct Workload {
  std::string name;
  serve::DevicePoolConfig pool;
  // Matrix traffic: distinct requests and the seeded send order (cycled).
  std::vector<MatrixItem> items;
  std::vector<std::uint32_t> stream;
  // Token streams: one shared full-length mask, recycled feeds.
  std::shared_ptr<const sparse::BlockPattern> mask;
  std::vector<Feed> feeds;
  std::size_t grow = 64;
  std::size_t dk = 64;
  // Matrix working set: prepared LHS operands and plans of the distinct
  // requests (one copy each).
  std::size_t operand_bytes = 0;
  std::size_t plan_bytes = 0;

  bool sessions() const { return !feeds.empty(); }
  std::size_t steps_per_session() const { return mask->rows / grow; }
};

/// Builds the named workload from the seed (throws Error on an unknown
/// name). References are computed here, before any pool exists.
Workload make_workload(const std::string& name, std::uint64_t seed,
                       const Params& params);

/// The prefix a session has appended after `steps` steps of `feed`.
void feed_prefix(const Feed& feed, std::size_t steps, Matrix<float>& q,
                 Matrix<float>& k, Matrix<float>& v);

bool same_bcrs(const sparse::Bcrs<std::int32_t>& a,
               const sparse::Bcrs<std::int32_t>& b);

/// Whether a response carries exactly the item's expected output.
bool response_matches(const MatrixItem& item, const serve::Response& resp);

/// "L8R8"-style precision tag used in metric names.
std::string pair_tag(PrecisionPair p);

/// Nearest-rank percentile (q in [0, 1]) of an unsorted sample; 0 if empty.
inline double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double rank = std::ceil(q * static_cast<double>(v.size()));
  const std::size_t idx = static_cast<std::size_t>(std::max(1.0, rank)) - 1;
  return v[std::min(idx, v.size() - 1)];
}

/// A metric value with its unit, as printed and as emitted in the result.
struct Metric {
  double value = 0.0;
  std::string unit;
};
using Metrics = std::map<std::string, Metric>;

/// Runs the traced pass (one request in flight, spans around each layer's
/// public entry point) and adds the per-layer metrics it measures.
/// `spans_out` (may be empty) receives every span as JSON at the end.
void run_traced_pass(const Workload& w, std::uint64_t seed, double seconds,
                     const std::string& spans_out, Metrics& out,
                     std::uint64_t* mismatches);

}  // namespace perfbench
