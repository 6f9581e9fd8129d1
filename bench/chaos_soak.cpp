// Fault soak: a 4-device heterogeneous DevicePool streamed through a fault
// storm concentrated on one device, gated against recorded bars.
//
// The FaultPlan pins a high-probability window to device 0 (its first 30
// kernel executions fail ~45% of the time) on top of a zero background
// rate, so only device-0 executions consume the fault RNG: the storm is a
// deterministic per-device schedule no matter how the stream interleaves.
// Bounded retry (serve/device_pool.hpp) has to ride it out end to end: a
// failed execution rolls its estimate off the device's modeled clock and
// requeues onto a surviving device under max_retries; a retry that would
// miss its deadline is shed. Hard invariants (not bars): the storm really
// ran (at least one injected fault and one retry), the pool's counters
// agree with what the futures saw, and every served result is checked
// bit-exact against the sequential reference. Every fourth request
// carries a deadline so the retry-time shed check is exercised too.
// Requests stream through a bounded in-flight window (submit i waits on
// future i-32) so dispatch rounds interleave with completions instead of
// the whole stream landing in one dispatch round.
//
// Scheduling (which requests share a dispatch round) is wall-clock
// dependent, so the gates are bands rather than exact counts:
//   * goodput (served / submitted) clears the recorded floor — the fleet
//     keeps serving through the storm,
//   * the failure rate (shed + retry-exhausted) stays under the recorded
//     ceiling.
// Like the other perf benches: --smoke is peeled off argv, the rest
// forwards to google-benchmark; gates compare against
// bench/baselines/chaos_soak.json (bars move by re-recording, never by
// editing the gate); sanitizer builds report without enforcing.
// --trace-out=PATH exports the pool's TraceLog JSON (retry spans included
// — the CI artifact trace_report aggregates).

#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <future>
#include <memory>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "core/api.hpp"

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define MAGICUBE_BENCH_SANITIZED 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
#define MAGICUBE_BENCH_SANITIZED 1
#endif
#endif
#ifndef MAGICUBE_BENCH_SANITIZED
#define MAGICUBE_BENCH_SANITIZED 0
#endif

#ifndef MAGICUBE_BENCH_BASELINE_DIR
#define MAGICUBE_BENCH_BASELINE_DIR "bench/baselines"
#endif

namespace {

using namespace magicube;

constexpr std::size_t kInFlight = 32;

struct SoakShape {
  std::size_t requests = 1000;
  std::size_t m = 192, k = 128, n = 128;
  double sparsity = 0.7;
};

SoakShape shape_for(bool smoke) {
  SoakShape s;
  if (smoke) {
    s.requests = 240;
    s.m = s.k = 96;
    s.n = 64;
  }
  return s;
}

/// The warm working set: three SpMM precisions + one SDDMM, small enough
/// that the storm cycles the whole catalogue many times.
struct Layer {
  serve::Request req;
  double est = 0.0;  // modeled seconds on the a100 reference spec
};

std::vector<Layer> make_layers(const SoakShape& s) {
  static const PrecisionPair spmm_pairs[] = {precision::L16R8,
                                             precision::L8R8,
                                             precision::L4R4};
  std::vector<Layer> layers;
  std::uint64_t next_id = 1;
  for (const PrecisionPair prec : spmm_pairs) {
    Rng rng(0xc4a0 + next_id);
    Layer l;
    l.req.op = serve::OpKind::spmm;
    l.req.precision = prec;
    l.req.pattern = std::make_shared<const sparse::BlockPattern>(
        sparse::make_uniform_pattern(s.m, s.k, 8, s.sparsity, rng));
    l.req.lhs_values = std::make_shared<const Matrix<std::int32_t>>(
        core::random_values(s.m, s.k, prec.lhs, rng));
    l.req.rhs_values = std::make_shared<const Matrix<std::int32_t>>(
        core::random_values(s.k, s.n, prec.rhs, rng));
    l.req.lhs_id = next_id;
    l.req.rhs_id = 100 + next_id;
    next_id += 1;
    layers.push_back(std::move(l));
  }
  {
    Rng rng(0xc4a0 + 99);
    Layer l;
    l.req.op = serve::OpKind::sddmm;
    l.req.precision = precision::L8R8;
    l.req.pattern = std::make_shared<const sparse::BlockPattern>(
        sparse::make_uniform_pattern(s.m, s.n, 8, s.sparsity, rng));
    l.req.lhs_values = std::make_shared<const Matrix<std::int32_t>>(
        core::random_values(s.m, s.k, Scalar::s8, rng));
    l.req.rhs_values = std::make_shared<const Matrix<std::int32_t>>(
        core::random_values(s.k, s.n, Scalar::s8, rng));
    l.req.lhs_id = next_id;
    l.req.rhs_id = 100 + next_id;
    layers.push_back(std::move(l));
  }
  serve::OperandCache scratch(64ull << 20);
  for (Layer& l : layers) {
    l.est = simt::estimate_seconds(simt::a100(),
                                   serve::price_request(l.req, scratch));
    MAGICUBE_CHECK(l.est > 0.0);
  }
  return layers;
}

struct SoakMetrics {
  std::size_t total = 0;
  std::size_t served = 0;
  std::size_t failed = 0;
  double goodput = 0.0;  // served / total
  double fail_rate = 0.0;
  serve::DevicePoolStats stats;
};

SoakMetrics run_soak(const SoakShape& s, const std::vector<Layer>& layers,
                     const char* trace_out) {
  serve::DevicePoolConfig cfg;
  cfg.devices = {simt::a100(), simt::edge(), simt::a100(), simt::edge()};
  cfg.shard_threshold_seconds = 0;  // the retry axis, not sharding
  cfg.linger = std::chrono::microseconds(20);
  cfg.max_queue_depth = kInFlight;
  cfg.max_retries = 8;
  cfg.trace_capacity = s.requests + 16;
  // The storm: ~45% of device 0's first 30 executions fault; nothing else
  // draws the fault RNG, so the per-device pattern is schedule-invariant.
  cfg.fault_plan.probability = 0.0;
  cfg.fault_plan.windows.push_back(
      {/*device=*/0, /*probability=*/0.45, /*from=*/1, /*to=*/30});
  cfg.fault_plan.seed = 0x50ca;
  serve::DevicePool pool(cfg);

  // Sequential references (one per layer) for the bit-exactness check on
  // every served response.
  std::vector<serve::Response> refs;
  for (const Layer& l : layers) {
    serve::OperandCache ref_cache(256ull << 20);
    refs.push_back(serve::serve_request(l.req, ref_cache));
  }

  SoakMetrics m;
  m.total = s.requests;
  struct Submitted {
    std::size_t layer = 0;
    std::future<serve::Response> future;
  };
  std::vector<Submitted> stream(s.requests);

  auto settle = [&](Submitted& sub) {
    try {
      const serve::Response resp = sub.future.get();
      const serve::Response& want = refs[sub.layer];
      if (resp.op == serve::OpKind::spmm) {
        MAGICUBE_CHECK_MSG(resp.spmm->c == want.spmm->c,
                           "pooled SpMM diverged from the reference");
      } else {
        MAGICUBE_CHECK_MSG(resp.sddmm->c.values == want.sddmm->c.values,
                           "pooled SDDMM diverged from the reference");
      }
      m.served += 1;
    } catch (const Error&) {
      m.failed += 1;  // shed / budget-exhausted: clean failures
    }
  };

  for (std::size_t i = 0; i < s.requests; ++i) {
    serve::Request req = layers[i % layers.size()].req;
    if (i % 4 == 3) {
      // A deadline generous against the observed backlog: it admits
      // cleanly, and only a long retry chain could push it past.
      double max_busy = 0.0;
      for (const serve::DeviceStats& d : pool.stats().devices) {
        max_busy = std::max(max_busy, d.modeled_busy_seconds);
      }
      req.deadline_seconds =
          max_busy + 10.0 * layers[i % layers.size()].est;
    }
    stream[i].layer = i % layers.size();
    stream[i].future = pool.submit(std::move(req));
    // Bounded in-flight window: completions interleave with dispatch, so
    // retries land on a fleet that is still taking new work.
    if (i >= kInFlight) settle(stream[i - kInFlight]);
  }
  for (std::size_t i = s.requests - std::min(s.requests, kInFlight);
       i < s.requests; ++i) {
    settle(stream[i]);
  }
  pool.drain();

  m.stats = pool.stats();
  m.goodput = static_cast<double>(m.served) / static_cast<double>(m.total);
  m.fail_rate =
      static_cast<double>(m.failed) / static_cast<double>(m.total);

  // Hard invariants (MAGICUBE_CHECK, not bars): the storm must actually
  // run and be recovered from, and the counters must be mutually
  // consistent.
  const serve::DevicePoolStats& st = m.stats;
  MAGICUBE_CHECK_MSG(st.faults_injected >= 1,
                     "the fault storm never injected a fault");
  MAGICUBE_CHECK_MSG(st.retries >= 1,
                     "no failed execution was ever retried in the soak");
  MAGICUBE_CHECK(st.submitted == m.total && st.completed == m.total);
  MAGICUBE_CHECK(st.failed == m.failed);
  MAGICUBE_CHECK(pool.plan_cache().pinned_count() == 0);

  if (trace_out != nullptr) {
    if (pool.traces().write_json(trace_out)) {
      std::printf("per-request traces written to %s\n", trace_out);
    } else {
      std::printf("warning: could not write traces to %s\n", trace_out);
    }
  }
  return m;
}

bool g_smoke = false;
std::string g_trace_out;

bool soak_and_gate(bool smoke, const char* trace_out) {
  const SoakShape s = shape_for(smoke);
  std::printf("== fault soak%s ==\n", smoke ? " [smoke]" : "");
  std::printf("%zu requests over 4 devices; ~45%%-fault window pinned to "
              "device 0, bounded retry\n\n",
              s.requests);

  const std::vector<Layer> layers = make_layers(s);
  const SoakMetrics m = run_soak(s, layers, trace_out);

  bench::Table table({"metric", "value"});
  table.add_row({"requests", std::to_string(m.total)});
  table.add_row({"served", std::to_string(m.served)});
  table.add_row({"failed", std::to_string(m.failed)});
  table.add_row({"goodput", bench::fmt(m.goodput, 3)});
  table.add_row({"faults injected", std::to_string(m.stats.faults_injected)});
  table.add_row({"retries", std::to_string(m.stats.retries)});
  table.add_row({"shed", std::to_string(m.stats.shed)});
  table.print();

  const bench::Baselines bars = bench::load_baselines(
      MAGICUBE_BENCH_BASELINE_DIR, "chaos_soak.json");
  const std::string prefix = smoke ? "smoke_" : "full_";
  bool bars_ok = bars.loaded;
  double goodput_min = 0, fail_rate_max = 0;
  if (bars.loaded) {
    goodput_min = bars.get(prefix + "goodput_min", &bars_ok);
    fail_rate_max = bars.get(prefix + "fail_rate_max", &bars_ok);
  }

  bool gate = true;
  if (!bars_ok) {
    std::printf("\ncannot read recorded baselines from %s — gate FAILED\n",
                bars.path.c_str());
    gate = false;
  } else {
    struct GateRow {
      const char* name;
      double value, bar;
      bool is_max;  // true: value <= bar passes; false: value >= bar
    } rows[] = {
        {"goodput", m.goodput, goodput_min, false},
        {"failure rate", m.fail_rate, fail_rate_max, true},
    };
    std::printf("\n");
    for (const GateRow& r : rows) {
      const bool ok = r.is_max ? r.value <= r.bar : r.value >= r.bar;
      gate = gate && ok;
      std::printf("%s: %.3f (recorded bar: %s %.3f) — %s\n", r.name, r.value,
                  r.is_max ? "<=" : ">=", r.bar, ok ? "PASS" : "FAIL");
    }
    std::printf("(bars recorded in %s; move them by re-recording, not by "
                "editing the gate)%s\n\n",
                bars.path.c_str(),
                MAGICUBE_BENCH_SANITIZED
                    ? " [sanitized build: gates reported, not enforced]"
                    : "");
  }
  return gate || MAGICUBE_BENCH_SANITIZED;
}

// google-benchmark surface (the BENCH_chaos_soak JSON artifact): wall
// clock of the whole streamed soak, smoke-sized in CI.
void BM_ChaosSoak(benchmark::State& state) {
  const SoakShape s = shape_for(g_smoke);
  const std::vector<Layer> layers = make_layers(s);
  for (auto _ : state) {
    benchmark::DoNotOptimize(run_soak(s, layers, nullptr));
  }
}
BENCHMARK(BM_ChaosSoak)->Unit(benchmark::kMillisecond)->UseRealTime();

}  // namespace

int main(int argc, char** argv) {
  std::vector<char*> fwd = {argv[0]};
  bool help = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      g_smoke = true;
    } else if (std::strncmp(argv[i], "--trace-out=", 12) == 0) {
      g_trace_out = argv[i] + 12;
    } else {
      if (std::strcmp(argv[i], "--help") == 0 ||
          std::strcmp(argv[i], "-h") == 0) {
        help = true;
      }
      fwd.push_back(argv[i]);
    }
  }
  bool gate_passed = true;
  if (help) {
    std::printf("usage: %s [--smoke] [--trace-out=PATH] [--benchmark_* "
                "flags]\n"
                "  --smoke           small stream, a few seconds\n"
                "  --trace-out=PATH  export per-request trace JSON\n"
                "  other flags forward to google-benchmark (below)\n\n",
                argv[0]);
  } else {
    gate_passed = soak_and_gate(
        g_smoke, g_trace_out.empty() ? nullptr : g_trace_out.c_str());
  }
  int bench_argc = static_cast<int>(fwd.size());
  benchmark::Initialize(&bench_argc, fwd.data());
  benchmark::RunSpecifiedBenchmarks();
  return gate_passed ? 0 : 1;
}
