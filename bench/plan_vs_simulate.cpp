// Panel replay vs lane-accurate simulation: wall-clock comparison of the
// block-panel replay (ExecMode::fast) and ExecMode::simulate, plus the
// one-time plan-build cost, on the Fig. 12 SpMM shapes (uniform DLMC-style
// patterns, every precision pair) and the Fig. 13 SDDMM pairs.
//
// Bit-exactness and counter equality of the two engines are re-asserted
// inline on every shape before timing (a bench that measured a wrong
// kernel would be worse than no bench); a mismatch always fails. The
// acceptance gate compares the aggregate SpMM panel-vs-simulate speedup
// against the *recorded baseline* JSON in bench/baselines/ (bars rise by
// re-recording, never by editing code). The bars are host-speed ratios, so
// they are only reported by default: the bench-smoke CTest registration
// runs beside other tests under `ctest -j` and checks invariants only. With
// --enforce-bars (the CI perf-smoke step) the binary exits nonzero on a
// miss. Sanitizer builds report without enforcing either way (distorted
// timings).
//
// Like serve_throughput, --smoke is peeled off argv and the rest forwards
// to google-benchmark (--benchmark_out, ...); CI uploads the JSON so the
// BENCH_* perf trajectory populates — once per MAGICUBE_SIMD leg.

#include <benchmark/benchmark.h>

#include <array>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "core/api.hpp"
#include "core/plan.hpp"
#include "simt/tensor_core.hpp"

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
using Clock = std::chrono::steady_clock;

struct Shape {
  std::size_t m = 512, k = 512, n = 512;
  double sparsity = 0.9;
  int v = 8;
  int reps = 3;  // interleaved timing rounds (plan built once)
};

Shape shape_for(bool smoke) {
  Shape s;
  if (smoke) {
    s.m = 128;
    s.k = 128;
    s.n = 128;
    s.reps = 5;
  }
  return s;
}

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Times a contiguous batch of `reps` calls of `fn` and folds the per-call
/// mean into `best` (minimum over rounds). Each mode is timed in its own
/// warm batch — steady-state is what plan replay looks like in serving
/// traffic, and interleaving the modes would hand the replay a cache
/// thrashed by the simulator every round — while min-over-rounds keeps the
/// estimate robust when the bench shares the machine (CTest runs the smoke
/// registration alongside other tests).
template <typename Fn>
void time_batch_min(int reps, Fn&& fn, double& best) {
  const auto start = Clock::now();
  for (int i = 0; i < reps; ++i) fn();
  best = std::min(best, seconds_since(start) / reps);
}

constexpr int kTimingRounds = 2;

struct OpTimings {
  double simulate_s = 1e30, panel_s = 1e30;
  double plan_build_s = 0;
  /// Plan-recorded bucket census (which specialized kernel each block row /
  /// block replays through) — surfaced in the table and the JSON artifact.
  std::array<std::uint64_t, simt::kSpmmBucketKinds> spmm_buckets{};
  std::array<std::uint64_t, simt::kSddmmBucketKinds> sddmm_buckets{};
};

OpTimings time_spmm(const Shape& shape, PrecisionPair prec,
                    std::uint64_t seed) {
  Rng rng(seed);
  const auto pattern = sparse::make_uniform_pattern(shape.m, shape.k, shape.v,
                                                    shape.sparsity, rng);
  const auto a_vals = core::random_values(shape.m, shape.k, prec.lhs, rng);
  const auto b_vals = core::random_values(shape.k, shape.n, prec.rhs, rng);

  core::SpmmConfig cfg;
  cfg.precision = prec;
  const auto a = core::prepare_spmm_lhs(pattern, a_vals, prec,
                                        core::needs_shuffle(cfg));
  const auto b = core::prepare_spmm_rhs(b_vals, prec);

  OpTimings t;
  auto start = Clock::now();
  const core::SpmmPlanHandle plan = core::build_spmm_plan(a, shape.n, cfg);
  t.plan_build_s = seconds_since(start);
  t.spmm_buckets = plan->run.counters.spmm_bucket_blocks;

  // Correctness anchor before timing: both engines bit-exact, counters
  // equal.
  cfg.mode = core::ExecMode::simulate;
  const core::SpmmResult sim = core::spmm(a, b, cfg);
  cfg.mode = core::ExecMode::fast;
  const core::SpmmResult panel = core::spmm(a, b, cfg, *plan);
  MAGICUBE_CHECK_MSG(panel.c == sim.c, "panel/simulate result mismatch");
  MAGICUBE_CHECK_MSG(panel.run.counters == sim.run.counters,
                     "fast/simulate counter mismatch");

  for (int round = 0; round < kTimingRounds; ++round) {
    cfg.mode = core::ExecMode::simulate;
    time_batch_min(
        shape.reps, [&] { benchmark::DoNotOptimize(core::spmm(a, b, cfg)); },
        t.simulate_s);
    cfg.mode = core::ExecMode::fast;
    time_batch_min(
        shape.reps,
        [&] { benchmark::DoNotOptimize(core::spmm(a, b, cfg, *plan)); },
        t.panel_s);
  }
  return t;
}

OpTimings time_sddmm(const Shape& shape, PrecisionPair prec,
                     std::uint64_t seed) {
  Rng rng(seed);
  // K must satisfy the SDDMM alignment on both datapaths.
  const std::size_t k = shape.k;
  const auto pattern = sparse::make_uniform_pattern(shape.m, shape.n, shape.v,
                                                    shape.sparsity, rng);
  const auto a_vals = core::random_values(shape.m, k, prec.lhs, rng);
  const auto b_vals = core::random_values(k, shape.n, prec.rhs, rng);

  core::SddmmConfig cfg;
  cfg.precision = prec;
  const int chunk = core::rhs_chunk_bits(prec);
  const auto a = core::prepare_dense(a_vals, prec.lhs, true, chunk);
  const auto b = core::prepare_dense(b_vals, prec.rhs, false, chunk);

  OpTimings t;
  auto start = Clock::now();
  const core::SddmmPlanHandle plan = core::build_sddmm_plan(pattern, k, cfg);
  t.plan_build_s = seconds_since(start);
  t.sddmm_buckets = plan->run.counters.sddmm_bucket_blocks;

  cfg.mode = core::ExecMode::simulate;
  const core::SddmmResult sim = core::sddmm(a, b, pattern, cfg);
  cfg.mode = core::ExecMode::fast;
  const core::SddmmResult panel = core::sddmm(a, b, pattern, cfg, *plan);
  MAGICUBE_CHECK_MSG(panel.c.values == sim.c.values,
                     "panel/simulate result mismatch");
  MAGICUBE_CHECK_MSG(panel.run.counters == sim.run.counters,
                     "fast/simulate counter mismatch");

  for (int round = 0; round < kTimingRounds; ++round) {
    cfg.mode = core::ExecMode::simulate;
    time_batch_min(
        shape.reps,
        [&] { benchmark::DoNotOptimize(core::sddmm(a, b, pattern, cfg)); },
        t.simulate_s);
    cfg.mode = core::ExecMode::fast;
    time_batch_min(
        shape.reps,
        [&] {
          benchmark::DoNotOptimize(core::sddmm(a, b, pattern, cfg, *plan));
        },
        t.panel_s);
  }
  return t;
}

bool g_smoke = false;

/// Prints the comparison and checks the bars; returns false only when
/// `enforce` is set, the build is unsanitized and a bar is missed.
bool comparison_table(bool smoke, bool enforce) {
  const Shape shape = shape_for(smoke);
  std::printf("== panel replay vs ExecMode::simulate"
              "%s (SIMD micro-kernel: %s) ==\n",
              smoke ? " [smoke]" : "",
              simt::simd_enabled() ? "on" : "off (scalar fallback)");
  std::printf("SpMM shapes (Fig. 12): M=%zu K=%zu N=%zu V=%d, sparsity "
              "%.2f; SDDMM (Fig. 13) on the M x N pattern at K=%zu\n\n",
              shape.m, shape.k, shape.n, shape.v, shape.sparsity, shape.k);

  bench::Table table({"op", "precision", "simulate (ms)", "panel (ms)",
                      "panel vs sim", "plan build (ms)"});
  double sim_total = 0, panel_total = 0;
  std::array<std::uint64_t, simt::kSpmmBucketKinds> spmm_buckets{};
  std::array<std::uint64_t, simt::kSddmmBucketKinds> sddmm_buckets{};

  const PrecisionPair spmm_pairs[] = {
      precision::L16R16, precision::L16R8, precision::L8R8,
      precision::L16R4,  precision::L12R4, precision::L8R4,
      precision::L4R4};
  for (const PrecisionPair prec : spmm_pairs) {
    const OpTimings t =
        time_spmm(shape, prec, 0x916 + bits_of(prec.lhs) * 8u +
                                   static_cast<unsigned>(bits_of(prec.rhs)));
    sim_total += t.simulate_s;
    panel_total += t.panel_s;
    for (std::size_t i = 0; i < spmm_buckets.size(); ++i) {
      spmm_buckets[i] += t.spmm_buckets[i];
    }
    table.add_row({"spmm", to_string(prec), bench::fmt(t.simulate_s * 1e3, 2),
                   bench::fmt(t.panel_s * 1e3, 2),
                   bench::fmt(t.simulate_s / t.panel_s, 2) + "x",
                   bench::fmt(t.plan_build_s * 1e3, 3)});
  }

  const PrecisionPair sddmm_pairs[] = {precision::L8R8, precision::L4R4,
                                       precision::L16R16};
  for (const PrecisionPair prec : sddmm_pairs) {
    const OpTimings t = time_sddmm(shape, prec, 0x5dd1 + bits_of(prec.lhs));
    for (std::size_t i = 0; i < sddmm_buckets.size(); ++i) {
      sddmm_buckets[i] += t.sddmm_buckets[i];
    }
    table.add_row({"sddmm", to_string(prec),
                   bench::fmt(t.simulate_s * 1e3, 2),
                   bench::fmt(t.panel_s * 1e3, 2),
                   bench::fmt(t.simulate_s / t.panel_s, 2) + "x",
                   bench::fmt(t.plan_build_s * 1e3, 3)});
  }
  table.print();

  // Bucket census across all shapes: which specialized replay kernel the
  // plans selected per block row (SpMM) / block (SDDMM).
  std::printf("\nspmm bucket census (block rows x column blocks):");
  for (std::size_t i = 0; i < spmm_buckets.size(); ++i) {
    std::printf(" %s=%llu",
                core::to_string(static_cast<core::PanelKernelId>(i)),
                static_cast<unsigned long long>(spmm_buckets[i]));
  }
  std::printf("\nsddmm bucket census (blocks):");
  for (std::size_t i = 0; i < sddmm_buckets.size(); ++i) {
    std::printf(" %s=%llu",
                core::to_string(static_cast<core::SddmmKernelId>(i)),
                static_cast<unsigned long long>(sddmm_buckets[i]));
  }
  std::printf("\n");

  const double vs_sim = sim_total / panel_total;

  const bench::Baselines bars = bench::load_baselines(
      MAGICUBE_BENCH_BASELINE_DIR, "plan_vs_simulate.json");
  // Bars are recorded per shape set and per MAGICUBE_SIMD build flavor.
  const std::string prefix = std::string(smoke ? "smoke_" : "full_") +
                             (simt::simd_enabled() ? "simd_" : "scalar_");
  bool bars_ok = bars.loaded;
  double sim_bar = 0;
  if (bars.loaded) {
    sim_bar = bars.get(prefix + "spmm_panel_vs_simulate_min", &bars_ok);
  }

  bool gate = true;
  if (!bars_ok) {
    std::printf("\ncannot read recorded baselines from %s — gate FAILED\n",
                bars.path.c_str());
    gate = false;
  } else {
    gate = vs_sim >= sim_bar;
    std::printf("\naggregate SpMM panel-vs-simulate speedup: %.2fx "
                "(recorded bar: >= %.2fx) — %s\n",
                vs_sim, sim_bar, gate ? "PASS" : "FAIL");
    std::printf("(bars recorded in %s; raise them by re-recording, not by "
                "editing the gate)%s\n\n",
                bars.path.c_str(),
                MAGICUBE_BENCH_SANITIZED
                    ? " [sanitized build: gates reported, not enforced]"
                : enforce ? ""
                          : " [gates reported, not enforced: pass "
                            "--enforce-bars]");
  }
  return gate || !enforce || MAGICUBE_BENCH_SANITIZED;
}

// google-benchmark cases (JSON-artifact surface), smoke-sized in CI.
void BM_SpmmSimulate(benchmark::State& state) {
  const Shape shape = shape_for(g_smoke);
  Rng rng(1);
  const auto pattern = sparse::make_uniform_pattern(shape.m, shape.k, shape.v,
                                                    shape.sparsity, rng);
  const auto a_vals = core::random_values(shape.m, shape.k, Scalar::s8, rng);
  const auto b_vals = core::random_values(shape.k, shape.n, Scalar::s8, rng);
  core::SpmmConfig cfg;
  cfg.mode = core::ExecMode::simulate;
  const auto a = core::prepare_spmm_lhs(pattern, a_vals, cfg.precision,
                                        core::needs_shuffle(cfg));
  const auto b = core::prepare_spmm_rhs(b_vals, cfg.precision);
  for (auto _ : state) benchmark::DoNotOptimize(core::spmm(a, b, cfg));
}
BENCHMARK(BM_SpmmSimulate)->Unit(benchmark::kMillisecond);

void BM_SpmmPanelReplay(benchmark::State& state) {
  const Shape shape = shape_for(g_smoke);
  Rng rng(1);
  const auto pattern = sparse::make_uniform_pattern(shape.m, shape.k, shape.v,
                                                    shape.sparsity, rng);
  const auto a_vals = core::random_values(shape.m, shape.k, Scalar::s8, rng);
  const auto b_vals = core::random_values(shape.k, shape.n, Scalar::s8, rng);
  core::SpmmConfig cfg;
  cfg.mode = core::ExecMode::fast;
  const auto a = core::prepare_spmm_lhs(pattern, a_vals, cfg.precision,
                                        core::needs_shuffle(cfg));
  const auto b = core::prepare_spmm_rhs(b_vals, cfg.precision);
  const auto plan = core::build_spmm_plan(a, shape.n, cfg);
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::spmm(a, b, cfg, *plan));
  }
  // Per-bucket kernel-id census into the JSON artifact (BENCH_* trajectory).
  for (std::size_t i = 0; i < simt::kSpmmBucketKinds; ++i) {
    state.counters[std::string("bucket_") +
                   core::to_string(static_cast<core::PanelKernelId>(i))] =
        static_cast<double>(plan->run.counters.spmm_bucket_blocks[i]);
  }
}
BENCHMARK(BM_SpmmPanelReplay)->Unit(benchmark::kMillisecond);

void BM_SpmmPlanBuild(benchmark::State& state) {
  const Shape shape = shape_for(g_smoke);
  Rng rng(1);
  const auto pattern = sparse::make_uniform_pattern(shape.m, shape.k, shape.v,
                                                    shape.sparsity, rng);
  const auto a_vals = core::random_values(shape.m, shape.k, Scalar::s8, rng);
  core::SpmmConfig cfg;
  const auto a = core::prepare_spmm_lhs(pattern, a_vals, cfg.precision,
                                        core::needs_shuffle(cfg));
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::build_spmm_plan(a, shape.n, cfg));
  }
}
BENCHMARK(BM_SpmmPlanBuild)->Unit(benchmark::kMillisecond);

void BM_SddmmPanelReplay(benchmark::State& state) {
  const Shape shape = shape_for(g_smoke);
  Rng rng(2);
  const auto pattern = sparse::make_uniform_pattern(shape.m, shape.n, shape.v,
                                                    shape.sparsity, rng);
  const auto a_vals = core::random_values(shape.m, shape.k, Scalar::s8, rng);
  const auto b_vals = core::random_values(shape.k, shape.n, Scalar::s8, rng);
  core::SddmmConfig cfg;
  cfg.mode = core::ExecMode::fast;
  const auto a = core::prepare_dense(a_vals, Scalar::s8, true, 8);
  const auto b = core::prepare_dense(b_vals, Scalar::s8, false, 8);
  const auto plan = core::build_sddmm_plan(pattern, shape.k, cfg);
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::sddmm(a, b, pattern, cfg, *plan));
  }
  for (std::size_t i = 0; i < simt::kSddmmBucketKinds; ++i) {
    state.counters[std::string("bucket_") +
                   core::to_string(static_cast<core::SddmmKernelId>(i))] =
        static_cast<double>(plan->run.counters.sddmm_bucket_blocks[i]);
  }
}
BENCHMARK(BM_SddmmPanelReplay)->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  // Forwards unrecognized flags (--benchmark_out, ...) to google-benchmark,
  // so it peels --smoke and --enforce-bars off itself instead of using
  // bench::parse_args.
  std::vector<char*> fwd = {argv[0]};
  bool help = false;
  bool enforce = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      g_smoke = true;
    } else if (std::strcmp(argv[i], "--enforce-bars") == 0) {
      enforce = true;
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
    std::printf("usage: %s [--smoke] [--enforce-bars] [--benchmark_* flags]\n"
                "  --smoke         tiny shapes, a few seconds\n"
                "  --enforce-bars  exit 1 when a speedup misses its recorded "
                "bar\n"
                "                  (without it the bars are only reported)\n"
                "  other flags forward to google-benchmark (below)\n\n",
                argv[0]);
  } else {
    gate_passed = comparison_table(g_smoke, enforce);
  }
  int bench_argc = static_cast<int>(fwd.size());
  benchmark::Initialize(&bench_argc, fwd.data());
  benchmark::RunSpecifiedBenchmarks();
  return gate_passed ? 0 : 1;
}
