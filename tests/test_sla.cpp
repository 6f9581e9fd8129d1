// SLA layer suite (`serve` CTest label, TSan CI gate): deadline admission
// and shedding (whole, sharded and retry re-placement paths — always a
// clean ShedError with a `shed` trace span, never a silent drop),
// EDF-within-priority dispatch ordering, shed determinism across fleet
// sizes, manifest-driven cache warmup, device-affinity placement,
// drain-triggered cost-model re-placement of queued work (bit-exact), and
// adaptive linger accounting.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <future>
#include <memory>
#include <mutex>
#include <set>
#include <thread>
#include <vector>

#include "common/thread_pool.hpp"
#include "serve/serve.hpp"

namespace magicube::serve {
namespace {

struct Problem {
  OpKind op = OpKind::spmm;
  PrecisionPair precision = precision::L8R8;
  std::shared_ptr<const sparse::BlockPattern> pattern;
  std::shared_ptr<const Matrix<std::int32_t>> lhs;
  std::shared_ptr<const Matrix<std::int32_t>> rhs;
};

Problem make_spmm_problem(std::size_t m, std::size_t k, std::size_t n, int v,
                          double sparsity, PrecisionPair prec,
                          std::uint64_t seed) {
  Rng rng(seed);
  Problem p;
  p.op = OpKind::spmm;
  p.precision = prec;
  p.pattern = std::make_shared<const sparse::BlockPattern>(
      sparse::make_uniform_pattern(m, k, v, sparsity, rng));
  p.lhs = std::make_shared<const Matrix<std::int32_t>>(
      core::random_values(m, k, prec.lhs, rng));
  p.rhs = std::make_shared<const Matrix<std::int32_t>>(
      core::random_values(k, n, prec.rhs, rng));
  return p;
}

Problem make_sddmm_problem(std::size_t m, std::size_t k, std::size_t n,
                           int v, double sparsity, PrecisionPair prec,
                           std::uint64_t seed) {
  Rng rng(seed);
  Problem p;
  p.op = OpKind::sddmm;
  p.precision = prec;
  p.pattern = std::make_shared<const sparse::BlockPattern>(
      sparse::make_uniform_pattern(m, n, v, sparsity, rng));
  p.lhs = std::make_shared<const Matrix<std::int32_t>>(
      core::random_values(m, k, prec.lhs, rng));
  p.rhs = std::make_shared<const Matrix<std::int32_t>>(
      core::random_values(k, n, prec.rhs, rng));
  return p;
}

Request to_request(const Problem& p, int priority = 0,
                   double deadline_seconds = 0.0) {
  Request req;
  req.op = p.op;
  req.precision = p.precision;
  req.pattern = p.pattern;
  req.lhs_values = p.lhs;
  req.rhs_values = p.rhs;
  req.priority = priority;
  req.deadline_seconds = deadline_seconds;
  return req;
}

Response sequential_reference(const Problem& p) {
  OperandCache cache(256ull << 20);
  return serve_request(to_request(p), cache);
}

void expect_same_result(const Response& got, const Response& want,
                        const char* what) {
  ASSERT_EQ(got.op, want.op) << what;
  if (want.op == OpKind::spmm) {
    ASSERT_TRUE(got.spmm.has_value()) << what;
    EXPECT_EQ(got.spmm->c, want.spmm->c) << what;
  } else {
    ASSERT_TRUE(got.sddmm.has_value()) << what;
    EXPECT_EQ(got.sddmm->c.values, want.sddmm->c.values) << what;
  }
}

/// The request's analytic price on the reference spec — the same number
/// deadline admission compares on an idle a100 device.
double est_on_a100(const Problem& p) {
  OperandCache scratch(16ull << 20);
  return simt::estimate_seconds(simt::a100(),
                                price_request(to_request(p), scratch));
}

bool has_span(const RequestTrace& t, const std::string& name) {
  for (const TraceSpan& s : t.spans) {
    if (s.name == name) return true;
  }
  return false;
}

const TraceSpan* find_span(const RequestTrace& t, const std::string& name) {
  for (const TraceSpan& s : t.spans) {
    if (s.name == name) return &s;
  }
  return nullptr;
}

/// Occupies every ThreadPool worker until release() so work placed by the
/// dispatcher stays queued (tickets registered, not yet claimed) — the
/// window drain-triggered re-placement operates on.
class WorkerJam {
 public:
  WorkerJam() {
    auto& tp = ThreadPool::instance();
    const std::size_t n = tp.worker_count();
    posted_ = n;
    for (std::size_t i = 0; i < n; ++i) {
      tp.post([this] {
        blocked_.fetch_add(1);
        {
          std::unique_lock<std::mutex> lock(mutex_);
          cv_.wait(lock, [this] { return released_; });
        }
        exited_.fetch_add(1);
      });
    }
    // Wait until every worker is actually parked, so nothing posted after
    // this constructor can run until release().
    while (blocked_.load() < n) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }
  void release() {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      released_ = true;
    }
    cv_.notify_all();
  }
  // The destructor must outlive the blockers: a released worker still
  // touches mutex_/cv_ on its way out of the wait.
  ~WorkerJam() {
    release();
    while (exited_.load() < posted_) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }

 private:
  std::size_t posted_ = 0;
  std::mutex mutex_;
  std::condition_variable cv_;
  bool released_ = false;
  std::atomic<std::size_t> blocked_{0};
  std::atomic<std::size_t> exited_{0};
};

// ---- Pricing --------------------------------------------------------------

TEST(SlaPrice, CachedPlanAndAnalyticEstimateAgree) {
  const Problem p =
      make_spmm_problem(128, 64, 64, 8, 0.5, precision::L8R8, 901);
  OperandCache cache(256ull << 20);
  const simt::KernelRun cold = price_request(to_request(p), cache);
  EXPECT_GT(simt::estimate_seconds(simt::a100(), cold), 0.0);
  // Pricing never inserts: the cache must still miss.
  EXPECT_EQ(cache.stats().insertions, 0u);

  // Serve once (builds the plan into the same cache), then price again:
  // identical numbers by the estimate-equals-execute invariant.
  serve_request(to_request(p), cache);
  const simt::KernelRun warm = price_request(to_request(p), cache);
  EXPECT_EQ(simt::estimate_seconds(simt::a100(), warm),
            simt::estimate_seconds(simt::a100(), cold));
}

TEST(SlaPrice, SddmmPricesThroughSameEntryPoint) {
  const Problem p =
      make_sddmm_problem(64, 32, 64, 8, 0.5, precision::L8R8, 902);
  OperandCache cache(256ull << 20);
  EXPECT_GT(simt::estimate_seconds(simt::a100(),
                                   price_request(to_request(p), cache)),
            0.0);
}

// ---- Warmup ---------------------------------------------------------------

TEST(SlaWarmup, BuildsPinsAndIsIdempotent) {
  const Problem spmm =
      make_spmm_problem(128, 64, 64, 8, 0.5, precision::L8R8, 903);
  const Problem sddmm =
      make_sddmm_problem(64, 32, 64, 8, 0.5, precision::L8R8, 904);
  WarmupManifest manifest;
  WarmupEntry hot;
  hot.pattern = spmm.pattern;
  hot.cols = spmm.rhs->cols();
  hot.pin = true;
  manifest.entries.push_back(hot);
  WarmupEntry cold;
  cold.op = OpKind::sddmm;
  cold.pattern = sddmm.pattern;
  cold.cols = sddmm.lhs->cols();  // SDDMM: reduction depth K
  manifest.entries.push_back(cold);

  OperandCache plans(64ull << 20);
  OperandCache::PinScope pins(plans);
  const WarmupReport first = warmup_plans(plans, manifest, &pins);
  EXPECT_EQ(first.plans_built, 2u);
  EXPECT_EQ(first.plans_resident, 0u);
  EXPECT_EQ(first.pinned, 1u);
  EXPECT_EQ(pins.size(), 1u);

  const WarmupReport again = warmup_plans(plans, manifest, &pins);
  EXPECT_EQ(again.plans_built, 0u);
  EXPECT_EQ(again.plans_resident, 2u);
  EXPECT_EQ(again.pinned, 1u);  // pins nest; the entry stays hot
}

TEST(SlaWarmup, RejectsMalformedEntries) {
  OperandCache plans(64ull << 20);
  WarmupManifest missing_pattern;
  missing_pattern.entries.emplace_back();  // no pattern
  missing_pattern.entries.back().cols = 64;
  EXPECT_THROW(warmup_plans(plans, missing_pattern, nullptr), Error);

  const Problem p =
      make_spmm_problem(64, 64, 64, 8, 0.5, precision::L8R8, 905);
  WarmupManifest zero_cols;
  zero_cols.entries.emplace_back();
  zero_cols.entries.back().pattern = p.pattern;  // cols stays 0
  EXPECT_THROW(warmup_plans(plans, zero_cols, nullptr), Error);
}

TEST(SlaWarmup, PoolServesWarmPlanHitsFromFirstRequest) {
  const Problem p =
      make_spmm_problem(128, 64, 64, 8, 0.5, precision::L8R8, 906);
  DevicePoolConfig cfg;
  cfg.device_count = 1;
  cfg.shard_threshold_seconds = 0;
  cfg.linger = std::chrono::microseconds(50);
  DevicePool pool(cfg);

  WarmupManifest manifest;
  WarmupEntry e;
  e.pattern = p.pattern;
  e.cols = p.rhs->cols();
  e.pin = true;
  manifest.entries.push_back(e);
  const WarmupReport report = pool.warmup(manifest);
  EXPECT_EQ(report.plans_built, 1u);
  EXPECT_EQ(report.pinned, 1u);

  const Response resp = pool.submit(to_request(p)).get();
  EXPECT_TRUE(resp.plan_cache_hit);
  expect_same_result(resp, sequential_reference(p), "warm pool");
}

// ---- Deadline shedding ----------------------------------------------------

TEST(SlaShed, InfeasibleDeadlineShedsWithTraceAndStats) {
  const Problem p =
      make_spmm_problem(128, 64, 64, 8, 0.5, precision::L8R8, 908);
  const double est = est_on_a100(p);
  DevicePoolConfig cfg;
  cfg.device_count = 1;
  cfg.shard_threshold_seconds = 0;
  cfg.linger = std::chrono::microseconds(50);
  DevicePool pool(cfg);

  auto fut = pool.submit(to_request(p, /*priority=*/0, 0.5 * est));
  EXPECT_THROW(fut.get(), ShedError);
  pool.drain();

  const DevicePoolStats st = pool.stats();
  EXPECT_EQ(st.shed, 1u);
  EXPECT_EQ(st.failed, 1u);
  EXPECT_EQ(st.completed, 1u);
  // Nothing committed: the modeled clock never saw the shed request.
  EXPECT_EQ(st.devices[0].placed, 0u);
  EXPECT_EQ(st.devices[0].modeled_busy_seconds, 0.0);

  const auto traces = pool.traces().snapshot();
  ASSERT_EQ(traces.size(), 1u);
  EXPECT_FALSE(traces[0]->ok);
  const TraceSpan* shed = find_span(*traces[0], "shed");
  ASSERT_NE(shed, nullptr);
  bool saw_deadline = false, saw_completion = false;
  for (const auto& [k, v] : shed->attrs) {
    saw_deadline = saw_deadline || k == "deadline_seconds";
    saw_completion = saw_completion || k == "modeled_completion_seconds";
  }
  EXPECT_TRUE(saw_deadline);
  EXPECT_TRUE(saw_completion);
}

TEST(SlaShed, ShedErrorIsAnError) {
  // Generic failure handling treats shedding like any rejection; specific
  // handlers can still tell load shedding apart.
  EXPECT_THROW(throw ShedError("x"), Error);
}

TEST(SlaShed, FeasibleDeadlinesServeBitExact) {
  const Problem p =
      make_spmm_problem(128, 64, 64, 8, 0.5, precision::L8R8, 909);
  const double est = est_on_a100(p);
  const int n = 8;
  const double deadline = 10.0 * n * est;  // feasible even fully serialized
  DevicePoolConfig cfg;
  cfg.device_count = 1;
  cfg.shard_threshold_seconds = 0;
  cfg.linger = std::chrono::microseconds(50);
  DevicePool pool(cfg);

  const Response want = sequential_reference(p);
  std::vector<std::future<Response>> futures;
  for (int i = 0; i < n; ++i) {
    futures.push_back(pool.submit(to_request(p, 0, deadline)));
  }
  for (auto& f : futures) {
    const Response resp = f.get();
    expect_same_result(resp, want, "feasible deadline");
    EXPECT_GT(resp.modeled_completion_seconds, 0.0);
    EXPECT_LE(resp.modeled_completion_seconds, deadline);
  }
  EXPECT_EQ(pool.stats().shed, 0u);
}

TEST(SlaShed, ShardedRequestShedsWithFullRollback) {
  // A request over the shard threshold whose latest-slice completion
  // misses the deadline is rolled back whole: no clocks, no slice
  // counters, no sharded_requests — just the shed.
  const Problem p =
      make_spmm_problem(256, 128, 64, 8, 0.5, precision::L8R8, 910);
  const double est = est_on_a100(p);
  DevicePoolConfig cfg;
  cfg.device_count = 2;
  cfg.shard_threshold_seconds = est / 4.0;
  cfg.wave_floor_blocks = 1;
  cfg.linger = std::chrono::microseconds(50);
  DevicePool pool(cfg);

  auto fut = pool.submit(to_request(p, 0, 1e-3 * est));
  EXPECT_THROW(fut.get(), ShedError);
  pool.drain();

  const DevicePoolStats st = pool.stats();
  EXPECT_EQ(st.shed, 1u);
  EXPECT_EQ(st.sharded_requests, 0u);
  EXPECT_EQ(st.shard_slices, 0u);
  for (const DeviceStats& d : st.devices) {
    EXPECT_EQ(d.shard_slices, 0u);
    EXPECT_NEAR(d.modeled_busy_seconds, 0.0, 1e-15);  // rollback residue
  }
  const auto traces = pool.traces().snapshot();
  ASSERT_EQ(traces.size(), 1u);
  EXPECT_TRUE(has_span(*traces[0], "shed"));
}

TEST(SlaShed, RetryRePlacementPastDeadlineSheds) {
  // Admitted (est <= deadline), then the injected first execution fails;
  // the bridged retry completion 2*est misses the 1.5*est budget, so the
  // request sheds instead of burning retry budget on guaranteed-late work.
  const Problem p =
      make_spmm_problem(128, 64, 64, 8, 0.5, precision::L8R8, 911);
  const double est = est_on_a100(p);
  DevicePoolConfig cfg;
  cfg.device_count = 1;
  cfg.shard_threshold_seconds = 0;
  cfg.linger = std::chrono::microseconds(50);
  cfg.fault_plan.exact.push_back({/*device=*/0, /*nth=*/1});
  DevicePool pool(cfg);

  auto fut = pool.submit(to_request(p, 0, 1.5 * est));
  EXPECT_THROW(fut.get(), ShedError);
  pool.drain();

  const DevicePoolStats st = pool.stats();
  EXPECT_EQ(st.shed, 1u);
  EXPECT_EQ(st.faults_injected, 1u);
  EXPECT_EQ(st.retries, 0u);  // the requeue never happened

  const auto traces = pool.traces().snapshot();
  ASSERT_EQ(traces.size(), 1u);
  const TraceSpan* failed = find_span(*traces[0], "replay");
  ASSERT_NE(failed, nullptr);
  const TraceSpan* shed = find_span(*traces[0], "shed");
  ASSERT_NE(shed, nullptr);
  // The shed lands where the failed attempt's modeled time ended.
  EXPECT_DOUBLE_EQ(shed->begin_seconds, failed->end_seconds);
}

TEST(SlaShed, ShedSetIsDeterministicAcrossFleetSizes) {
  // Identical streams shed the identical set of requests on 1-, 2- and
  // 4-device fleets: infeasible deadlines (0.5x the request's own idle
  // estimate) shed everywhere, feasible ones (10x the whole stream's
  // work) serve everywhere — two-sided margins that no placement choice
  // can cross.
  std::vector<Problem> problems;
  for (int i = 0; i < 12; ++i) {
    problems.push_back(make_spmm_problem(128, 64, 64, 8, 0.5,
                                         precision::L8R8, 920 + i));
  }
  double total = 0.0;
  std::vector<double> ests;
  for (const Problem& p : problems) {
    ests.push_back(est_on_a100(p));
    total += ests.back();
  }
  std::set<std::size_t> want_shed;
  for (std::size_t i = 0; i < problems.size(); ++i) {
    if (i % 2 == 1) want_shed.insert(i);
  }

  for (const std::size_t devices : {1u, 2u, 4u}) {
    DevicePoolConfig cfg;
    cfg.device_count = devices;
    cfg.shard_threshold_seconds = 0;
    cfg.linger = std::chrono::microseconds(50);
    DevicePool pool(cfg);
    std::vector<std::future<Response>> futures;
    for (std::size_t i = 0; i < problems.size(); ++i) {
      const double deadline =
          want_shed.count(i) != 0 ? 0.5 * ests[i] : 10.0 * total;
      futures.push_back(pool.submit(to_request(problems[i], 0, deadline)));
    }
    std::set<std::size_t> got_shed;
    for (std::size_t i = 0; i < futures.size(); ++i) {
      try {
        futures[i].get();
      } catch (const ShedError&) {
        got_shed.insert(i);
      }
    }
    EXPECT_EQ(got_shed, want_shed) << "fleet of " << devices;
    EXPECT_EQ(pool.stats().shed, want_shed.size()) << "fleet of " << devices;
  }
}

// ---- EDF dispatch ordering ------------------------------------------------

TEST(SlaEdf, PriorityThenEarliestDeadlineOrdersOneRound) {
  const Problem p =
      make_spmm_problem(128, 64, 64, 8, 0.5, precision::L8R8, 930);
  const double est = est_on_a100(p);
  DevicePoolConfig cfg;
  cfg.device_count = 1;
  cfg.shard_threshold_seconds = 0;
  // One dispatch round: long linger, the queue bound cuts it short the
  // instant the 3rd submit lands (the test_fleet placement idiom).
  cfg.linger = std::chrono::seconds(2);
  cfg.max_queue_depth = 3;
  DevicePool pool(cfg);

  // Submission order: loose deadline, tight deadline, high priority.
  auto loose = pool.submit(to_request(p, 0, 30.0 * est));
  auto tight = pool.submit(to_request(p, 0, 2.5 * est));
  auto urgent = pool.submit(to_request(p, 1));  // no deadline, higher class

  const double c_urgent = urgent.get().modeled_completion_seconds;
  const double c_tight = tight.get().modeled_completion_seconds;
  const double c_loose = loose.get().modeled_completion_seconds;
  // Placement order on the single modeled clock: priority class first,
  // then EDF within the class — completions stack est, 2*est, 3*est.
  EXPECT_NEAR(c_urgent, est, 1e-12);
  EXPECT_NEAR(c_tight, 2.0 * est, 1e-12);
  EXPECT_NEAR(c_loose, 3.0 * est, 1e-12);
  EXPECT_EQ(pool.stats().shed, 0u);
}

// ---- Adaptive linger ------------------------------------------------------

TEST(SlaLinger, DeadlinePressureCountsUrgentRounds) {
  const Problem p =
      make_spmm_problem(128, 64, 64, 8, 0.5, precision::L8R8, 931);
  const double est = est_on_a100(p);
  {
    DevicePoolConfig cfg;
    cfg.device_count = 1;
    cfg.shard_threshold_seconds = 0;
    cfg.linger = std::chrono::microseconds(50);
    DevicePool pool(cfg);
    EXPECT_THROW(pool.submit(to_request(p, 0, 0.5 * est)).get(), ShedError);
    pool.drain();
    // The round's urgency is recorded after its last promise resolves, so
    // drain() can return a beat before the counter lands — poll briefly.
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(5);
    while (pool.stats().urgent_rounds == 0 &&
           std::chrono::steady_clock::now() < deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    EXPECT_GE(pool.stats().urgent_rounds, 1u);
  }
  {
    // Calm traffic (no deadlines) never trips the urgent cadence.
    DevicePoolConfig cfg;
    cfg.device_count = 1;
    cfg.shard_threshold_seconds = 0;
    cfg.linger = std::chrono::microseconds(50);
    DevicePool pool(cfg);
    for (int i = 0; i < 4; ++i) pool.submit(to_request(p)).get();
    EXPECT_EQ(pool.stats().urgent_rounds, 0u);
  }
}

// ---- Affinity placement ---------------------------------------------------

TEST(SlaAffinity, RepeatPatternReturnsToResidentDevice) {
  const Problem p =
      make_spmm_problem(128, 64, 64, 8, 0.5, precision::L8R8, 932);
  DevicePoolConfig cfg;
  cfg.device_count = 2;
  cfg.shard_threshold_seconds = 0;
  cfg.linger = std::chrono::microseconds(50);
  cfg.affinity_tolerance_seconds = 1.0;  // generous: residency always wins
  DevicePool pool(cfg);

  const Response want = sequential_reference(p);
  const Response first = pool.submit(to_request(p)).get();
  const Response second = pool.submit(to_request(p)).get();
  const Response third = pool.submit(to_request(p)).get();
  expect_same_result(third, want, "affinity");
  // Pure earliest-completion placement would alternate devices (the
  // served device keeps its modeled backlog); affinity routes the repeat
  // traffic back to where the pattern's operands are resident.
  EXPECT_EQ(second.device, first.device);
  EXPECT_EQ(third.device, first.device);
  EXPECT_GE(pool.stats().affinity_hits, 2u);
}

TEST(SlaAffinity, OffByDefaultKeepsEarliestCompletionPlacement) {
  DevicePoolConfig defaults;
  EXPECT_EQ(defaults.affinity_tolerance_seconds, 0.0);

  const Problem p =
      make_spmm_problem(128, 64, 64, 8, 0.5, precision::L8R8, 933);
  DevicePoolConfig cfg;
  cfg.device_count = 2;
  cfg.shard_threshold_seconds = 0;
  cfg.linger = std::chrono::microseconds(50);
  DevicePool pool(cfg);
  const Response first = pool.submit(to_request(p)).get();
  const Response second = pool.submit(to_request(p)).get();
  // The served device keeps est of modeled backlog, so the idle device
  // offers the earlier completion for the repeat.
  EXPECT_NE(second.device, first.device);
  EXPECT_EQ(pool.stats().affinity_hits, 0u);
}

// ---- Drain-triggered re-placement -----------------------------------------

TEST(SlaReplace, DrainRepricesQueuedWorkOntoSurvivors) {
  const Problem p =
      make_spmm_problem(128, 64, 64, 8, 0.5, precision::L8R8, 934);
  const Response want = sequential_reference(p);

  DevicePoolConfig cfg;
  cfg.device_count = 2;
  cfg.shard_threshold_seconds = 0;
  cfg.linger = std::chrono::microseconds(50);
  // A drain re-placement is pool-initiated, not a fault: it must not
  // consume retry budget, so a zero budget still serves every request.
  cfg.max_retries = 0;
  DevicePool pool(cfg);

  WorkerJam jam;  // placements register tickets; no task claims one yet
  std::vector<std::future<Response>> futures;
  for (int i = 0; i < 8; ++i) futures.push_back(pool.submit(to_request(p)));
  // Wait for the dispatcher (its own thread, unaffected by the jam) to
  // place the whole backlog.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (true) {
    const DevicePoolStats st = pool.stats();
    if (st.devices[0].placed + st.devices[1].placed == 8) break;
    ASSERT_LT(std::chrono::steady_clock::now(), deadline)
        << "backlog never fully placed";
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  const std::uint64_t on_drained = pool.stats().devices[1].placed;
  ASSERT_GT(on_drained, 0u);  // identical requests alternate over the tie

  pool.drain_device(1);
  const DevicePoolStats mid = pool.stats();
  // Every queued ticket moved: re-priced onto the survivor, counters and
  // modeled clock with it.
  EXPECT_EQ(mid.replaced, on_drained);
  EXPECT_EQ(mid.devices[1].placed, 0u);
  // Rolling the moved estimates back off the clock may leave float
  // residue on the order of a few ulps — never real modeled work.
  EXPECT_NEAR(mid.devices[1].modeled_busy_seconds, 0.0, 1e-15);
  EXPECT_EQ(mid.devices[0].placed, 8u);

  jam.release();
  for (auto& f : futures) {
    const Response resp = f.get();
    expect_same_result(resp, want, "replaced");
    EXPECT_EQ(resp.device, 0);  // the claim reads the final placement
    EXPECT_EQ(resp.retries, 0u);
  }
  pool.drain();  // counters land just before the drain gate opens
  const DevicePoolStats done = pool.stats();
  EXPECT_EQ(done.devices[1].completed, 0u);
  EXPECT_EQ(done.devices[0].completed, 8u);
  EXPECT_EQ(done.retries, 0u);
  EXPECT_EQ(done.failed, 0u);
  // Observable, not silent: each moved request's trace bridges the move.
  std::size_t traced_moves = 0;
  for (const auto& t : pool.traces().snapshot()) {
    if (has_span(*t, "replace")) traced_moves += 1;
  }
  EXPECT_EQ(traced_moves, on_drained);
}

// Drain re-placement is pool-initiated, not a fault, so it must not
// consume retry budget: the one queued request moves from the fast part to
// the edge part and is served there with a zero budget.
TEST(HealingRetryBudget, DrainReplacementConsumesNoBudget) {
  const Problem p =
      make_spmm_problem(128, 64, 64, 8, 0.5, precision::L8R8, 9701);
  DevicePoolConfig cfg;
  cfg.devices = {simt::a100(), simt::edge()};
  cfg.shard_threshold_seconds = 0;
  cfg.max_retries = 0;  // any consumed retry would fail the request
  cfg.linger = std::chrono::seconds(2);
  cfg.max_queue_depth = 1;
  DevicePool pool(cfg);

  WorkerJam jam;
  auto fut = pool.submit(to_request(p));
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (true) {
    const DevicePoolStats st = pool.stats();
    if (st.devices[0].placed + st.devices[1].placed == 1) break;
    ASSERT_LT(std::chrono::steady_clock::now(), deadline)
        << "request never placed";
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  pool.drain_device(0);  // re-places the queued ticket onto the edge part
  jam.release();

  const Response got = fut.get();
  expect_same_result(got, sequential_reference(p), "re-placed request");
  EXPECT_EQ(got.device, 1);
  EXPECT_EQ(got.retries, 0u);
  const DevicePoolStats st = pool.stats();
  EXPECT_EQ(st.replaced, 1u);
  EXPECT_EQ(st.retries, 0u);
  EXPECT_EQ(st.failed, 0u);
}

TEST(SlaReplace, NoSurvivorKeepsQueuedWorkOnDrainedDevice) {
  const Problem p =
      make_spmm_problem(128, 64, 64, 8, 0.5, precision::L8R8, 935);
  const Response want = sequential_reference(p);
  DevicePoolConfig cfg;
  cfg.device_count = 1;
  cfg.shard_threshold_seconds = 0;
  cfg.linger = std::chrono::microseconds(50);
  DevicePool pool(cfg);

  WorkerJam jam;
  std::vector<std::future<Response>> futures;
  for (int i = 0; i < 2; ++i) futures.push_back(pool.submit(to_request(p)));
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (pool.stats().devices[0].placed < 2) {
    ASSERT_LT(std::chrono::steady_clock::now(), deadline);
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  pool.drain_device(0);
  EXPECT_EQ(pool.stats().replaced, 0u);  // nowhere to move the work

  jam.release();
  for (auto& f : futures) {
    const Response resp = f.get();
    expect_same_result(resp, want, "drained-but-kept");
    EXPECT_EQ(resp.device, 0);
  }
}

}  // namespace
}  // namespace magicube::serve
