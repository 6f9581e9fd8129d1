// Elastic heterogeneous fleet suite (`serve` CTest label, TSan CI gate):
// per-spec cost-model placement over mixed fleets (an A100-class part
// beside simt::edge() parts), add_device/drain_device mid-traffic,
// deterministic fault injection with bounded-retry recovery (results stay
// bit-exact vs the sequential reference under seeded fault rates up to
// 30%), retry-budget exhaustion surfacing clean errors, and the
// submit-queue lifecycle regressions (detail::SubmitQueueCore through the
// pool): bounded-queue backpressure, shutdown with in-flight work and
// double-shutdown safety.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <vector>

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

/// The request's analytic price on the reference spec — stream deadlines
/// below are multiples of it.
double est_on_a100(const Problem& p) {
  OperandCache scratch(16ull << 20);
  return simt::estimate_seconds(simt::a100(),
                                price_request(to_request(p), scratch));
}

// ---- Heterogeneous placement ----------------------------------------------

TEST(FleetPlacement, FastPartAbsorbsMoreTraffic) {
  DevicePoolConfig cfg;
  cfg.devices = {simt::a100(), simt::edge()};
  cfg.shard_threshold_seconds = 0;  // placement only
  // One placement round: long linger, the queue bound cuts it short the
  // instant the 8th submit lands (see test_device_pool's placement tests).
  cfg.linger = std::chrono::seconds(2);
  cfg.max_queue_depth = 8;
  DevicePool pool(cfg);
  EXPECT_EQ(pool.device_spec(1).sm_count, 16);

  // Large enough that modeled compute dominates the (spec-shared) kernel
  // launch overhead — small problems price nearly identically everywhere.
  const Problem p =
      make_spmm_problem(1024, 512, 512, 8, 0.5, precision::L8R8, 71);
  const Response want = sequential_reference(p);
  std::vector<std::future<Response>> futures;
  for (int i = 0; i < 8; ++i) futures.push_back(pool.submit(to_request(p)));
  for (auto& f : futures) expect_same_result(f.get(), want, "hetero");

  // Earliest-modeled-completion placement: the A100-class part prices the
  // run far cheaper than the 16-SM edge part, so it must absorb the
  // majority of an identical-request burst (the edge device only receives
  // one once the A100 backlog exceeds the edge estimate).
  const DevicePoolStats ps = pool.stats();
  ASSERT_EQ(ps.devices.size(), 2u);
  EXPECT_EQ(ps.devices[0].placed + ps.devices[1].placed, 8u);
  EXPECT_GT(ps.devices[0].placed, ps.devices[1].placed);
  EXPECT_EQ(ps.tie_breaks, 0u);  // heterogeneous costs never tie exactly
}

TEST(FleetPlacement, HeterogeneousEstimatesPricePerSpec) {
  // The same run priced on each spec: the edge part must be several times
  // slower, which is the entire signal the placement argmin consumes. The
  // problem has to be compute-bound — both specs share the same host-side
  // launch overhead, which dominates (and equalizes) tiny runs.
  Rng rng(72);
  const auto pattern = sparse::make_uniform_pattern(1024, 512, 8, 0.5, rng);
  core::SpmmConfig scfg;
  const simt::KernelRun run = core::spmm_estimate(pattern, 512, scfg);
  const double on_a100 = simt::estimate_seconds(simt::a100(), run);
  const double on_edge = simt::estimate_seconds(simt::edge(), run);
  EXPECT_GT(on_edge, 3.0 * on_a100);
}

// ---- Elasticity -----------------------------------------------------------

TEST(FleetElastic, AddDeviceJoinsMidTraffic) {
  DevicePoolConfig cfg;
  cfg.device_count = 1;
  cfg.shard_threshold_seconds = 0;
  cfg.linger = std::chrono::microseconds(50);
  DevicePool pool(cfg);

  const Problem p =
      make_spmm_problem(128, 64, 64, 8, 0.5, precision::L8R8, 73);
  const Response want = sequential_reference(p);
  expect_same_result(pool.submit(to_request(p)).get(), want, "before add");
  EXPECT_EQ(pool.device_count(), 1u);

  const std::size_t added = pool.add_device(simt::a100());
  EXPECT_EQ(added, 1u);
  EXPECT_EQ(pool.device_count(), 2u);
  EXPECT_EQ(pool.active_device_count(), 2u);
  EXPECT_TRUE(pool.device_active(added));

  std::vector<std::future<Response>> futures;
  for (int i = 0; i < 8; ++i) futures.push_back(pool.submit(to_request(p)));
  for (auto& f : futures) expect_same_result(f.get(), want, "after add");
  pool.drain();

  // The joined device has its own cache and stats row and received work
  // (its modeled clock starts idle, so least-loaded placement must route
  // to it immediately).
  const DevicePoolStats ps = pool.stats();
  ASSERT_EQ(ps.devices.size(), 2u);
  EXPECT_GT(ps.devices[added].placed, 0u);
  EXPECT_GT(pool.device_cache(added).stats().lookups, 0u);
}

TEST(FleetElastic, DrainDeviceStopsNewPlacement) {
  DevicePoolConfig cfg;
  cfg.device_count = 2;
  cfg.shard_threshold_seconds = 0;
  cfg.linger = std::chrono::microseconds(50);
  DevicePool pool(cfg);

  pool.drain_device(0);
  pool.drain_device(0);  // idempotent
  EXPECT_FALSE(pool.device_active(0));
  EXPECT_EQ(pool.active_device_count(), 1u);
  EXPECT_EQ(pool.device_count(), 2u);

  const Problem p =
      make_spmm_problem(128, 64, 64, 8, 0.5, precision::L8R8, 74);
  const Response want = sequential_reference(p);
  std::vector<std::future<Response>> futures;
  for (int i = 0; i < 6; ++i) futures.push_back(pool.submit(to_request(p)));
  for (auto& f : futures) {
    const Response r = f.get();
    expect_same_result(r, want, "drained");
    EXPECT_EQ(r.device, 1);
  }
  pool.drain();
  const DevicePoolStats ps = pool.stats();
  EXPECT_EQ(ps.devices[0].placed, 0u);
  EXPECT_EQ(ps.devices[1].placed, 6u);
  EXPECT_THROW(pool.drain_device(7), Error);
}

TEST(FleetElastic, FullyDrainedPoolFailsPlacementCleanly) {
  DevicePoolConfig cfg;
  cfg.device_count = 2;
  cfg.linger = std::chrono::microseconds(50);
  DevicePool pool(cfg);
  pool.drain_device(0);
  pool.drain_device(1);
  EXPECT_EQ(pool.active_device_count(), 0u);

  const Problem p =
      make_spmm_problem(64, 64, 64, 8, 0.5, precision::L8R8, 75);
  auto f = pool.submit(to_request(p));
  try {
    f.get();
    FAIL() << "placement on a fully drained pool must fail";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("no active device"),
              std::string::npos);
  }
  pool.drain();
  const DevicePoolStats ps = pool.stats();
  EXPECT_EQ(ps.completed, 1u);
  EXPECT_EQ(ps.failed, 1u);
}

// ---- Fault injection & recovery -------------------------------------------

TEST(FleetFault, ExactFaultRetriesOnSurvivingDevice) {
  DevicePoolConfig cfg;
  cfg.device_count = 2;
  cfg.shard_threshold_seconds = 0;
  cfg.linger = std::chrono::microseconds(50);
  cfg.fault_plan.exact.push_back({/*device=*/0, /*nth=*/1});
  DevicePool pool(cfg);

  const Problem p =
      make_spmm_problem(128, 64, 64, 8, 0.5, precision::L8R8, 76);
  // A single request over two idle identical devices ties and the
  // round-robin cursor picks device 0, whose first execution is doomed;
  // recovery must requeue it to device 1 and still produce the bit-exact
  // result.
  const Response r = pool.submit(to_request(p)).get();
  expect_same_result(r, sequential_reference(p), "after fault");
  EXPECT_EQ(r.retries, 1u);
  EXPECT_EQ(r.device, 1);
  ASSERT_TRUE(r.trace);
  EXPECT_EQ(r.trace->retries.load(), 1u);
  EXPECT_EQ(r.trace->faults_injected.load(), 1u);

  const DevicePoolStats ps = pool.stats();
  EXPECT_EQ(ps.faults_injected, 1u);
  EXPECT_EQ(ps.retries, 1u);
  EXPECT_EQ(ps.failed, 0u);
  // The failed attempt rolled its estimate off device 0's modeled clock.
  EXPECT_EQ(ps.devices[0].modeled_busy_seconds, 0.0);
  EXPECT_GT(ps.devices[1].modeled_busy_seconds, 0.0);
}

TEST(FleetFault, SingleDeviceRetriesInPlace) {
  DevicePoolConfig cfg;
  cfg.device_count = 1;
  cfg.shard_threshold_seconds = 0;
  cfg.linger = std::chrono::microseconds(50);
  cfg.fault_plan.exact.push_back({/*device=*/0, /*nth=*/2});
  DevicePool pool(cfg);

  const Problem p =
      make_spmm_problem(128, 64, 64, 8, 0.5, precision::L8R8, 77);
  const Response want = sequential_reference(p);
  // Execution 1 fine, execution 2 (the second request's first attempt)
  // faults; with no other active device the retry relaxes to the failed
  // device itself — execution 3 succeeds.
  expect_same_result(pool.submit(to_request(p)).get(), want, "exec 1");
  const Response r2 = pool.submit(to_request(p)).get();
  expect_same_result(r2, want, "exec 2+3");
  EXPECT_EQ(r2.retries, 1u);
  expect_same_result(pool.submit(to_request(p)).get(), want, "exec 4");
  const DevicePoolStats ps = pool.stats();
  EXPECT_EQ(ps.faults_injected, 1u);
  EXPECT_EQ(ps.retries, 1u);
  EXPECT_EQ(ps.failed, 0u);
}

TEST(FleetFault, RetryBudgetExhaustionSurfacesCleanError) {
  DevicePoolConfig cfg;
  cfg.device_count = 1;
  cfg.shard_threshold_seconds = 0;
  cfg.linger = std::chrono::microseconds(50);
  cfg.fault_plan.probability = 1.0;  // every execution fails
  cfg.max_retries = 2;
  DevicePool pool(cfg);

  const Problem p =
      make_spmm_problem(64, 64, 64, 8, 0.5, precision::L8R8, 78);
  auto f = pool.submit(to_request(p));
  try {
    f.get();
    FAIL() << "a 100% fault rate must exhaust the retry budget";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("retry budget exhausted"),
              std::string::npos);
  }
  pool.drain();  // never hangs: the failure fully retired the request
  const DevicePoolStats ps = pool.stats();
  EXPECT_EQ(ps.completed, 1u);
  EXPECT_EQ(ps.failed, 1u);
  EXPECT_EQ(ps.faults_injected, 3u);  // initial attempt + 2 retries
  EXPECT_EQ(ps.retries, 2u);
  // No partial write leaked: the modeled clock rolled every attempt back.
  EXPECT_EQ(ps.devices[0].modeled_busy_seconds, 0.0);
  EXPECT_EQ(pool.plan_cache().pinned_count(), 0u);
}

TEST(FleetFault, ShardedSliceRequeuesBitExact) {
  DevicePoolConfig cfg;
  cfg.device_count = 2;
  cfg.shard_threshold_seconds = 1e-9;  // force sharding
  cfg.wave_floor_blocks = 1;
  cfg.linger = std::chrono::microseconds(50);
  cfg.fault_plan.exact.push_back({/*device=*/0, /*nth=*/1});
  DevicePool pool(cfg);

  const Problem p =
      make_spmm_problem(256, 128, 128, 8, 0.6, precision::L8R8, 79);
  const Response r = pool.submit(to_request(p)).get();
  expect_same_result(r, sequential_reference(p), "sharded fault");
  EXPECT_EQ(r.shards, 2u);
  EXPECT_EQ(r.retries, 1u);  // exactly the doomed slice requeued
  const DevicePoolStats ps = pool.stats();
  EXPECT_EQ(ps.faults_injected, 1u);
  EXPECT_EQ(ps.retries, 1u);
  EXPECT_EQ(ps.failed, 0u);
  EXPECT_EQ(pool.plan_cache().pinned_count(), 0u);
}

TEST(FleetElastic, DrainRacingSameSpecReplacementLosesNoTicket) {
  DevicePoolConfig cfg;
  cfg.device_count = 2;
  cfg.shard_threshold_seconds = 0;
  cfg.linger = std::chrono::microseconds(50);
  DevicePool pool(cfg);

  const Problem p =
      make_spmm_problem(128, 64, 64, 8, 0.5, precision::L8R8, 810);
  const Response want = sequential_reference(p);

  // A replacement part of the same spec joins while the old device drains
  // mid-stream, racing the submit loop: queued work on the drained device
  // re-places, in-flight claims finish where they were, and nothing is
  // lost or served twice regardless of interleaving.
  constexpr int kRequests = 32;
  std::vector<std::future<Response>> futures;
  std::thread churn;
  for (int i = 0; i < kRequests; ++i) {
    if (i == kRequests / 2) {
      churn = std::thread([&pool] {
        pool.drain_device(0);
        pool.add_device(simt::a100());  // same-spec replacement
      });
    }
    futures.push_back(pool.submit(to_request(p)));
  }
  churn.join();
  // The racing submits may all place before the replacement joins (a slow
  // churn thread, e.g. under ExecMode::simulate); one more request after
  // the join must land on it, the device with the least modeled backlog.
  futures.push_back(pool.submit(to_request(p)));
  for (auto& f : futures) expect_same_result(f.get(), want, "churn race");
  pool.drain();

  const DevicePoolStats ps = pool.stats();
  EXPECT_EQ(ps.submitted, static_cast<std::uint64_t>(kRequests) + 1);
  EXPECT_EQ(ps.completed, ps.submitted);  // no ticket lost
  EXPECT_EQ(ps.failed, 0u);
  ASSERT_EQ(ps.devices.size(), 3u);
  EXPECT_EQ(ps.devices[0].placed + ps.devices[1].placed +
                ps.devices[2].placed,
            ps.submitted);
  EXPECT_FALSE(pool.device_active(0));
  EXPECT_TRUE(pool.device_active(2));
  EXPECT_GT(ps.devices[2].placed, 0u);  // the replacement absorbed traffic
  EXPECT_EQ(pool.plan_cache().pinned_count(), 0u);
}

// ---- Property tier: heterogeneous pools x fault rates x churn --------------
//
// Randomized request streams over mixed fleets of N in {2, 3, 4} devices
// with seeded fault rates from 0 to 30% and a device joining then draining
// mid-stream. Every delivered response must be bit-exact with the
// sequential single-device reference; every failure (possible only through
// retry-budget exhaustion, made vanishingly rare by the budget) must be a
// clean Error. Nothing may hang and no pin may leak.

class FleetPropertyTest : public ::testing::TestWithParam<std::size_t> {};

TEST_P(FleetPropertyTest, HeterogeneousFaultyChurningStreamBitExact) {
  const std::size_t devices = GetParam();
  const std::vector<simt::DeviceSpec> kinds = {simt::a100(), simt::edge(),
                                               simt::a100(), simt::edge()};

  std::vector<Problem> catalogue;
  catalogue.push_back(
      make_spmm_problem(128, 64, 64, 8, 0.5, precision::L8R8, 801));
  catalogue.push_back(
      make_spmm_problem(64, 128, 128, 8, 0.7, precision::L16R8, 802));
  catalogue.push_back(
      make_spmm_problem(128, 128, 64, 8, 0.8, precision::L4R4, 803));
  catalogue.push_back(
      make_spmm_problem(256, 64, 128, 8, 0.4, precision::L8R8, 804));
  catalogue.push_back(
      make_sddmm_problem(64, 64, 64, 8, 0.6, precision::L8R8, 805));
  catalogue.push_back(
      make_sddmm_problem(128, 64, 64, 8, 0.7, precision::L16R16, 806));
  std::vector<Response> expected;
  std::vector<double> ests;
  for (const Problem& p : catalogue) {
    expected.push_back(sequential_reference(p));
    ests.push_back(est_on_a100(p));
  }

  for (const double fault_rate : {0.0, 0.1, 0.3}) {
    DevicePoolConfig cfg;
    cfg.devices.assign(kinds.begin(),
                       kinds.begin() + static_cast<std::ptrdiff_t>(devices));
    cfg.shard_threshold_seconds = 1e-9;  // shard everything shardable
    cfg.wave_floor_blocks = 1;
    cfg.linger = std::chrono::microseconds(50);
    cfg.fault_plan.probability = fault_rate;
    cfg.fault_plan.seed = 0xfa57 + devices;
    // Budget sized so a stream of this length exhausts it with negligible
    // probability even at the 30% rate — failures stay a theoretical
    // clean-error path here, asserted directly elsewhere.
    cfg.max_retries = 8;
    DevicePool pool(cfg);

    Rng stream_rng(0xf1ee7 + devices + static_cast<std::uint64_t>(
                                            fault_rate * 100));
    constexpr int kRequests = 48;
    std::vector<std::pair<std::size_t, std::future<Response>>> futures;
    std::size_t joined = 0;
    for (int i = 0; i < kRequests; ++i) {
      if (i == kRequests / 3) {
        joined = pool.add_device(simt::edge());  // churn: join mid-stream
      }
      if (i == 2 * kRequests / 3) {
        pool.drain_device(joined);  // churn: leave mid-stream
      }
      const std::size_t pick = stream_rng.next_below(catalogue.size());
      const int priority = static_cast<int>(stream_rng.next_below(3));
      // Every third request carries a deadline generous enough to admit
      // through any backlog and retry chain this stream builds, so the
      // deadline-aware paths (EDF ordering, admission and retry-time shed
      // checks) run under faults and churn without shedding.
      const double deadline = i % 3 == 0 ? 1e4 * ests[pick] : 0.0;
      futures.emplace_back(
          pick, pool.submit(to_request(catalogue[pick], priority, deadline)));
    }

    std::uint64_t clean_failures = 0;
    for (auto& [pick, f] : futures) {
      try {
        const Response got = f.get();
        expect_same_result(got, expected[pick], "fleet stream");
      } catch (const Error&) {
        clean_failures += 1;  // budget exhaustion is clean, never a hang
      }
    }
    pool.drain();

    const DevicePoolStats ps = pool.stats();
    EXPECT_EQ(ps.submitted, static_cast<std::uint64_t>(kRequests));
    EXPECT_EQ(ps.completed, ps.submitted);
    EXPECT_EQ(ps.failed, clean_failures);
    EXPECT_EQ(pool.plan_cache().pinned_count(), 0u);
    EXPECT_EQ(pool.device_count(), devices + 1);
    EXPECT_FALSE(pool.device_active(joined));
    if (fault_rate == 0.0) {
      EXPECT_EQ(ps.faults_injected, 0u);
      EXPECT_EQ(ps.retries, 0u);
      EXPECT_EQ(clean_failures, 0u);
    } else if (fault_rate == 0.3) {
      // ~30% of >= 48 executions: statistically certain to fire.
      EXPECT_GT(ps.faults_injected, 0u);
      EXPECT_GT(ps.retries, 0u);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(FleetSizes, FleetPropertyTest,
                         ::testing::Values(2u, 3u, 4u),
                         [](const auto& info) {
                           return "N" + std::to_string(info.param);
                         });

// ---- Retry counters under a sick device ------------------------------------
//
// A transiently sick device 0 (60% faults over its first 30 executions) on
// top of a 5% background rate, with every third request carrying a
// generous deadline: bounded retry alone must serve the stream bit-exact,
// and the pool's fault, retry and failure counters must agree with what
// the futures delivered.

class HealingInvariantsTest : public ::testing::TestWithParam<std::size_t> {};

TEST_P(HealingInvariantsTest, CountersConsistentUnderFaultyStream) {
  const std::size_t devices = GetParam();
  const std::vector<simt::DeviceSpec> kinds = {simt::a100(), simt::edge(),
                                               simt::a100(), simt::edge()};

  std::vector<Problem> catalogue;
  catalogue.push_back(
      make_spmm_problem(128, 64, 64, 8, 0.5, precision::L8R8, 9801));
  catalogue.push_back(
      make_spmm_problem(64, 128, 128, 8, 0.7, precision::L16R8, 9802));
  catalogue.push_back(
      make_sddmm_problem(64, 64, 64, 8, 0.6, precision::L8R8, 9803));
  std::vector<Response> expected;
  std::vector<double> ests;
  for (const Problem& p : catalogue) {
    expected.push_back(sequential_reference(p));
    ests.push_back(est_on_a100(p));
  }

  DevicePoolConfig cfg;
  cfg.devices.assign(kinds.begin(),
                     kinds.begin() + static_cast<std::ptrdiff_t>(devices));
  cfg.shard_threshold_seconds = 0;
  cfg.linger = std::chrono::microseconds(50);
  cfg.max_retries = 8;
  cfg.fault_plan.probability = 0.05;
  cfg.fault_plan.windows.push_back(
      {/*device=*/0, /*probability=*/0.6, /*from=*/1, /*to=*/30});
  cfg.fault_plan.seed = 0x4ea1 + devices;
  DevicePool pool(cfg);

  constexpr int kRequests = 60;
  std::vector<std::pair<std::size_t, std::future<Response>>> futures;
  for (int i = 0; i < kRequests; ++i) {
    const std::size_t pick =
        static_cast<std::size_t>(i) % catalogue.size();
    const double deadline = i % 3 == 0 ? 1e4 * ests[pick] : 0.0;
    futures.emplace_back(
        pick, pool.submit(to_request(catalogue[pick], 0, deadline)));
  }

  std::uint64_t clean_failures = 0;
  std::uint64_t served_retries = 0;
  for (auto& [pick, f] : futures) {
    try {
      const Response got = f.get();
      expect_same_result(got, expected[pick], "faulty stream");
      served_retries += got.retries;
    } catch (const Error&) {
      clean_failures += 1;
    }
  }
  pool.drain();

  const DevicePoolStats st = pool.stats();
  EXPECT_EQ(st.submitted, static_cast<std::uint64_t>(kRequests));
  EXPECT_EQ(st.completed, st.submitted);
  EXPECT_EQ(st.failed, clean_failures);
  EXPECT_LE(st.shed, st.failed);
  // The storm ran: device 0 serves most of the early stream inside its
  // sick window.
  EXPECT_GT(st.faults_injected, 0u);
  // Whole requests only: every requeue follows exactly one injected fault,
  // and every fault either requeues or ends its request as a failure.
  EXPECT_LE(st.retries, st.faults_injected);
  EXPECT_LE(st.faults_injected, st.retries + st.failed);
  EXPECT_LE(served_retries, st.retries);
  EXPECT_EQ(pool.plan_cache().pinned_count(), 0u);
}

INSTANTIATE_TEST_SUITE_P(FleetSizes, HealingInvariantsTest,
                         ::testing::Values(2u, 4u),
                         [](const auto& info) {
                           return "N" + std::to_string(info.param);
                         });

// ---- Submit-queue lifecycle -----------------------------------------------
//
// The pool's detail::SubmitQueueCore contract: bounded-queue backpressure
// that completes everything, shutdown that waits out in-flight work,
// idempotent (and concurrent) shutdown, and submit-after-shutdown failing
// cleanly.

std::unique_ptr<DevicePool> make_pool(std::size_t max_queue_depth) {
  DevicePoolConfig cfg;
  cfg.device_count = 2;
  cfg.shard_threshold_seconds = 0;
  cfg.max_queue_depth = max_queue_depth;
  cfg.linger = std::chrono::microseconds(50);
  return std::make_unique<DevicePool>(cfg);
}

TEST(DevicePoolLifecycle, BoundedQueueBackpressureCompletesEverything) {
  auto pool = make_pool(/*max_queue_depth=*/2);
  const Problem p =
      make_spmm_problem(128, 64, 64, 8, 0.6, precision::L8R8, 90);
  const Response want = sequential_reference(p);
  std::vector<std::future<Response>> futures;
  for (int i = 0; i < 24; ++i) {
    futures.push_back(pool->submit(to_request(p)));  // blocks at depth 2
  }
  for (auto& f : futures) expect_same_result(f.get(), want, "bounded");
  pool->drain();
  const auto stats = pool->stats();
  EXPECT_EQ(stats.submitted, 24u);
  EXPECT_EQ(stats.completed, 24u);
  EXPECT_EQ(stats.failed, 0u);
}

TEST(DevicePoolLifecycle, ShutdownWaitsOutInflightWork) {
  auto pool = make_pool(/*max_queue_depth=*/0);
  const Problem p =
      make_spmm_problem(128, 64, 64, 8, 0.6, precision::L8R8, 91);
  const Response want = sequential_reference(p);
  std::vector<std::future<Response>> futures;
  for (int i = 0; i < 12; ++i) {
    futures.push_back(pool->submit(to_request(p)));
  }
  pool->shutdown();
  // Shutdown drained the queue and waited out every in-flight request:
  // all futures are ready this instant, none abandoned.
  for (auto& f : futures) {
    ASSERT_EQ(f.wait_for(std::chrono::seconds(0)),
              std::future_status::ready);
    expect_same_result(f.get(), want, "shutdown");
  }
  EXPECT_THROW(pool->submit(to_request(p)), Error);
}

TEST(DevicePoolLifecycle, DoubleAndConcurrentShutdownAreSafe) {
  auto pool = make_pool(/*max_queue_depth=*/0);
  const Problem p =
      make_spmm_problem(64, 64, 64, 8, 0.6, precision::L8R8, 92);
  std::vector<std::future<Response>> futures;
  for (int i = 0; i < 6; ++i) {
    futures.push_back(pool->submit(to_request(p)));
  }
  std::thread other([&] { pool->shutdown(); });
  pool->shutdown();
  other.join();
  pool->shutdown();  // and once more after it fully stopped
  for (auto& f : futures) EXPECT_NO_THROW(f.get());
  EXPECT_THROW(pool->submit(to_request(p)), Error);
  // The destructor's shutdown is now a no-op; ~pool must not hang.
}

TEST(DevicePoolLifecycle, ShutdownUnblocksBackpressuredSubmitters) {
  auto pool = make_pool(/*max_queue_depth=*/1);
  const Problem p =
      make_spmm_problem(128, 64, 64, 8, 0.6, precision::L8R8, 93);
  std::atomic<int> outcomes{0};  // submits that either completed or threw
  std::vector<std::thread> submitters;
  for (int t = 0; t < 4; ++t) {
    submitters.emplace_back([&] {
      try {
        auto f = pool->submit(to_request(p));
        f.wait();
      } catch (const Error&) {
        // Blocked in backpressure when shutdown began: clean refusal.
      }
      outcomes.fetch_add(1);
    });
  }
  // Give the submitters a moment to pile into the bounded queue, then
  // shut down under them: every one must return (served or refused),
  // never deadlock.
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  pool->shutdown();
  for (auto& t : submitters) t.join();
  EXPECT_EQ(outcomes.load(), 4);
}

// Regression for the SubmitQueueCore notify-ordering defect: submit() and
// shutdown() used to issue their condition-variable notifies *after*
// releasing the queue mutex, so a submitter preempted between unlock and
// notify could deliver that notify onto an engine whose shutdown() had
// already returned and whose owner had begun destruction — a use of
// destroyed synchronization state (TSan-visible). With notifies issued
// under the lock, shutdown()'s final wait serializes against every
// straggler, making "destroy immediately after shutdown() returns" safe
// even while submitters are still unwinding out of their refusal. This
// stress drives exactly that window, repeatedly and with no settling
// sleep, so the race has many chances to fire under the sanitizers.
TEST(DevicePoolLifecycle, RacingShutdownThenImmediateDestruction) {
  const Problem p =
      make_spmm_problem(64, 64, 64, 8, 0.6, precision::L8R8, 94);
  for (int round = 0; round < 20; ++round) {
    auto pool = make_pool(/*max_queue_depth=*/1);
    std::atomic<int> outcomes{0};
    std::vector<std::thread> submitters;
    for (int t = 0; t < 3; ++t) {
      submitters.emplace_back([&] {
        try {
          auto f = pool->submit(to_request(p));
          f.wait();
        } catch (const Error&) {
          // Refused at or after shutdown: the clean outcome.
        }
        outcomes.fetch_add(1);
      });
    }
    // Spin until every submitter was *admitted* (submitted_ increments
    // inside the core, before the unlock/notify tail the old code got
    // wrong) — so all three are past their engine dereference, and the
    // teardown below races exactly their exit paths out of submit().
    while (pool->stats().submitted < 3u) std::this_thread::yield();
    pool->shutdown();
    pool.reset();  // owner tears down the instant shutdown returns
    for (auto& t : submitters) t.join();
    EXPECT_EQ(outcomes.load(), 3);
  }
}

}  // namespace
}  // namespace magicube::serve
