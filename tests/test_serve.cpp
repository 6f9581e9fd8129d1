// Serving-engine suite (`serve` CTest label, also the TSan CI gate):
// operand-cache accounting and LRU eviction, and a one-device DevicePool
// serving bit-exact against sequential core:: calls across precision pairs,
// failure propagation, drain, bounded-queue backpressure and a
// multi-threaded submit stress test.

#include <gtest/gtest.h>

#include <cstdint>
#include <future>
#include <map>
#include <memory>
#include <thread>
#include <vector>

#include "core/reference.hpp"
#include "serve/serve.hpp"

namespace magicube::serve {
namespace {

constexpr std::size_t kM = 64, kK = 64, kN = 64;

struct Problem {
  std::shared_ptr<const sparse::BlockPattern> pattern;
  std::shared_ptr<const Matrix<std::int32_t>> lhs;
  std::shared_ptr<const Matrix<std::int32_t>> rhs;
};

Problem make_problem(PrecisionPair prec, std::uint64_t seed,
                     double sparsity = 0.7, int v = 8) {
  Rng rng(seed);
  Problem p;
  p.pattern = std::make_shared<const sparse::BlockPattern>(
      sparse::make_uniform_pattern(kM, kK, v, sparsity, rng));
  p.lhs = std::make_shared<const Matrix<std::int32_t>>(
      core::random_values(kM, kK, prec.lhs, rng));
  p.rhs = std::make_shared<const Matrix<std::int32_t>>(
      core::random_values(kK, kN, prec.rhs, rng));
  return p;
}

Request spmm_request(const Problem& p, PrecisionPair prec) {
  Request req;
  req.op = OpKind::spmm;
  req.precision = prec;
  req.pattern = p.pattern;
  req.lhs_values = p.lhs;
  req.rhs_values = p.rhs;
  return req;
}

Request sddmm_request(const Problem& p, PrecisionPair prec) {
  // Reinterpret the problem as SDDMM: pattern samples the M x N output,
  // lhs is dense M x K A, rhs is K x N B (kK == kN keeps shapes valid).
  Request req;
  req.op = OpKind::sddmm;
  req.precision = prec;
  req.pattern = p.pattern;
  req.lhs_values = p.lhs;
  req.rhs_values = p.rhs;
  req.lhs_id = 0;  // anonymous activations
  return req;
}

/// The engine configuration these tests serve through: one simulated
/// device, so every request runs whole on device 0.
DevicePoolConfig one_device() {
  DevicePoolConfig cfg;
  cfg.device_count = 1;
  return cfg;
}

// ---- OperandCache ---------------------------------------------------------

TEST(OperandCache, HitMissAccounting) {
  OperandCache cache(64ull << 20);
  const Problem p = make_problem(precision::L8R8, 1);

  bool hit = true;
  const auto first = cache.get_or_prepare_spmm_lhs(
      *p.pattern, *p.lhs, precision::L8R8, /*shuffle=*/false, 0, &hit);
  EXPECT_FALSE(hit);
  const auto second = cache.get_or_prepare_spmm_lhs(
      *p.pattern, *p.lhs, precision::L8R8, /*shuffle=*/false, 0, &hit);
  EXPECT_TRUE(hit);
  EXPECT_EQ(first.get(), second.get());  // same cached preparation aliased

  CacheStats s = cache.stats();
  EXPECT_EQ(s.lookups, 2u);
  EXPECT_EQ(s.hits, 1u);
  EXPECT_EQ(s.misses, 1u);
  EXPECT_EQ(s.insertions, 1u);
  EXPECT_EQ(s.evictions, 0u);
  EXPECT_DOUBLE_EQ(s.hit_rate(), 0.5);
  EXPECT_EQ(cache.entry_count(), 1u);
  EXPECT_EQ(cache.bytes_cached(), first->footprint_bytes());
}

TEST(OperandCache, DistinctPrecisionOrShuffleAreDistinctEntries) {
  OperandCache cache(64ull << 20);
  const Problem p = make_problem(precision::L8R8, 2);

  // The same s8 weight served under two pairs: each (precision, shuffle)
  // combination has a different prepared layout, so each is its own entry.
  cache.get_or_prepare_spmm_lhs(*p.pattern, *p.lhs, precision::L8R8, false);
  cache.get_or_prepare_spmm_lhs(*p.pattern, *p.lhs, precision::L8R4, true);
  EXPECT_EQ(cache.entry_count(), 2u);
  EXPECT_EQ(cache.stats().misses, 2u);
}

TEST(OperandCache, LruEvictionAtCapacity) {
  const Problem p = make_problem(precision::L8R8, 3);
  bool hit = false;
  // Size the capacity to hold exactly two prepared operands.
  OperandCache probe(1ull << 30);
  const auto one = probe.get_or_prepare_spmm_lhs(*p.pattern, *p.lhs,
                                                 precision::L8R8, false);
  const std::size_t entry_bytes = one->footprint_bytes();

  OperandCache cache(2 * entry_bytes + entry_bytes / 2);
  const Problem a = make_problem(precision::L8R8, 10);
  const Problem b = make_problem(precision::L8R8, 11);
  const Problem c = make_problem(precision::L8R8, 12);

  cache.get_or_prepare_spmm_lhs(*a.pattern, *a.lhs, precision::L8R8, false);
  cache.get_or_prepare_spmm_lhs(*b.pattern, *b.lhs, precision::L8R8, false);
  EXPECT_EQ(cache.entry_count(), 2u);

  // Touch A so B becomes least-recently-used, then insert C.
  cache.get_or_prepare_spmm_lhs(*a.pattern, *a.lhs, precision::L8R8, false,
                                0, &hit);
  EXPECT_TRUE(hit);
  cache.get_or_prepare_spmm_lhs(*c.pattern, *c.lhs, precision::L8R8, false);
  EXPECT_EQ(cache.stats().evictions, 1u);
  EXPECT_EQ(cache.entry_count(), 2u);

  // A survived (hit), B was evicted (miss), C is resident (hit).
  cache.get_or_prepare_spmm_lhs(*a.pattern, *a.lhs, precision::L8R8, false,
                                0, &hit);
  EXPECT_TRUE(hit);
  cache.get_or_prepare_spmm_lhs(*c.pattern, *c.lhs, precision::L8R8, false,
                                0, &hit);
  EXPECT_TRUE(hit);
  cache.get_or_prepare_spmm_lhs(*b.pattern, *b.lhs, precision::L8R8, false,
                                0, &hit);
  EXPECT_FALSE(hit);
}

TEST(OperandCache, StaleContentUnderUnchangedKeyThrows) {
  // The cache keys weights by pattern fingerprint (or client id): serving
  // different values under an unchanged key is a contract violation the
  // content probe must turn into a loud failure, not silent stale results.
  OperandCache cache(64ull << 20);
  const Problem p = make_problem(precision::L8R8, 6);
  cache.get_or_prepare_spmm_lhs(*p.pattern, *p.lhs, precision::L8R8, false);

  Matrix<std::int32_t> changed = *p.lhs;
  changed(0, 0) = changed(0, 0) == 0 ? 1 : 0;
  EXPECT_THROW(cache.get_or_prepare_spmm_lhs(*p.pattern, changed,
                                             precision::L8R8, false),
               Error);

  // Regression for probe sampling aliasing with the row length: a change
  // touching every column EXCEPT column 0 must also trip the guard (an
  // evenly strided sample over this power-of-two shape would only ever
  // read column 0 and miss it).
  Matrix<std::int32_t> off_column = *p.lhs;
  for (std::size_t r = 0; r < off_column.rows(); ++r) {
    for (std::size_t c = 1; c < off_column.cols(); ++c) {
      off_column(r, c) = off_column(r, c) == 0 ? 1 : 0;
    }
  }
  EXPECT_THROW(cache.get_or_prepare_spmm_lhs(*p.pattern, off_column,
                                             precision::L8R8, false),
               Error);

  Rng rng(99);
  const auto rhs2 = core::random_values(kK, kN, Scalar::s8, rng);
  cache.get_or_prepare_dense(OperandKind::spmm_rhs, *p.rhs, precision::L8R8,
                             /*id=*/5);
  EXPECT_THROW(cache.get_or_prepare_dense(OperandKind::spmm_rhs, rhs2,
                                          precision::L8R8, /*id=*/5),
               Error);
}

TEST(OperandCache, OversizedEntryServedUncached) {
  const Problem p = make_problem(precision::L8R8, 4);
  OperandCache cache(16);  // smaller than any prepared operand
  const auto handle =
      cache.get_or_prepare_spmm_lhs(*p.pattern, *p.lhs, precision::L8R8,
                                    false);
  ASSERT_TRUE(handle);
  EXPECT_EQ(cache.entry_count(), 0u);
  EXPECT_EQ(cache.bytes_cached(), 0u);
}

TEST(OperandCache, AnonymousDenseOperandsBypassCache) {
  const Problem p = make_problem(precision::L8R8, 5);
  OperandCache cache(64ull << 20);
  const auto one = cache.get_or_prepare_dense(OperandKind::spmm_rhs, *p.rhs,
                                              precision::L8R8, /*id=*/0);
  const auto two = cache.get_or_prepare_dense(OperandKind::spmm_rhs, *p.rhs,
                                              precision::L8R8, /*id=*/0);
  EXPECT_NE(one.get(), two.get());
  EXPECT_EQ(cache.stats().lookups, 0u);
  EXPECT_EQ(cache.entry_count(), 0u);

  bool hit = true;
  const auto named = cache.get_or_prepare_dense(OperandKind::spmm_rhs,
                                                *p.rhs, precision::L8R8,
                                                /*id=*/77, &hit);
  EXPECT_FALSE(hit);
  const auto again = cache.get_or_prepare_dense(OperandKind::spmm_rhs,
                                                *p.rhs, precision::L8R8,
                                                /*id=*/77, &hit);
  EXPECT_TRUE(hit);
  EXPECT_EQ(named.get(), again.get());
}

// Regression for the probe-identity collision: the old attention path
// coerced a zero content probe to 1 before keying the cache, so an operand
// that genuinely hashed to 0 shared an identity with any operand hashing to
// 1 — a silent wrong-operand hit. probe_identity is now a bijection with no
// special-cased value: probe 0 is an ordinary cached identity (never the
// anonymous-bypass sentinel) and distinct probes can never alias.
TEST(OperandCache, ZeroProbeIsAnOrdinaryCachedIdentity) {
  const Problem p = make_problem(precision::L8R8, 21);
  const Problem q = make_problem(precision::L8R8, 22);
  OperandCache cache(64ull << 20);

  // Force probe 0 through the explicit-probe seam: it must cache (not fall
  // into the id=0 anonymous bypass)...
  bool hit = true;
  const auto zero = cache.get_or_prepare_probed(
      OperandKind::spmm_rhs, *p.rhs, precision::L8R8, /*probe=*/0, &hit);
  EXPECT_FALSE(hit);
  EXPECT_EQ(cache.entry_count(), 1u);

  // ...and stay distinct from the probe the old coercion folded it onto.
  const auto one = cache.get_or_prepare_probed(
      OperandKind::spmm_rhs, *q.rhs, precision::L8R8, /*probe=*/1, &hit);
  EXPECT_FALSE(hit);
  EXPECT_EQ(cache.entry_count(), 2u);
  EXPECT_NE(zero.get(), one.get());

  // Re-requesting probe 0 with the same values is a genuine hit on the
  // same preparation.
  const auto again = cache.get_or_prepare_probed(
      OperandKind::spmm_rhs, *p.rhs, precision::L8R8, /*probe=*/0, &hit);
  EXPECT_TRUE(hit);
  EXPECT_EQ(again.get(), zero.get());
  EXPECT_EQ(cache.entry_count(), 2u);

  // The sampling overload round-trips too: same values, same identity.
  bool first_hit = true, second_hit = false;
  const auto sampled = cache.get_or_prepare_probed(
      OperandKind::sddmm_lhs, *p.lhs, precision::L8R8, &first_hit);
  const auto resampled = cache.get_or_prepare_probed(
      OperandKind::sddmm_lhs, *p.lhs, precision::L8R8, &second_hit);
  EXPECT_FALSE(first_hit);
  EXPECT_TRUE(second_hit);
  EXPECT_EQ(sampled.get(), resampled.get());
}

TEST(OperandCache, PinnedEntriesSurviveEvictionPressure) {
  // Pin semantics behind the sharded-request fix: a pinned entry is
  // skipped by LRU eviction (the insert may transiently exceed capacity),
  // and unpinning restores normal eviction order.
  const Problem p = make_problem(precision::L8R8, 7);
  OperandCache probe(1ull << 30);
  const auto one = probe.get_or_prepare_spmm_lhs(*p.pattern, *p.lhs,
                                                 precision::L8R8, false);
  const std::size_t entry_bytes = one->footprint_bytes();

  OperandCache cache(2 * entry_bytes + entry_bytes / 2);
  const Problem a = make_problem(precision::L8R8, 70);
  const Problem b = make_problem(precision::L8R8, 71);
  const Problem c = make_problem(precision::L8R8, 72);
  cache.get_or_prepare_spmm_lhs(*a.pattern, *a.lhs, precision::L8R8, false);
  cache.get_or_prepare_spmm_lhs(*b.pattern, *b.lhs, precision::L8R8, false);

  // Pin A (the LRU victim-to-be) and insert C: eviction must skip A and
  // take B instead.
  const OperandKey a_key =
      spmm_lhs_key(a.pattern->fingerprint(), precision::L8R8, false);
  {
    OperandCache::PinScope pins(cache);
    ASSERT_TRUE(pins.pin(a_key));
    EXPECT_EQ(cache.pinned_count(), 1u);
    cache.get_or_prepare_spmm_lhs(*c.pattern, *c.lhs, precision::L8R8,
                                  false);
    bool hit = false;
    cache.get_or_prepare_spmm_lhs(*a.pattern, *a.lhs, precision::L8R8,
                                  false, 0, &hit);
    EXPECT_TRUE(hit) << "pinned entry was evicted";
    cache.get_or_prepare_spmm_lhs(*b.pattern, *b.lhs, precision::L8R8,
                                  false, 0, &hit);
    EXPECT_FALSE(hit) << "unpinned LRU entry should have been the victim";
    EXPECT_GT(cache.stats().pin_skips, 0u);
  }
  // Scope released: A is evictable again.
  EXPECT_EQ(cache.pinned_count(), 0u);
  EXPECT_FALSE(cache.pin(spmm_lhs_key(12345, precision::L8R8, false)))
      << "pinning an absent key must fail, not insert";
}

TEST(OperandCache, PinnedOverflowDrainsAfterRelease) {
  // When everything resident is pinned, inserts overshoot the budget
  // rather than fail; the overshoot drains once pins release.
  const Problem p = make_problem(precision::L8R8, 8);
  OperandCache probe(1ull << 30);
  const std::size_t entry_bytes =
      probe.get_or_prepare_spmm_lhs(*p.pattern, *p.lhs, precision::L8R8,
                                    false)
          ->footprint_bytes();
  OperandCache cache(entry_bytes + entry_bytes / 2);

  const Problem a = make_problem(precision::L8R8, 80);
  const Problem b = make_problem(precision::L8R8, 81);
  cache.get_or_prepare_spmm_lhs(*a.pattern, *a.lhs, precision::L8R8, false);
  OperandCache::PinScope pins(cache);
  ASSERT_TRUE(pins.pin(
      spmm_lhs_key(a.pattern->fingerprint(), precision::L8R8, false)));
  cache.get_or_prepare_spmm_lhs(*b.pattern, *b.lhs, precision::L8R8, false);
  EXPECT_EQ(cache.entry_count(), 2u);
  EXPECT_GT(cache.bytes_cached(), cache.capacity_bytes());

  pins.release();
  // Next insert evicts back under budget (A first: it is now LRU).
  const Problem c = make_problem(precision::L8R8, 82);
  cache.get_or_prepare_spmm_lhs(*c.pattern, *c.lhs, precision::L8R8, false);
  EXPECT_LE(cache.bytes_cached(), cache.capacity_bytes());
}

TEST(ServeRequest, SplitCachesAndPerDeviceCosting) {
  // The pool's serve body: operands land in the device cache, plans in the
  // shared plan cache, and modeled_seconds follows the device spec.
  const Problem p = make_problem(precision::L8R8, 9);
  OperandCache operands(64ull << 20);
  OperandCache plans(64ull << 20);

  const Response r1 =
      serve_request(spmm_request(p, precision::L8R8), operands, plans,
                    simt::a100());
  EXPECT_EQ(operands.entry_count(), 1u);  // the prepared LHS
  EXPECT_EQ(plans.entry_count(), 1u);     // the execution plan
  EXPECT_FALSE(r1.plan_cache_hit);

  // A half-clock device models a strictly slower run (every cycle-derived
  // term doubles; halving sm_count alone would not be strict — this
  // problem's 8-block grid underfills both SM counts).
  simt::DeviceSpec slow = simt::a100();
  slow.clock_ghz /= 2;
  const Response r2 =
      serve_request(spmm_request(p, precision::L8R8), operands, plans, slow);
  EXPECT_TRUE(r2.plan_cache_hit);
  EXPECT_TRUE(r2.lhs_cache_hit);
  EXPECT_GT(r2.modeled_seconds, r1.modeled_seconds);
  EXPECT_EQ(r1.spmm->c, r2.spmm->c);
}

// ---- One-device pool correctness ------------------------------------------

class ServePrecisionTest : public ::testing::TestWithParam<PrecisionPair> {};

TEST_P(ServePrecisionTest, BatchedSpmmBitExactVsSequential) {
  const PrecisionPair prec = GetParam();
  const Problem p = make_problem(prec, 21);

  core::SpmmConfig cfg;
  cfg.precision = prec;
  const auto lhs = core::prepare_spmm_lhs(*p.pattern, *p.lhs, prec,
                                          core::needs_shuffle(cfg));
  const auto rhs = core::prepare_spmm_rhs(*p.rhs, prec);
  const core::SpmmResult expect = core::spmm(lhs, rhs, cfg);

  DevicePool engine(one_device());
  std::vector<std::future<Response>> futures;
  for (int i = 0; i < 6; ++i) {
    futures.push_back(engine.submit(spmm_request(p, prec)));
  }
  for (auto& f : futures) {
    const Response resp = f.get();
    ASSERT_TRUE(resp.spmm.has_value());
    EXPECT_EQ(resp.spmm->c, expect.c);
    EXPECT_EQ(resp.spmm->run.counters, expect.run.counters);
    EXPECT_GT(resp.modeled_seconds, 0.0);
  }
  // One preparation and one execution plan amortized over the burst: each
  // request looks up the LHS in the device cache (6 lookups) with exactly
  // one winning insertion; concurrent requests that miss before the winner
  // lands re-prepare and discard (counted race_discards). The shared plan
  // cache (also read by placement pricing) holds exactly one plan.
  const CacheStats cs = engine.device_cache(0).stats();
  EXPECT_EQ(cs.lookups, 6u);
  EXPECT_EQ(cs.hits + cs.misses, cs.lookups);
  EXPECT_EQ(cs.insertions, 1u);
  EXPECT_EQ(cs.misses, 1u + cs.race_discards);
  EXPECT_EQ(engine.device_cache(0).entry_count(), 1u);
  const CacheStats ps = engine.plan_cache().stats();
  EXPECT_EQ(ps.hits + ps.misses, ps.lookups);
  EXPECT_EQ(ps.insertions, 1u);
  EXPECT_EQ(engine.plan_cache().entry_count(), 1u);
}

TEST_P(ServePrecisionTest, BatchedSddmmBitExactVsSequential) {
  const PrecisionPair prec = GetParam();
  const Problem p = make_problem(prec, 22);

  core::SddmmConfig cfg;
  cfg.precision = prec;
  const int chunk = core::rhs_chunk_bits(prec);
  const auto a = core::prepare_dense(*p.lhs, prec.lhs, true, chunk);
  const auto b = core::prepare_dense(*p.rhs, prec.rhs, false, chunk);
  const core::SddmmResult expect = core::sddmm(a, b, *p.pattern, cfg);

  DevicePool engine(one_device());
  std::vector<std::future<Response>> futures;
  for (int i = 0; i < 4; ++i) {
    futures.push_back(engine.submit(sddmm_request(p, prec)));
  }
  for (auto& f : futures) {
    const Response resp = f.get();
    ASSERT_TRUE(resp.sddmm.has_value());
    EXPECT_EQ(resp.sddmm->c.values, expect.c.values);
    EXPECT_EQ(resp.sddmm->run.counters, expect.run.counters);
  }
}

INSTANTIATE_TEST_SUITE_P(
    PrecisionPairs, ServePrecisionTest,
    ::testing::Values(precision::L8R8, precision::L16R8, precision::L4R4,
                      precision::L16R16),
    [](const auto& info) {
      std::string s = to_string(info.param);
      for (auto& ch : s) {
        if (ch == '-') ch = '_';
      }
      return s;
    });

TEST(SingleDevicePool, MalformedRequestFailsItsFutureOnly) {
  DevicePool engine(one_device());
  const Problem p = make_problem(precision::L8R8, 33);

  Request bad = spmm_request(p, precision::L8R8);
  bad.rhs_values = nullptr;
  // A value that does not fit s8 fails in operand prep in every build type
  // instead of being stored truncated.
  auto wide = std::make_shared<Matrix<std::int32_t>>(*p.rhs);
  (*wide)(kK - 1, kN - 1) = 200;
  Request out_of_range = spmm_request(p, precision::L8R8);
  out_of_range.rhs_values = wide;
  auto bad_future = engine.submit(std::move(bad));
  auto range_future = engine.submit(std::move(out_of_range));
  auto good_future = engine.submit(spmm_request(p, precision::L8R8));

  EXPECT_THROW(bad_future.get(), Error);
  EXPECT_THROW(range_future.get(), Error);
  const Response good = good_future.get();
  ASSERT_TRUE(good.spmm.has_value());
  core::SpmmConfig cfg;
  cfg.precision = precision::L8R8;
  const auto lhs = core::prepare_spmm_lhs(*p.pattern, *p.lhs, cfg.precision,
                                          core::needs_shuffle(cfg));
  const auto rhs = core::prepare_spmm_rhs(*p.rhs, cfg.precision);
  EXPECT_EQ(good.spmm->c, core::spmm(lhs, rhs, cfg).c);
  engine.drain();  // stats are final only once the engine is idle
  const DevicePoolStats ss = engine.stats();
  EXPECT_EQ(ss.completed, 3u);
  EXPECT_EQ(ss.failed, 2u);
}

TEST(SingleDevicePool, DrainCompletesAllSubmitted) {
  DevicePool engine(one_device());
  const Problem p = make_problem(precision::L8R8, 34);
  std::vector<std::future<Response>> futures;
  for (int i = 0; i < 20; ++i) {
    futures.push_back(engine.submit(spmm_request(p, precision::L8R8)));
  }
  engine.drain();
  const DevicePoolStats ss = engine.stats();
  EXPECT_EQ(ss.submitted, 20u);
  EXPECT_EQ(ss.completed, 20u);
  for (auto& f : futures) {
    EXPECT_EQ(f.wait_for(std::chrono::seconds(0)),
              std::future_status::ready);
  }
}

// ---- Execution-plan caching ----------------------------------------------

TEST(OperandCache, PlanBytesChargedToLruBudget) {
  OperandCache cache(64ull << 20);
  const Problem p = make_problem(precision::L8R8, 40);
  core::SpmmConfig cfg;
  cfg.precision = precision::L8R8;
  const auto lhs = core::prepare_spmm_lhs_shared(*p.pattern, *p.lhs,
                                                 cfg.precision,
                                                 core::needs_shuffle(cfg));

  bool hit = true;
  const auto plan =
      cache.get_or_build_spmm_plan(p.pattern, lhs, kN, cfg, 0, &hit);
  ASSERT_TRUE(plan);
  EXPECT_FALSE(hit);
  EXPECT_EQ(cache.entry_count(), 1u);
  EXPECT_EQ(cache.bytes_cached(), plan->footprint_bytes());
  EXPECT_GT(plan->footprint_bytes(), sizeof(core::SpmmPlan));

  const auto again =
      cache.get_or_build_spmm_plan(p.pattern, lhs, kN, cfg, 0, &hit);
  EXPECT_TRUE(hit);
  EXPECT_EQ(plan.get(), again.get());  // one plan aliased

  // A different N is a different schedule: its own entry.
  cache.get_or_build_spmm_plan(p.pattern, lhs, 2 * kN, cfg, 0, &hit);
  EXPECT_FALSE(hit);
  EXPECT_EQ(cache.entry_count(), 2u);

  // Eviction accounting covers plan bytes: a capacity of one plan evicts
  // the older plan when the next is inserted, returning the evicted bytes.
  OperandCache tiny(plan->footprint_bytes() + plan->footprint_bytes() / 4);
  tiny.get_or_build_spmm_plan(p.pattern, lhs, kN, cfg);
  const std::size_t first_bytes = tiny.bytes_cached();
  EXPECT_GT(first_bytes, 0u);
  tiny.get_or_build_spmm_plan(p.pattern, lhs, 2 * kN, cfg);
  EXPECT_EQ(tiny.stats().evictions, 1u);
  EXPECT_EQ(tiny.stats().bytes_evicted, first_bytes);
}

TEST(OperandCache, PlanSharedAcrossWeightVersionsOfOnePattern) {
  // Plans depend only on the structure: distinct weight matrices pruned to
  // one pattern (distinct lhs_id) replay one cached plan.
  DevicePool engine(one_device());
  const Problem p = make_problem(precision::L8R8, 41);
  Rng rng(42);
  const auto other_weights = std::make_shared<const Matrix<std::int32_t>>(
      core::random_values(kM, kK, Scalar::s8, rng));

  Request first = spmm_request(p, precision::L8R8);
  first.lhs_id = 1;
  Request second = spmm_request(p, precision::L8R8);
  second.lhs_values = other_weights;
  second.lhs_id = 2;

  const Response r1 = engine.submit(std::move(first)).get();
  EXPECT_FALSE(r1.plan_cache_hit);
  const Response r2 = engine.submit(std::move(second)).get();
  EXPECT_TRUE(r2.plan_cache_hit);
  EXPECT_FALSE(r2.lhs_cache_hit);  // different weights, fresh preparation

  // Both results bit-exact against sequential execution of their own
  // weights (the shared plan routes values, it does not alias them).
  core::SpmmConfig cfg;
  cfg.precision = precision::L8R8;
  const auto lhs2 = core::prepare_spmm_lhs(*p.pattern, *other_weights,
                                           cfg.precision,
                                           core::needs_shuffle(cfg));
  const auto rhs = core::prepare_spmm_rhs(*p.rhs, cfg.precision);
  EXPECT_EQ(r2.spmm->c, core::spmm(lhs2, rhs, cfg).c);
}

// ---- Bounded submit queue -------------------------------------------------

TEST(SingleDevicePool, BoundedQueueCompletesEverything) {
  DevicePoolConfig cfg = one_device();
  cfg.max_queue_depth = 2;
  cfg.linger = std::chrono::microseconds(50);
  DevicePool engine(cfg);

  const Problem p = make_problem(precision::L8R8, 50);
  std::vector<std::future<Response>> futures;
  for (int i = 0; i < 16; ++i) {
    // submit() may block on backpressure; it must never drop or deadlock.
    futures.push_back(engine.submit(spmm_request(p, precision::L8R8)));
  }
  for (auto& f : futures) EXPECT_TRUE(f.get().spmm.has_value());
  engine.drain();  // stats are final only once the engine is idle
  const DevicePoolStats ss = engine.stats();
  EXPECT_EQ(ss.submitted, 16u);
  EXPECT_EQ(ss.completed, 16u);
}

TEST(SingleDevicePool, BoundedQueueBackpressureAcrossThreads) {
  DevicePoolConfig cfg = one_device();
  cfg.max_queue_depth = 1;  // every concurrent submitter contends
  cfg.linger = std::chrono::microseconds(0);
  DevicePool engine(cfg);

  const Problem p = make_problem(precision::L8R8, 51);
  constexpr int kThreads = 4, kEach = 8;
  std::vector<std::thread> threads;
  std::vector<int> ok(kThreads, 0);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kEach; ++i) {
        auto f = engine.submit(spmm_request(p, precision::L8R8));
        if (f.get().spmm.has_value()) ok[t] += 1;
      }
    });
  }
  for (auto& th : threads) th.join();
  for (int t = 0; t < kThreads; ++t) EXPECT_EQ(ok[t], kEach);
  engine.drain();  // stats are final only once the engine is idle
  EXPECT_EQ(engine.stats().completed,
            static_cast<std::uint64_t>(kThreads) * kEach);
}

// ---- Multi-threaded stress ------------------------------------------------

TEST(SingleDevicePool, MultiThreadedSubmitStress) {
  constexpr int kClients = 4;
  constexpr int kPerClient = 32;
  const PrecisionPair precisions[] = {precision::L8R8, precision::L16R8,
                                      precision::L4R4};

  // Precompute sequential golden results per (problem, precision, op).
  struct Expected {
    Matrix<std::int32_t> spmm_c;
    std::vector<std::int32_t> sddmm_values;
  };
  std::vector<Problem> problems;
  std::vector<std::vector<Expected>> expected(3);
  for (int pi = 0; pi < 3; ++pi) {
    const PrecisionPair prec = precisions[pi];
    problems.push_back(make_problem(prec, 100 + static_cast<unsigned>(pi)));
    const Problem& p = problems.back();

    core::SpmmConfig scfg;
    scfg.precision = prec;
    const auto lhs = core::prepare_spmm_lhs(*p.pattern, *p.lhs, prec,
                                            core::needs_shuffle(scfg));
    const auto rhs = core::prepare_spmm_rhs(*p.rhs, prec);
    Expected e;
    e.spmm_c = core::spmm(lhs, rhs, scfg).c;

    core::SddmmConfig dcfg;
    dcfg.precision = prec;
    const int chunk = core::rhs_chunk_bits(prec);
    const auto a = core::prepare_dense(*p.lhs, prec.lhs, true, chunk);
    const auto b = core::prepare_dense(*p.rhs, prec.rhs, false, chunk);
    e.sddmm_values = core::sddmm(a, b, *p.pattern, dcfg).c.values;
    expected[static_cast<std::size_t>(pi)].push_back(std::move(e));
  }

  DevicePoolConfig cfg = one_device();
  cfg.linger = std::chrono::microseconds(100);
  DevicePool engine(cfg);

  std::vector<std::thread> clients;
  std::vector<int> mismatches(kClients, 0);
  for (int t = 0; t < kClients; ++t) {
    clients.emplace_back([&, t] {
      std::vector<std::pair<int, std::future<Response>>> futures;
      for (int i = 0; i < kPerClient; ++i) {
        const int pi = (t + i) % 3;
        const Problem& p = problems[static_cast<std::size_t>(pi)];
        const bool do_spmm = (i % 2) == 0;
        futures.emplace_back(
            pi, engine.submit(do_spmm ? spmm_request(p, precisions[pi])
                                      : sddmm_request(p, precisions[pi])));
      }
      for (auto& [pi, f] : futures) {
        const Response resp = f.get();
        const Expected& e = expected[static_cast<std::size_t>(pi)][0];
        if (resp.op == OpKind::spmm) {
          if (!(resp.spmm->c == e.spmm_c)) mismatches[t] += 1;
        } else {
          if (resp.sddmm->c.values != e.sddmm_values) mismatches[t] += 1;
        }
      }
    });
  }
  for (auto& c : clients) c.join();
  for (int t = 0; t < kClients; ++t) EXPECT_EQ(mismatches[t], 0) << t;

  engine.drain();  // stats are final only once the engine is idle
  const DevicePoolStats ss = engine.stats();
  EXPECT_EQ(ss.submitted,
            static_cast<std::uint64_t>(kClients) * kPerClient);
  EXPECT_EQ(ss.completed, ss.submitted);
  EXPECT_EQ(ss.failed, 0u);

  const CacheStats cs = engine.device_cache(0).stats();
  EXPECT_EQ(cs.hits + cs.misses, cs.lookups);
  // Every SpMM request looks up its LHS in the device cache; only the first
  // per problem misses — 3 SpMM LHS (modulo prepare races, which the cache
  // reconciles). The plan cache keeps one plan per (problem, op): 3 SpMM +
  // 3 SDDMM.
  EXPECT_GE(cs.hits, cs.lookups - 3 - cs.race_discards);
  EXPECT_EQ(engine.plan_cache().stats().insertions, 6u);
}

}  // namespace
}  // namespace magicube::serve
