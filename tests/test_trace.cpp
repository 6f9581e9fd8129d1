// Trace-schema suite (`serve` CTest label): the structured per-request
// traces the serving engine emits (serve/trace.hpp) are well-formed JSON,
// their spans nest within and cover the request's full modeled interval
// (no silent gap: backlog waits are `queue` spans, re-placement gaps are
// `retry` spans), retry spans appear exactly when faults were injected,
// failed requests leave ok=false traces in the engine TraceLog, the log is
// bounded, and a golden-file smoke test pins the document shape (numbers
// normalized) so schema drift is a deliberate, reviewed change —
// re-record with MAGICUBE_WRITE_TRACE_GOLDEN=1.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "serve/serve.hpp"
#include "support/json.hpp"

namespace magicube::serve {
namespace {

struct Problem {
  OpKind op = OpKind::spmm;
  PrecisionPair precision = precision::L8R8;
  std::shared_ptr<const sparse::BlockPattern> pattern;
  std::shared_ptr<const Matrix<std::int32_t>> lhs;
  std::shared_ptr<const Matrix<std::int32_t>> rhs;
};

Problem make_problem(OpKind op, std::size_t m, std::size_t k, std::size_t n,
                     double sparsity, std::uint64_t seed) {
  Rng rng(seed);
  Problem p;
  p.op = op;
  p.pattern = std::make_shared<const sparse::BlockPattern>(
      sparse::make_uniform_pattern(m, op == OpKind::spmm ? k : n, 8,
                                   sparsity, rng));
  p.lhs = std::make_shared<const Matrix<std::int32_t>>(
      core::random_values(m, k, Scalar::s8, rng));
  p.rhs = std::make_shared<const Matrix<std::int32_t>>(
      core::random_values(k, n, Scalar::s8, rng));
  return p;
}

Request to_request(const Problem& p) {
  Request req;
  req.op = p.op;
  req.precision = p.precision;
  req.pattern = p.pattern;
  req.lhs_values = p.lhs;
  req.rhs_values = p.rhs;
  return req;
}

/// Counts `name` spans; with `attr_key`/`attr_value` set, only spans whose
/// attrs carry that exact pair.
std::size_t count_spans(const RequestTrace& trace, const std::string& name,
                        const char* attr_key = nullptr,
                        const char* attr_value = nullptr) {
  std::size_t n = 0;
  for (const TraceSpan& s : trace.spans) {
    if (s.name != name) continue;
    if (attr_key != nullptr) {
      bool match = false;
      for (const auto& [k, v] : s.attrs) {
        match = match || (k == attr_key && v == attr_value);
      }
      if (!match) continue;
    }
    n += 1;
  }
  return n;
}

/// The coverage invariant: spans sorted by begin must tile the request's
/// whole modeled interval [0, total_modeled_seconds] without a gap, and
/// every span must nest within it.
void expect_spans_cover_interval(const RequestTrace& trace) {
  ASSERT_FALSE(trace.spans.empty());
  std::vector<TraceSpan> spans = trace.spans;
  std::sort(spans.begin(), spans.end(),
            [](const TraceSpan& a, const TraceSpan& b) {
              return a.begin_seconds < b.begin_seconds;
            });
  const double total = trace.total_modeled_seconds;
  const double eps = 1e-12 + total * 1e-9;
  double reach = 0.0;
  EXPECT_EQ(spans.front().begin_seconds, 0.0);
  for (const TraceSpan& s : spans) {
    EXPECT_GE(s.begin_seconds, 0.0) << s.name;
    EXPECT_LE(s.begin_seconds, s.end_seconds) << s.name;
    EXPECT_LE(s.end_seconds, total + eps) << s.name;
    EXPECT_LE(s.begin_seconds, reach + eps)
        << "gap in modeled timeline before span " << s.name;
    reach = std::max(reach, s.end_seconds);
  }
  EXPECT_NEAR(reach, total, eps);
}

// ---- Well-formedness ------------------------------------------------------

TEST(TraceSchema, SingleDevicePoolTraceWellFormedJson) {
  DevicePoolConfig cfg;
  cfg.device_count = 1;
  cfg.linger = std::chrono::microseconds(50);
  DevicePool engine(cfg);
  const Problem p = make_problem(OpKind::spmm, 128, 64, 64, 0.5, 901);
  const Response resp = engine.submit(to_request(p)).get();

  ASSERT_TRUE(resp.trace);
  const RequestTrace& trace = *resp.trace;
  EXPECT_EQ(trace.request_id, 1u);
  EXPECT_EQ(trace.engine, "device_pool");
  EXPECT_TRUE(trace.ok);
  expect_spans_cover_interval(trace);
  EXPECT_EQ(count_spans(trace, "replay"), 1u);

  const testjson::Value doc = testjson::parse(to_json(trace));
  ASSERT_TRUE(doc.is_object());
  EXPECT_EQ(doc.at("request_id").num, 1.0);
  EXPECT_EQ(doc.at("engine").str, "device_pool");
  EXPECT_EQ(doc.at("op").str, "spmm");
  EXPECT_EQ(doc.at("precision").str, "L8-R8");
  EXPECT_TRUE(doc.at("ok").b);
  EXPECT_EQ(doc.at("error").str, "");
  EXPECT_EQ(doc.at("retries").num, 0.0);
  EXPECT_EQ(doc.at("faults_injected").num, 0.0);
  EXPECT_EQ(doc.at("shards").num, 1.0);
  EXPECT_GT(doc.at("modeled_seconds").num, 0.0);
  const testjson::Value& spans = doc.at("spans");
  ASSERT_TRUE(spans.is_array());
  ASSERT_EQ(spans.arr.size(), trace.spans.size());
  for (std::size_t i = 0; i < spans.arr.size(); ++i) {
    const testjson::Value& s = spans.arr[i];
    EXPECT_EQ(s.at("name").str, trace.spans[i].name);
    EXPECT_EQ(s.at("begin").num, trace.spans[i].begin_seconds);
    EXPECT_EQ(s.at("end").num, trace.spans[i].end_seconds);
    EXPECT_TRUE(s.at("attrs").is_object());
  }
  EXPECT_EQ(engine.traces().size(), 1u);
}

TEST(TraceSchema, PoolTraceCoversIntervalWholeAndSharded) {
  DevicePoolConfig cfg;
  cfg.device_count = 2;
  cfg.shard_threshold_seconds = 1e-9;  // shard the big one
  cfg.wave_floor_blocks = 1;
  cfg.linger = std::chrono::microseconds(50);
  DevicePool pool(cfg);

  // Whole placement: tiny problem under every wave floor? No — floor is 1
  // here, so use a one-block-row problem that cannot split.
  const Problem small = make_problem(OpKind::spmm, 8, 64, 64, 0.5, 902);
  const Response rs = pool.submit(to_request(small)).get();
  ASSERT_TRUE(rs.trace);
  EXPECT_EQ(rs.shards, 1u);
  expect_spans_cover_interval(*rs.trace);
  EXPECT_EQ(count_spans(*rs.trace, "price"), 1u);
  EXPECT_EQ(count_spans(*rs.trace, "place"), 1u);

  // Sharded placement: spans from both slices still tile the interval and
  // the shard/merge bookends are present.
  const Problem big = make_problem(OpKind::spmm, 256, 128, 128, 0.6, 903);
  const Response rb = pool.submit(to_request(big)).get();
  ASSERT_TRUE(rb.trace);
  ASSERT_EQ(rb.shards, 2u);
  expect_spans_cover_interval(*rb.trace);
  EXPECT_EQ(count_spans(*rb.trace, "shard"), 1u);
  EXPECT_EQ(count_spans(*rb.trace, "merge"), 1u);
  EXPECT_EQ(count_spans(*rb.trace, "replay"), 2u);
  EXPECT_EQ(rb.trace->shards, 2u);

  // SDDMM traces carry the op through.
  const Problem sd = make_problem(OpKind::sddmm, 64, 64, 64, 0.6, 904);
  const Response rd = pool.submit(to_request(sd)).get();
  ASSERT_TRUE(rd.trace);
  EXPECT_EQ(rd.trace->op, "sddmm");
  expect_spans_cover_interval(*rd.trace);
}

// ---- Retry spans <-> fault injection --------------------------------------

TEST(TraceSchema, RetrySpansAppearExactlyWhenFaultsInjected) {
  DevicePoolConfig cfg;
  cfg.device_count = 2;
  cfg.shard_threshold_seconds = 0;
  cfg.linger = std::chrono::microseconds(50);
  cfg.fault_plan.exact.push_back({/*device=*/0, /*nth=*/1});
  DevicePool pool(cfg);

  const Problem p = make_problem(OpKind::spmm, 128, 64, 64, 0.5, 905);
  const Response faulted = pool.submit(to_request(p)).get();
  ASSERT_TRUE(faulted.trace);
  const RequestTrace& t = *faulted.trace;
  // Exactly one injected fault: one failed replay, one retry bridge, and
  // the counters agree with the spans.
  EXPECT_EQ(t.faults_injected.load(), 1u);
  EXPECT_EQ(t.retries.load(), 1u);
  EXPECT_EQ(count_spans(t, "retry"), 1u);
  EXPECT_EQ(count_spans(t, "replay", "ok", "false"), 1u);
  EXPECT_EQ(count_spans(t, "replay", "ok", "true"), 1u);
  EXPECT_EQ(count_spans(t, "replay", "fault", "injected"), 1u);
  expect_spans_cover_interval(t);

  // A fault-free request through the same pool: no retry span anywhere.
  const Response clean = pool.submit(to_request(p)).get();
  ASSERT_TRUE(clean.trace);
  EXPECT_EQ(clean.trace->faults_injected.load(), 0u);
  EXPECT_EQ(count_spans(*clean.trace, "retry"), 0u);
  EXPECT_EQ(count_spans(*clean.trace, "replay", "ok", "false"), 0u);
}

TEST(TraceSchema, FailedRequestLeavesOkFalseTraceInLog) {
  DevicePoolConfig cfg;
  cfg.device_count = 1;
  cfg.shard_threshold_seconds = 0;
  cfg.linger = std::chrono::microseconds(50);
  cfg.fault_plan.probability = 1.0;
  cfg.max_retries = 1;
  DevicePool pool(cfg);

  const Problem p = make_problem(OpKind::spmm, 64, 64, 64, 0.5, 906);
  EXPECT_THROW(pool.submit(to_request(p)).get(), Error);
  pool.drain();

  ASSERT_EQ(pool.traces().size(), 1u);
  const auto traces = pool.traces().snapshot();
  const RequestTrace& t = *traces.front();
  EXPECT_FALSE(t.ok);
  EXPECT_NE(t.error.find("retry budget exhausted"), std::string::npos);
  EXPECT_EQ(t.faults_injected.load(), 2u);  // attempt + 1 retry
  EXPECT_EQ(count_spans(t, "replay", "ok", "false"), 2u);
  EXPECT_EQ(count_spans(t, "retry"), 1u);
  const testjson::Value doc = testjson::parse(to_json(t));
  EXPECT_FALSE(doc.at("ok").b);
  EXPECT_NE(doc.at("error").str.find("retry budget"), std::string::npos);
}

// ---- TraceLog: bound, document, export ------------------------------------

TEST(TraceLog, BoundedRingDropsOldest) {
  TraceLog log("unit", /*capacity=*/2);
  for (std::uint64_t i = 1; i <= 5; ++i) {
    auto t = std::make_shared<RequestTrace>();
    t->request_id = i;
    t->engine = "unit";
    log.add(std::move(t));
  }
  EXPECT_EQ(log.size(), 2u);
  EXPECT_EQ(log.dropped(), 3u);
  const auto kept = log.snapshot();
  ASSERT_EQ(kept.size(), 2u);
  EXPECT_EQ(kept[0]->request_id, 4u);
  EXPECT_EQ(kept[1]->request_id, 5u);

  const testjson::Value doc = testjson::parse(log.to_json());
  EXPECT_EQ(doc.at("schema").str, "magicube.trace.v1");
  EXPECT_EQ(doc.at("engine").str, "unit");
  EXPECT_EQ(doc.at("dropped").num, 3.0);
  EXPECT_EQ(doc.at("traces").arr.size(), 2u);
}

TEST(TraceLog, WriteJsonExportsParseableDocument) {
  DevicePoolConfig cfg;
  cfg.device_count = 2;
  cfg.linger = std::chrono::microseconds(50);
  DevicePool pool(cfg);
  const Problem p = make_problem(OpKind::spmm, 128, 64, 64, 0.5, 907);
  for (int i = 0; i < 4; ++i) pool.submit(to_request(p)).get();
  pool.drain();

  const std::string path = ::testing::TempDir() + "trace_export.json";
  ASSERT_TRUE(pool.traces().write_json(path));
  std::ifstream f(path);
  ASSERT_TRUE(f.good());
  std::stringstream ss;
  ss << f.rdbuf();
  const testjson::Value doc = testjson::parse(ss.str());
  EXPECT_EQ(doc.at("schema").str, "magicube.trace.v1");
  EXPECT_EQ(doc.at("engine").str, "device_pool");
  ASSERT_EQ(doc.at("traces").arr.size(), 4u);
  for (const testjson::Value& t : doc.at("traces").arr) {
    EXPECT_TRUE(t.at("ok").b);
    EXPECT_GT(t.at("spans").arr.size(), 0u);
  }
  EXPECT_FALSE(pool.traces().write_json("/nonexistent-dir/x.json"));
}

TEST(TraceSchema, BatchAttrsRecordBatchGrouping) {
  DevicePoolConfig cfg;
  cfg.device_count = 1;
  cfg.linger = std::chrono::seconds(2);
  cfg.max_queue_depth = 2;  // the second submit cuts the linger short
  DevicePool engine(cfg);
  const Problem p = make_problem(OpKind::spmm, 64, 64, 64, 0.5, 908);
  auto f1 = engine.submit(to_request(p));
  auto f2 = engine.submit(to_request(p));
  const Response r1 = f1.get(), r2 = f2.get();
  ASSERT_TRUE(r1.trace && r2.trace);
  EXPECT_EQ(r1.batch_size, 2u);
  EXPECT_EQ(count_spans(*r1.trace, "place", "batch_size", "2"), 1u);
  EXPECT_EQ(count_spans(*r2.trace, "place", "batch_size", "2"), 1u);
}

// ---- Golden file ----------------------------------------------------------

/// Digit runs -> '#': the golden comparison pins every structural byte of
/// the document (keys, nesting, span names, attr keys, punctuation) while
/// letting cost-model numerics drift. Applied to the whole document,
/// strings included — attr values carrying numbers normalize too.
std::string normalize_numbers(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  bool in_digits = false;
  for (const char c : s) {
    if (c >= '0' && c <= '9') {
      if (!in_digits) out.push_back('#');
      in_digits = true;
    } else {
      in_digits = false;
      out.push_back(c);
    }
  }
  return out;
}

TEST(TraceGolden, DocumentShapeMatchesGoldenFile) {
  // One deterministic request through a single-device pool: fixed problem,
  // fixed config, no faults — the trace (span names, order, attrs) and the
  // TraceLog document around it must not drift without a deliberate
  // re-record (MAGICUBE_WRITE_TRACE_GOLDEN=1).
  DevicePoolConfig cfg;
  cfg.device_count = 1;
  cfg.shard_threshold_seconds = 0;
  cfg.linger = std::chrono::microseconds(50);
  DevicePool pool(cfg);
  const Problem p = make_problem(OpKind::spmm, 128, 64, 64, 0.5, 909);
  pool.submit(to_request(p)).get();
  pool.drain();
  const std::string normalized = normalize_numbers(pool.traces().to_json());

  const std::string path =
      std::string(MAGICUBE_TEST_DATA_DIR) + "/trace_golden.txt";
  if (std::getenv("MAGICUBE_WRITE_TRACE_GOLDEN") != nullptr) {
    std::ofstream out(path);
    ASSERT_TRUE(out.good()) << path;
    out << normalized;
    GTEST_SKIP() << "golden re-recorded at " << path;
  }
  std::ifstream f(path);
  ASSERT_TRUE(f.good())
      << "missing golden file " << path
      << " — record it with MAGICUBE_WRITE_TRACE_GOLDEN=1";
  std::stringstream want;
  want << f.rdbuf();
  EXPECT_EQ(normalized, want.str())
      << "trace document shape drifted; if intentional, re-record with "
         "MAGICUBE_WRITE_TRACE_GOLDEN=1";
}

}  // namespace
}  // namespace magicube::serve
