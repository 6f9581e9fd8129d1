// The traced pass: the workload's seeded stream again, one request in
// flight, with every layer's public entry point called by the benchmark
// itself in the engine's order and wrapped in a wall-clock span:
//
//   matrix request: serve.engine.price -> core.prep.lhs / serve.cache.lhs
//     -> core.prep.rhs / serve.cache.rhs -> core.plan.build /
//     serve.cache.plan -> core.replay.<op>.<pair>
//     [-> serve.shard.plan -> serve.shard.slice x n -> serve.shard.merge]
//   graph step: serve.session.slice -> serve.engine.price -> quant.qkv ->
//     transformer.sddmm -> transformer.softmax_quantize -> transformer.spmm
//     -> transformer.output
//
// Each request then runs through serve_request / serve_graph_request
// directly (serve.direct) and through a pool holding nothing else
// (serve.pool). The span path and the direct call use separate caches of
// the same budgets fed the same sequence, so their hits and misses match;
// the direct time the spans do not account for is recorded as its own span,
// serve.residual. A layer the workload's own stream never reaches is
// measured on a short probe instead (the smallest layer-mix requests and
// one token stream), so every layer reports a measured number on every
// workload.

#include <array>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <numeric>
#include <type_traits>
#include <utility>

#include "harness.hpp"

namespace perfbench {
namespace {

/// One recorded span: wall-clock interval of one call into a layer.
struct Span {
  std::string name;
  double start_us = 0.0;  // since the recorder's origin
  double end_us = 0.0;
  int parent = -1;        // index of the enclosing span, -1 at the root
  std::uint64_t request = 0;
  double dur_us() const { return end_us - start_us; }
};

/// Spearman rank correlation of two equally long samples (ties ranked by
/// their average position); 0 when fewer than three pairs.
double rank_correlation(const std::vector<double>& x,
                        const std::vector<double>& y) {
  const std::size_t n = x.size();
  if (n < 3 || y.size() != n) return 0.0;
  auto ranks = [n](const std::vector<double>& v) {
    std::vector<std::size_t> idx(n);
    std::iota(idx.begin(), idx.end(), 0);
    std::sort(idx.begin(), idx.end(),
              [&v](std::size_t a, std::size_t b) { return v[a] < v[b]; });
    std::vector<double> r(n);
    for (std::size_t i = 0; i < n;) {
      std::size_t j = i;
      while (j + 1 < n && v[idx[j + 1]] == v[idx[i]]) ++j;
      const double avg = 0.5 * static_cast<double>(i + j);
      for (std::size_t t = i; t <= j; ++t) r[idx[t]] = avg;
      i = j + 1;
    }
    return r;
  };
  const std::vector<double> rx = ranks(x), ry = ranks(y);
  const double mean = 0.5 * static_cast<double>(n - 1);
  double sxy = 0.0, sxx = 0.0, syy = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    sxy += (rx[i] - mean) * (ry[i] - mean);
    sxx += (rx[i] - mean) * (rx[i] - mean);
    syy += (ry[i] - mean) * (ry[i] - mean);
  }
  return sxx == 0.0 || syy == 0.0 ? 0.0 : sxy / std::sqrt(sxx * syy);
}

class Recorder {
 public:
  int begin(const std::string& name, int parent, std::uint64_t request) {
    Span s;
    s.name = name;
    s.start_us = now_us();
    s.parent = parent;
    s.request = request;
    spans_.push_back(std::move(s));
    return static_cast<int>(spans_.size()) - 1;
  }
  /// Closes a span and returns its duration in microseconds.
  double end(int id) {
    Span& s = spans_[static_cast<std::size_t>(id)];
    s.end_us = now_us();
    return s.dur_us();
  }
  void rename(int id, const std::string& name) {
    spans_[static_cast<std::size_t>(id)].name = name;
  }
  void add(const std::string& name, double start_us, double dur_us,
           int parent, std::uint64_t request) {
    spans_.push_back(Span{name, start_us, start_us + dur_us, parent, request});
  }
  const Span& at(int id) const { return spans_[static_cast<std::size_t>(id)]; }
  const std::vector<Span>& spans() const { return spans_; }

 private:
  double now_us() const {
    return std::chrono::duration<double, std::micro>(Clock::now() - origin_)
        .count();
  }
  const Clock::time_point origin_ = Clock::now();
  std::vector<Span> spans_;
};

/// Modeled vs measured for one request: the kernel work's wall time against
/// Response::modeled_seconds of the direct call.
struct FitSample {
  std::string op;
  std::string pair;
  double measured_us = 0.0;
  double modeled_us = 0.0;
};

Scalar qkv_scalar(transformer::AttentionScheme s) {
  switch (transformer::qkv_bits(s)) {
    case 4: return Scalar::s4;
    case 8: return Scalar::s8;
    default: return Scalar::s16;
  }
}

class Tracer {
 public:
  explicit Tracer(const Workload& w)
      : ops_(w.pool.cache_capacity_bytes),
        plans_(w.pool.plan_cache_capacity_bytes),
        direct_ops_(w.pool.cache_capacity_bytes),
        direct_plans_(w.pool.plan_cache_capacity_bytes),
        lone_(w.pool) {}

  void matrix(const MatrixItem& it, std::uint64_t id);
  void graph(const Workload& src, const Feed& feed, std::size_t step,
             std::uint64_t id);
  void report(Metrics& out) const;
  void write_spans(const std::string& path) const;

  std::uint64_t mismatches = 0;
  std::size_t requests = 0;

 private:
  template <typename F>
  auto timed(const std::string& name, int parent, std::uint64_t id, F&& f,
             double* dur = nullptr) {
    const int s = rec_.begin(name, parent, id);
    if constexpr (std::is_void_v<decltype(f())>) {
      f();
      const double d = rec_.end(s);
      if (dur != nullptr) *dur = d;
    } else {
      auto r = f();
      const double d = rec_.end(s);
      if (dur != nullptr) *dur = d;
      return r;
    }
  }

  void shard(const MatrixItem& it, const core::DenseOperandHandle& rhs,
             int root, std::uint64_t id);
  void census(const core::SpmmPlan* plan, const simt::KernelRun& run);
  /// Runs the request through serve_request / serve_graph_request and
  /// through the lone pool; returns {direct, pooled}.
  std::pair<serve::Response, serve::Response> direct_and_pool(
      const serve::Request& req, int root, std::uint64_t id,
      double span_sum_us);

  Recorder rec_;
  serve::OperandCache ops_, plans_;                // the span path
  serve::OperandCache direct_ops_, direct_plans_;  // serve.direct
  serve::OperandCache shard_ops_, shard_plans_;    // the shard calls
  serve::DevicePool lone_;                         // serve.pool

  std::map<std::string, std::vector<double>> gops_;  // per op.pair
  std::vector<FitSample> fit_;
  std::vector<double> overhead_us_, direct_us_, pool_us_, residual_us_;
  std::uint64_t padded_slots_ = 0, slots_ = 0;
  std::array<std::uint64_t, simt::kSpmmBucketKinds> spmm_buckets_{};
  std::array<std::uint64_t, simt::kSddmmBucketKinds> sddmm_buckets_{};
};

void Tracer::census(const core::SpmmPlan* plan, const simt::KernelRun& run) {
  if (plan != nullptr) {
    for (const std::size_t base : plan->rhs_row_base) {
      padded_slots_ += base == core::kNoRhsRow;
    }
    slots_ += plan->rhs_row_base.size();
  }
  for (int i = 0; i < simt::kSpmmBucketKinds; ++i) {
    spmm_buckets_[i] += run.counters.spmm_bucket_blocks[i];
  }
  for (int i = 0; i < simt::kSddmmBucketKinds; ++i) {
    sddmm_buckets_[i] += run.counters.sddmm_bucket_blocks[i];
  }
}

std::pair<serve::Response, serve::Response> Tracer::direct_and_pool(
    const serve::Request& req, int root, std::uint64_t id,
    double span_sum_us) {
  double pool_dur = 0.0;
  const int ds = rec_.begin("serve.direct", root, id);
  serve::Response direct =
      serve::serve_request(req, direct_ops_, direct_plans_, simt::a100());
  const double direct_dur = rec_.end(ds);
  rec_.add("serve.residual", rec_.at(ds).start_us, direct_dur - span_sum_us,
           root, id);
  residual_us_.push_back(direct_dur - span_sum_us);

  serve::Response pooled =
      timed("serve.pool", root, id, [&] { return lone_.submit(req).get(); },
            &pool_dur);
  // Engine overhead only where the pool's device cache and the direct
  // caches were in the same state (same hit flags), so the difference is
  // queueing, dispatch and resolve rather than a prep the other side paid.
  if (pooled.lhs_cache_hit == direct.lhs_cache_hit &&
      pooled.rhs_cache_hit == direct.rhs_cache_hit &&
      pooled.plan_cache_hit == direct.plan_cache_hit) {
    overhead_us_.push_back(pool_dur - direct_dur);
    direct_us_.push_back(direct_dur);
    pool_us_.push_back(pool_dur);
  }
  return {std::move(direct), std::move(pooled)};
}

void Tracer::matrix(const MatrixItem& it, std::uint64_t id) {
  const serve::Request& r = it.req;
  const std::string tag = pair_tag(r.precision);
  requests += 1;
  const int root = rec_.begin("request", -1, id);
  timed("serve.engine.price", root, id,
        [&] { return serve::price_request(r, plans_); });

  // A cache call is a core.prep / core.plan span on a miss and a
  // serve.cache span on a hit.
  auto cached = [&](const char* miss, const char* hit_name, auto&& call,
                    double* sum) {
    bool hit = false;
    const int s = rec_.begin(miss, root, id);
    auto handle = call(&hit);
    *sum += rec_.end(s);
    if (hit) rec_.rename(s, hit_name);
    return handle;
  };

  double sum = 0.0, replay = 0.0;
  std::uint64_t useful = 0;
  bool match = false;
  if (r.op == serve::OpKind::spmm) {
    core::SpmmConfig cfg;
    cfg.precision = r.precision;
    cfg.variant = r.variant;
    cfg.bsn = r.bsn;
    const std::size_t n = r.rhs_values->cols();
    const auto lhs = cached("core.prep.lhs", "serve.cache.lhs", [&](bool* h) {
      return ops_.get_or_prepare_spmm_lhs(r.pattern, *r.lhs_values,
                                          r.precision, core::needs_shuffle(cfg),
                                          r.lhs_id, h);
    }, &sum);
    const auto rhs = cached("core.prep.rhs", "serve.cache.rhs", [&](bool* h) {
      return ops_.get_or_prepare_dense(serve::OperandKind::spmm_rhs,
                                       *r.rhs_values, r.precision, r.rhs_id, h);
    }, &sum);
    const auto plan = cached("core.plan.build", "serve.cache.plan",
                             [&](bool* h) {
      return plans_.get_or_build_spmm_plan(r.pattern, lhs, n, cfg, 0, h);
    }, &sum);
    const core::SpmmResult res = timed("core.replay.spmm." + tag, root, id,
                                       [&] { return core::spmm(lhs, rhs, cfg,
                                                               plan); },
                                       &replay);
    sum += replay;
    match = res.c == *it.ref_spmm;
    census(plan.get(), res.run);
    useful = core::spmm_useful_ops(*r.pattern, n);
    if (it.shards > 1) shard(it, rhs, root, id);
  } else {
    core::SddmmConfig cfg;
    cfg.precision = r.precision;
    cfg.prefetch = r.sddmm_prefetch;
    const std::size_t k = r.lhs_values->cols();
    const auto a = cached("core.prep.lhs", "serve.cache.lhs", [&](bool* h) {
      return ops_.get_or_prepare_dense(serve::OperandKind::sddmm_lhs,
                                       *r.lhs_values, r.precision, r.lhs_id, h);
    }, &sum);
    const auto b = cached("core.prep.rhs", "serve.cache.rhs", [&](bool* h) {
      return ops_.get_or_prepare_dense(serve::OperandKind::sddmm_rhs,
                                       *r.rhs_values, r.precision, r.rhs_id, h);
    }, &sum);
    const auto plan = cached("core.plan.build", "serve.cache.plan",
                             [&](bool* h) {
      return plans_.get_or_build_sddmm_plan(r.pattern, k, cfg, 0, h);
    }, &sum);
    const core::SddmmResult res = timed(
        "core.replay.sddmm." + tag, root, id,
        [&] { return core::sddmm(a, b, *r.pattern, cfg, plan); }, &replay);
    sum += replay;
    match = same_bcrs(res.c, *it.ref_sddmm);
    census(nullptr, res.run);
    useful = core::sddmm_useful_ops(*r.pattern, k);
  }
  mismatches += !match;
  const std::string op = serve::to_string(r.op);
  gops_[op + "." + tag].push_back(static_cast<double>(useful) /
                                  (replay * 1e3));

  const auto [direct, pooled] = direct_and_pool(r, root, id, sum);
  mismatches += !response_matches(it, direct) + !response_matches(it, pooled);
  fit_.push_back({op, tag, replay, direct.modeled_seconds * 1e6});
  rec_.end(root);
}

void Tracer::shard(const MatrixItem& it, const core::DenseOperandHandle& rhs,
                   int root, std::uint64_t id) {
  // The split the layer-mix pool makes (MatrixItem::shards), also when the
  // request runs as a probe on another workload.
  const serve::Request& r = it.req;
  core::SpmmConfig cfg;
  cfg.precision = r.precision;
  cfg.variant = r.variant;
  cfg.bsn = r.bsn;
  const std::size_t n = r.rhs_values->cols();

  std::vector<serve::RowSlice> slices;
  std::vector<std::shared_ptr<const sparse::BlockPattern>> patterns;
  std::vector<core::SpmmPlanHandle> plans;
  const std::uint64_t fp = shard_plans_.pattern_identity(r.pattern);
  timed("serve.shard.plan", root, id, [&] {
    slices = serve::plan_row_shards(*r.pattern, core::stride_for(r.precision),
                                    it.shards);
    for (const serve::RowSlice& s : slices) {
      patterns.push_back(std::make_shared<const sparse::BlockPattern>(
          sparse::slice_vector_rows(*r.pattern, s.vr_begin, s.vr_end)));
      plans.push_back(shard_plans_.get_or_build_spmm_plan(
          patterns.back(), n, cfg, serve::slice_content_id(fp, s)));
    }
  });
  std::vector<core::SpmmResult> parts;
  for (std::size_t i = 0; i < slices.size(); ++i) {
    parts.push_back(timed("serve.shard.slice", root, id, [&] {
      return serve::execute_spmm_slice(r, patterns[i], slices[i],
                                       r.lhs_id != 0 ? r.lhs_id : fp, plans[i],
                                       rhs, shard_ops_)
          .result;
    }));
  }
  const core::SpmmResult merged = timed("serve.shard.merge", root, id, [&] {
    return serve::merge_row_shards(r.pattern->rows, n,
                                   r.pattern->vector_length, slices,
                                   std::move(parts));
  });
  mismatches += !(merged.c == *it.ref_spmm);
}

void Tracer::graph(const Workload& src, const Feed& feed, std::size_t step,
                   std::uint64_t id) {
  requests += 1;
  const int root = rec_.begin("request", -1, id);
  const std::size_t l = (step + 1) * src.grow;
  const auto mask = timed("serve.session.slice", root, id, [&] {
    return serve::slice_session_mask(*src.mask, l);
  });
  auto q = std::make_shared<Matrix<float>>(l, src.dk);
  auto k = std::make_shared<Matrix<float>>(l, src.dk);
  auto v = std::make_shared<Matrix<float>>(l, src.dk);
  feed_prefix(feed, step + 1, *q, *k, *v);
  auto g = std::make_shared<serve::GraphRequest>();
  g->q = q;
  g->k = k;
  g->v = v;
  g->mask = mask;
  g->scheme = feed.scheme;

  timed("serve.engine.price", root, id,
        [&] { return serve::price_graph_request(*g, plans_); });
  // The Q/K/V quantization as attention_stage_sddmm does it: choose_symmetric,
  // then quantize_value per element into int32. The stage has no entry point
  // of its own for it, so this span times the same work outside the stage
  // and transformer.sddmm still includes it.
  timed("quant.qkv", root, id, [&] {
    for (const Matrix<float>* m : {q.get(), k.get(), v.get()}) {
      const quant::QuantParams p =
          quant::choose_symmetric(m->data(), m->size(), qkv_scalar(g->scheme));
      Matrix<std::int32_t> qi(m->rows(), m->cols());
      for (std::size_t i = 0; i < m->size(); ++i) {
        qi.data()[i] = quant::quantize_value(m->data()[i], p);
      }
    }
  });

  transformer::AttentionArena arena;
  arena.scheme = g->scheme;
  arena.mask = mask;
  double sum = 0.0, d = 0.0;
  timed("transformer.sddmm", root, id, [&] {
    transformer::attention_stage_sddmm(arena, *q, *k, *v, &ops_, &plans_);
  }, &d);
  sum += d;
  timed("transformer.softmax_quantize", root, id,
        [&] { transformer::attention_stage_softmax_quantize(arena); }, &d);
  sum += d;
  timed("transformer.spmm", root, id, [&] {
    transformer::attention_stage_spmm(arena, &ops_, &plans_,
                                      /*cache_lhs=*/false);
  }, &d);
  sum += d;
  const Matrix<float> out = timed("transformer.output", root, id, [&] {
    return transformer::attention_stage_output(arena);
  }, &d);
  sum += d;
  mismatches += !(out == feed.ref[step]);
  census(arena.stage_plans.spmm.get(), arena.spmm.run);
  census(nullptr, arena.sddmm.run);

  const auto [direct, pooled] =
      direct_and_pool(serve::make_graph_request(g), root, id, sum);
  for (const serve::Response* resp : {&direct, &pooled}) {
    mismatches += !resp->graph || !(resp->graph->out == feed.ref[step]);
  }
  fit_.push_back({"graph", transformer::to_string(feed.scheme), sum,
                  direct.modeled_seconds * 1e6});
  rec_.end(root);
}

void Tracer::report(Metrics& out) const {
  std::map<std::string, std::vector<double>> by_name;
  for (const Span& s : rec_.spans()) by_name[s.name].push_back(s.dur_us());

  std::printf("\ntraced pass: %zu requests, %zu spans\n", requests,
              rec_.spans().size());
  std::printf("  %-34s %7s %12s %12s\n", "span", "count", "p50 us", "p99 us");
  for (const auto& [name, d] : by_name) {
    std::printf("  %-34s %7zu %12.2f %12.2f\n", name.c_str(), d.size(),
                percentile(d, 0.5), percentile(d, 0.99));
  }
  auto p50 = [&](const std::string& name) {
    const auto it = by_name.find(name);
    return it == by_name.end() ? 0.0 : percentile(it->second, 0.5);
  };

  static const PrecisionPair spmm_pairs[] = {
      precision::L16R16, precision::L16R8, precision::L8R8, precision::L16R4,
      precision::L12R4,  precision::L8R4,  precision::L4R4};
  static const PrecisionPair sddmm_pairs[] = {
      precision::L8R8, precision::L4R4, precision::L16R16};
  auto replay = [&](const char* op, PrecisionPair pr) {
    const std::string tag = pair_tag(pr);
    out[std::string("core.replay.") + op + "_us." + tag] = {
        p50(std::string("core.replay.") + op + "." + tag), "us"};
    const auto g = gops_.find(std::string(op) + "." + tag);
    out[std::string("core.replay.gops.") + op + "." + tag] = {
        g == gops_.end() ? 0.0 : percentile(g->second, 0.5), "Gop/s"};
  };
  for (const PrecisionPair pr : spmm_pairs) replay("spmm", pr);
  for (const PrecisionPair pr : sddmm_pairs) replay("sddmm", pr);

  out["core.replay.padded_frac"] = {
      slots_ == 0 ? 0.0
                  : static_cast<double>(padded_slots_) /
                        static_cast<double>(slots_),
      "share"};
  for (int i = 0; i < simt::kSpmmBucketKinds; ++i) {
    out[std::string("core.replay.bucket.spmm.") +
        core::to_string(static_cast<core::PanelKernelId>(i))] = {
        static_cast<double>(spmm_buckets_[i]), "count"};
  }
  for (int i = 0; i < simt::kSddmmBucketKinds; ++i) {
    out[std::string("core.replay.bucket.sddmm.") +
        core::to_string(static_cast<core::SddmmKernelId>(i))] = {
        static_cast<double>(sddmm_buckets_[i]), "count"};
  }

  out["core.prep.lhs_us"] = {p50("core.prep.lhs"), "us"};
  out["core.prep.rhs_us"] = {p50("core.prep.rhs"), "us"};
  out["core.plan.build_us"] = {p50("core.plan.build"), "us"};
  out["serve.engine.price_us"] = {p50("serve.engine.price"), "us"};
  out["serve.engine.overhead_us"] = {percentile(overhead_us_, 0.5), "us"};
  out["serve.engine.direct_us"] = {percentile(direct_us_, 0.5), "us"};
  out["serve.engine.pool_us"] = {percentile(pool_us_, 0.5), "us"};
  out["serve.residual_us"] = {percentile(residual_us_, 0.5), "us"};
  out["serve.shard.plan_us"] = {p50("serve.shard.plan"), "us"};
  out["serve.shard.slice_us"] = {p50("serve.shard.slice"), "us"};
  out["serve.shard.merge_us"] = {p50("serve.shard.merge"), "us"};
  out["serve.session.slice_us"] = {p50("serve.session.slice"), "us"};
  out["quant.qkv_us"] = {p50("quant.qkv"), "us"};
  for (const char* stage : {"sddmm", "softmax_quantize", "spmm", "output"}) {
    out[std::string("transformer.") + stage + "_us"] = {
        p50(std::string("transformer.") + stage), "us"};
  }
  std::printf("  lone request: direct p50 %.1f us, pool p50 %.1f us, "
              "overhead p50 %.1f us (p99 %.1f) over %zu like-for-like "
              "requests\n",
              percentile(direct_us_, 0.5), percentile(pool_us_, 0.5),
              percentile(overhead_us_, 0.5), percentile(overhead_us_, 0.99),
              overhead_us_.size());

  // Modeled A100 time next to measured host time, per op kind and pair.
  std::map<std::pair<std::string, std::string>, std::vector<const FitSample*>>
      groups;
  std::map<std::string, std::vector<double>> ratio_by_op;
  std::vector<double> measured, modeled;
  for (const FitSample& f : fit_) {
    groups[{f.op, f.pair}].push_back(&f);
    if (f.modeled_us > 0) {
      ratio_by_op[f.op].push_back(f.measured_us * 1e3 / f.modeled_us);
    }
    measured.push_back(f.measured_us);
    modeled.push_back(f.modeled_us);
  }
  std::printf("\n  %-6s %-16s %6s %14s %14s %16s\n", "op", "pair", "count",
              "modeled us", "measured us", "ns/modeled us");
  for (const auto& [key, samples] : groups) {
    std::vector<double> me, mo, ra;
    for (const FitSample* f : samples) {
      me.push_back(f->measured_us);
      mo.push_back(f->modeled_us);
      if (f->modeled_us > 0) ra.push_back(f->measured_us * 1e3 / f->modeled_us);
    }
    std::printf("  %-6s %-16s %6zu %14.3f %14.2f %16.1f\n", key.first.c_str(),
                key.second.c_str(), samples.size(), percentile(mo, 0.5),
                percentile(me, 0.5), percentile(ra, 0.5));
  }
  for (const char* op : {"spmm", "sddmm", "graph"}) {
    const auto it = ratio_by_op.find(op);
    out[std::string("simt.model.ns_per_modeled_us.") + op] = {
        it == ratio_by_op.end() ? 0.0 : percentile(it->second, 0.5), "ns/us"};
  }
  out["simt.model.rank_corr"] = {rank_correlation(measured, modeled), "rho"};
  std::printf("  rank correlation measured vs modeled: %.3f over %zu "
              "requests\n",
              out["simt.model.rank_corr"].value, measured.size());
  std::printf("  census: padded slots %llu of %llu\n",
              static_cast<unsigned long long>(padded_slots_),
              static_cast<unsigned long long>(slots_));
}

void Tracer::write_spans(const std::string& path) const {
  std::ofstream f(path);
  if (!f) {
    std::printf("warning: cannot write spans to %s\n", path.c_str());
    return;
  }
  f.precision(12);
  f << "[\n";
  const std::vector<Span>& spans = rec_.spans();
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    f << "{\"name\":\"" << s.name << "\",\"start_us\":" << s.start_us
      << ",\"end_us\":" << s.end_us << ",\"parent\":" << s.parent
      << ",\"request\":" << s.request << "}" << (i + 1 < spans.size() ? "," : "")
      << "\n";
  }
  f << "]\n";
  std::printf("spans written to %s\n", path.c_str());
}

}  // namespace

void run_traced_pass(const Workload& w, std::uint64_t seed, double seconds,
                     const std::string& spans_out, Metrics& out,
                     std::uint64_t* mismatches) {
  Tracer t(w);
  const Clock::time_point t0 = Clock::now();
  const double budget = 0.2 * seconds;
  std::uint64_t id = 1;
  auto spent = [&] { return seconds_between(t0, Clock::now()); };
  if (!w.sessions()) {
    // At least one full pass over the distinct requests, then until the
    // budget is spent.
    for (std::size_t i = 0; i < w.stream.size(); ++i) {
      if (i > w.items.size() && spent() > budget) break;
      t.matrix(w.items[w.stream[i]], id++);
    }
  } else {
    for (std::size_t f = 0; f < w.feeds.size(); ++f) {
      if (f >= 2 && spent() > budget) break;
      for (std::size_t s = 0; s < w.steps_per_session(); ++s) {
        t.graph(w, w.feeds[f], s, id++);
      }
    }
  }

  // Probes of the layers this workload's stream does not reach.
  Params probe;
  probe.probe = true;
  if (w.name != "layer_mix_resident") {
    const Workload pw = make_workload("layer_mix_resident", seed, probe);
    for (const MatrixItem& it : pw.items) t.matrix(it, id++);
  }
  if (!w.sessions()) {
    const Workload pw = make_workload("token_streams", seed, probe);
    for (std::size_t s = 0; s < pw.steps_per_session(); ++s) {
      t.graph(pw, pw.feeds.front(), s, id++);
    }
  }

  t.report(out);
  if (!spans_out.empty()) t.write_spans(spans_out);
  *mismatches += t.mismatches;
}

}  // namespace perfbench
