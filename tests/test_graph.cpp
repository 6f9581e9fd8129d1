// Fused attention-graph serving suite (`serve` CTest label): GraphRequest
// bit-exactness against the composed three-call reference across schemes and
// mask families, the zero-intermediate-insertion arena contract,
// estimate-equals-execute for the fused pricing, the Request wrapper, the
// pool's graph routing on one and two devices (stage spans included), and
// token sessions —
// mask re-slicing, replay invariance across pool sizes, and budgeted
// admission.

#include <gtest/gtest.h>

#include <cstdint>
#include <future>
#include <memory>
#include <vector>

#include "dlmc/dlmc.hpp"
#include "serve/serve.hpp"
#include "simt/cost_model.hpp"
#include "transformer/attention.hpp"

namespace magicube::serve {
namespace {

using transformer::AttentionScheme;

const std::vector<AttentionScheme>& magicube_schemes() {
  static const std::vector<AttentionScheme> schemes = {
      AttentionScheme::magicube_16b_8b, AttentionScheme::magicube_8b_8b,
      AttentionScheme::magicube_8b_4b, AttentionScheme::magicube_4b_4b};
  return schemes;
}

/// The three mask families the conformance sweep covers: uniform, banded,
/// and a DLMC-shaped square (a collection spec dilated to L x L).
std::vector<std::shared_ptr<const sparse::BlockPattern>> conformance_masks(
    std::size_t l, int v) {
  Rng rng(17);
  std::vector<std::shared_ptr<const sparse::BlockPattern>> masks;
  masks.push_back(std::make_shared<const sparse::BlockPattern>(
      sparse::make_uniform_pattern(l, l, v, 0.7, rng)));
  masks.push_back(std::make_shared<const sparse::BlockPattern>(
      sparse::make_banded_pattern(l, l, v, 0.75, 0.3, rng)));
  dlmc::MatrixSpec spec;
  spec.name = "graph_conformance";
  spec.rows = l / static_cast<std::size_t>(v);
  spec.cols = l;
  spec.sparsity = 0.8;
  spec.kind = dlmc::PatternKind::uniform;
  spec.seed = 18;
  masks.push_back(std::make_shared<const sparse::BlockPattern>(
      dlmc::instantiate(spec, v)));
  return masks;
}

std::shared_ptr<const GraphRequest> make_graph(
    std::shared_ptr<const sparse::BlockPattern> mask, std::size_t dk,
    AttentionScheme scheme, std::uint64_t seed) {
  Rng rng(seed);
  auto q = std::make_shared<Matrix<float>>(mask->rows, dk);
  auto k = std::make_shared<Matrix<float>>(mask->rows, dk);
  auto v = std::make_shared<Matrix<float>>(mask->rows, dk);
  fill_normal(*q, rng, 0.4);
  fill_normal(*k, rng, 0.4);
  fill_normal(*v, rng, 0.4);
  auto g = std::make_shared<GraphRequest>();
  g->q = std::move(q);
  g->k = std::move(k);
  g->v = std::move(v);
  g->mask = std::move(mask);
  g->scheme = scheme;
  return g;
}

Matrix<float> composed_reference(const GraphRequest& g) {
  return transformer::attention_forward(*g.q, *g.k, *g.v, *g.mask, g.scheme);
}

// ---- Fused DAG vs the composed three-call reference -----------------------

TEST(GraphRequest, BitExactVsComposedReferenceAcrossSchemesAndMasks) {
  for (const auto& mask : conformance_masks(64, 8)) {
    for (const AttentionScheme scheme : magicube_schemes()) {
      auto g = make_graph(mask, 64, scheme, 19);
      OperandCache operands(64ull << 20), plans(64ull << 20);
      const Response resp =
          serve_graph_request(*g, operands, plans, simt::a100());
      ASSERT_TRUE(resp.graph) << transformer::to_string(scheme);
      EXPECT_FALSE(resp.spmm.has_value());
      EXPECT_FALSE(resp.sddmm.has_value());
      EXPECT_EQ(resp.graph->out, composed_reference(*g))
          << transformer::to_string(scheme);
      ASSERT_EQ(resp.graph->stages.size(), 3u);
      EXPECT_EQ(resp.graph->stages[0].name, "sddmm");
      EXPECT_EQ(resp.graph->stages[1].name, "softmax_quantize");
      EXPECT_EQ(resp.graph->stages[2].name, "spmm");
    }
  }
}

// ---- Arena contract: intermediates never enter the caches -----------------

TEST(GraphRequest, IntermediatesNeverInsertedIntoCaches) {
  auto g = make_graph(conformance_masks(64, 8)[0], 64,
                      AttentionScheme::magicube_8b_8b, 20);
  OperandCache operands(64ull << 20), plans(64ull << 20);

  const Response first =
      serve_graph_request(*g, operands, plans, simt::a100());
  // Exactly the stable operands are cached — quantized Q, K^T, V — and the
  // two stage plans. The stage intermediates (the score matrix, the
  // attention-weight image) never appear: 3 + 2 insertions, nothing else.
  EXPECT_EQ(operands.stats().insertions, 3u);
  EXPECT_EQ(operands.entry_count(), 3u);
  EXPECT_EQ(plans.stats().insertions, 2u);
  EXPECT_EQ(plans.entry_count(), 2u);

  // A second identical graph re-serves everything from cache: zero new
  // insertions anywhere, bit-identical output.
  const Response second =
      serve_graph_request(*g, operands, plans, simt::a100());
  EXPECT_EQ(operands.stats().insertions, 3u);
  EXPECT_EQ(plans.stats().insertions, 2u);
  EXPECT_EQ(second.graph->out, first.graph->out);
  EXPECT_TRUE(second.lhs_cache_hit);
  EXPECT_TRUE(second.rhs_cache_hit);
  EXPECT_TRUE(second.plan_cache_hit);
  for (const GraphStage& st : second.graph->stages) {
    if (st.name == "softmax_quantize") continue;  // arena-to-arena stage
    EXPECT_TRUE(st.rhs_cache_hit) << st.name;
    EXPECT_TRUE(st.plan_cache_hit) << st.name;
  }
}

// ---- Pricing: estimate equals execute; staged prices strictly higher ------

TEST(GraphRequest, FusedPriceEqualsExecutedModelAndBeatsStaged) {
  auto g = make_graph(conformance_masks(64, 8)[1], 64,
                      AttentionScheme::magicube_8b_8b, 21);
  OperandCache operands(64ull << 20), plans(64ull << 20);

  const simt::KernelRun cold = price_graph_request(*g, plans);
  const double cold_s = simt::estimate_seconds(simt::a100(), cold);
  const Response resp = serve_graph_request(*g, operands, plans, simt::a100());
  // Estimate-equals-execute: the admission price (cold plan cache, closed
  // form) is exactly the executed graph's modeled cost, and re-pricing with
  // the built plans resident agrees too.
  EXPECT_DOUBLE_EQ(resp.modeled_seconds, cold_s);
  const simt::KernelRun warm = price_graph_request(*g, plans);
  EXPECT_DOUBLE_EQ(simt::estimate_seconds(simt::a100(), warm), cold_s);

  // The staged arm — per-kernel launches plus the interlude copy-out /
  // copy-in traffic fusion eliminates — prices strictly higher (the
  // modeled fusion win bench/graph_soak gates).
  double staged_s = 0.0;
  for (const simt::KernelRun& run : price_staged_graph(*g, plans)) {
    staged_s += simt::estimate_seconds(simt::a100(), run);
  }
  EXPECT_GT(staged_s, cold_s);

  // The per-stage breakdown prices above the fused total as well (each
  // stage keeps its own roofline max).
  double stage_sum = 0.0;
  for (const GraphStage& st : resp.graph->stages) {
    stage_sum += st.modeled_seconds;
  }
  EXPECT_GE(stage_sum, resp.modeled_seconds);
}

// ---- The Request wrapper --------------------------------------------------

TEST(GraphRequest, WrapperCarriesMaskIdentityAndNoOperands) {
  auto g = make_graph(conformance_masks(64, 8)[0], 64,
                      AttentionScheme::magicube_8b_8b, 22);
  auto mutable_g = std::const_pointer_cast<GraphRequest>(g);
  mutable_g->session_id = 99;
  const Request req = make_graph_request(g, /*priority=*/3,
                                         /*deadline_seconds=*/1.0);
  EXPECT_EQ(req.graph.get(), g.get());
  EXPECT_EQ(req.op, OpKind::sddmm);
  EXPECT_EQ(req.pattern.get(), g->mask.get());
  EXPECT_EQ(req.lhs_values, nullptr);
  EXPECT_EQ(req.rhs_values, nullptr);
  EXPECT_EQ(req.lhs_id, 99u);
  EXPECT_EQ(req.priority, 3);
  EXPECT_DOUBLE_EQ(req.deadline_seconds, 1.0);
}

// ---- Engine routing -------------------------------------------------------

TEST(SingleDevicePool, ServesGraphRequestsBitExactly) {
  auto g = make_graph(conformance_masks(64, 8)[0], 64,
                      AttentionScheme::magicube_8b_8b, 23);
  DevicePoolConfig cfg;
  cfg.device_count = 1;
  DevicePool pool(cfg);
  const Response resp = pool.submit(make_graph_request(g)).get();
  ASSERT_TRUE(resp.graph);
  EXPECT_EQ(resp.graph->out, composed_reference(*g));
}

TEST(DevicePool, PlacesGraphWholeAndTracesStages) {
  auto g = make_graph(conformance_masks(64, 8)[0], 64,
                      AttentionScheme::magicube_8b_8b, 24);
  DevicePoolConfig cfg;
  cfg.device_count = 2;
  cfg.shard_threshold_seconds = 0;  // would shard any shardable request
  DevicePool pool(cfg);
  const Response resp = pool.submit(make_graph_request(g)).get();
  ASSERT_TRUE(resp.graph);
  EXPECT_EQ(resp.graph->out, composed_reference(*g));
  // The DAG places whole even under an always-shard threshold: its stages
  // share one arena.
  EXPECT_EQ(resp.shards, 1u);
  EXPECT_GE(resp.device, 0);
  EXPECT_EQ(pool.stats().graph_requests, 1u);

  ASSERT_TRUE(resp.trace);
  int stage_spans = 0;
  for (const TraceSpan& span : resp.trace->spans) {
    if (span.name.rfind("stage_", 0) == 0) stage_spans += 1;
  }
  EXPECT_EQ(stage_spans, 3);
}

// ---- Token sessions -------------------------------------------------------

TEST(TokenSession, SliceIsTheDensePrefixOfTheFullMask) {
  Rng rng(25);
  const auto full = sparse::make_attention_mask_pattern(32, 8, 0.7, rng);
  const auto full_dense = sparse::pattern_to_dense_mask(full);
  for (std::size_t l : {std::size_t{8}, std::size_t{16}, std::size_t{32}}) {
    const auto sliced = slice_session_mask(full, l);
    ASSERT_EQ(sliced->rows, l);
    ASSERT_EQ(sliced->cols, l);
    sliced->validate();
    const auto got = sparse::pattern_to_dense_mask(*sliced);
    for (std::size_t i = 0; i < l; ++i) {
      for (std::size_t j = 0; j < l; ++j) {
        EXPECT_EQ(got(i, j), full_dense(i, j)) << i << "," << j;
      }
    }
  }
}

TEST(TokenSession, ReplayBitExactAcrossPoolSizes) {
  Rng rng(26);
  const auto full = std::make_shared<const sparse::BlockPattern>(
      sparse::make_attention_mask_pattern(32, 8, 0.7, rng));
  const std::size_t dk = 64, grow = 8, steps = 4;

  // One token feed, replayed through every pool size.
  std::vector<Matrix<float>> qs, ks, vs;
  Rng feed(27);
  for (std::size_t s = 0; s < steps; ++s) {
    Matrix<float> q(grow, dk), k(grow, dk), v(grow, dk);
    fill_normal(q, feed, 0.4);
    fill_normal(k, feed, 0.4);
    fill_normal(v, feed, 0.4);
    qs.push_back(std::move(q));
    ks.push_back(std::move(k));
    vs.push_back(std::move(v));
  }

  std::vector<std::vector<Matrix<float>>> streams;
  for (const std::size_t n : {std::size_t{1}, std::size_t{2}, std::size_t{4}}) {
    DevicePoolConfig cfg;
    cfg.device_count = n;
    DevicePool pool(cfg);
    SessionConfig sess;
    sess.mask = full;
    sess.dk = dk;
    TokenSession session = pool.open_session(sess);
    std::vector<Matrix<float>> outs;
    for (std::size_t s = 0; s < steps; ++s) {
      const Response r = session.step(qs[s], ks[s], vs[s]).get();
      ASSERT_TRUE(r.graph);
      EXPECT_EQ(r.graph->out.rows(), (s + 1) * grow);
      EXPECT_EQ(r.graph->out.cols(), dk);
      outs.push_back(r.graph->out);
    }
    EXPECT_EQ(session.length(), steps * grow);
    EXPECT_EQ(session.steps(), steps);
    EXPECT_EQ(pool.stats().session_steps, steps);
    streams.push_back(std::move(outs));
  }
  // Placement, coalescing and fleet size never change values.
  for (std::size_t p = 1; p < streams.size(); ++p) {
    for (std::size_t s = 0; s < steps; ++s) {
      EXPECT_EQ(streams[p][s], streams[0][s]) << "pool " << p << " step " << s;
    }
  }

  // And each step equals the one-shot composed reference over its prefix
  // under the re-sliced mask.
  for (std::size_t s = 0; s < steps; ++s) {
    const std::size_t l = (s + 1) * grow;
    Matrix<float> q(l, dk), k(l, dk), v(l, dk);
    for (std::size_t b = 0; b <= s; ++b) {
      for (std::size_t r = 0; r < grow; ++r) {
        for (std::size_t c = 0; c < dk; ++c) {
          q(b * grow + r, c) = qs[b](r, c);
          k(b * grow + r, c) = ks[b](r, c);
          v(b * grow + r, c) = vs[b](r, c);
        }
      }
    }
    const auto mask = slice_session_mask(*full, l);
    const Matrix<float> ref = transformer::attention_forward(
        q, k, v, *mask, AttentionScheme::magicube_8b_8b);
    EXPECT_EQ(streams[0][s], ref) << "step " << s;
  }
}

TEST(TokenSession, AdmissionBudgetShedsExcessSessions) {
  Rng rng(28);
  const auto full = std::make_shared<const sparse::BlockPattern>(
      sparse::make_attention_mask_pattern(32, 8, 0.7, rng));
  const double one_step = price_session_step_seconds(
      *full, 64, AttentionScheme::magicube_8b_8b, simt::a100());
  ASSERT_GT(one_step, 0.0);

  DevicePoolConfig cfg;
  cfg.device_count = 1;
  cfg.session_budget_seconds = 1.5 * one_step;  // room for exactly one
  DevicePool pool(cfg);
  SessionConfig sess;
  sess.mask = full;
  sess.dk = 64;

  TokenSession a = pool.open_session(sess);
  EXPECT_TRUE(a.open());
  EXPECT_DOUBLE_EQ(pool.session_load_seconds(), one_step);
  EXPECT_THROW(pool.open_session(sess), ShedError);
  EXPECT_EQ(pool.stats().sessions_shed, 1u);

  // Releasing the admitted share re-opens the door.
  a.close();
  EXPECT_FALSE(a.open());
  EXPECT_DOUBLE_EQ(pool.session_load_seconds(), 0.0);
  TokenSession b = pool.open_session(sess);
  EXPECT_TRUE(b.open());
  const DevicePoolStats stats = pool.stats();
  EXPECT_EQ(stats.sessions_opened, 2u);
  EXPECT_EQ(stats.sessions_closed, 1u);
}

}  // namespace
}  // namespace magicube::serve
