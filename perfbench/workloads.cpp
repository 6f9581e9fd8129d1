// The benchmark's three seeded workloads. The seed picks pattern instances,
// operand values and the send order; the composition (shapes, sparsities,
// precision pairs, shares) is fixed, so runs with different seeds measure
// the same mix.

#include <cstring>
#include <numeric>

#include "dlmc/dlmc.hpp"
#include "harness.hpp"

namespace perfbench {

namespace {

constexpr int kV = 8;

const PrecisionPair kSpmmPairs[] = {
    precision::L16R16, precision::L16R8, precision::L8R8, precision::L16R4,
    precision::L12R4,  precision::L8R4,  precision::L4R4};
const PrecisionPair kSddmmPairs[] = {precision::L8R8, precision::L4R4,
                                     precision::L16R16};

std::uint64_t mix(std::uint64_t a, std::uint64_t b) {
  std::uint64_t state = a * 0x9e3779b97f4a7c15ull + b;
  return splitmix64(state);
}

/// A DLMC collection pattern of the given scalar shape and sparsity. The
/// instance's parity (uniform vs banded placement) follows `instance`; the
/// seed only re-draws the structure.
std::shared_ptr<const sparse::BlockPattern> dlmc_pattern(
    std::size_t rows, std::size_t cols, double sparsity, std::size_t instance,
    std::uint64_t seed) {
  for (dlmc::MatrixSpec spec : dlmc::collection(sparsity)) {
    if (spec.rows != rows || spec.cols != cols) continue;
    if (instance-- != 0) continue;
    spec.seed = mix(spec.seed, seed);
    return std::make_shared<const sparse::BlockPattern>(
        dlmc::instantiate(spec, kV));
  }
  throw Error("perfbench: no DLMC collection matrix of the requested shape");
}

std::shared_ptr<const Matrix<std::int32_t>> values(std::size_t rows,
                                                    std::size_t cols,
                                                    Scalar type, Rng& rng) {
  return std::make_shared<const Matrix<std::int32_t>>(
      core::random_values(rows, cols, type, rng));
}

MatrixItem spmm_item(std::shared_ptr<const sparse::BlockPattern> pattern,
                     PrecisionPair pr, std::size_t n, Rng& rng) {
  MatrixItem it;
  it.req.op = serve::OpKind::spmm;
  it.req.precision = pr;
  it.req.lhs_values = values(pattern->rows, pattern->cols, pr.lhs, rng);
  it.req.rhs_values = values(pattern->cols, n, pr.rhs, rng);
  it.req.pattern = std::move(pattern);
  return it;
}

MatrixItem sddmm_item(std::shared_ptr<const sparse::BlockPattern> pattern,
                      PrecisionPair pr, std::size_t k, Rng& rng) {
  MatrixItem it;
  it.req.op = serve::OpKind::sddmm;
  it.req.precision = pr;
  it.req.lhs_values = values(pattern->rows, k, pr.lhs, rng);
  it.req.rhs_values = values(k, pattern->cols, pr.rhs, rng);
  it.req.pattern = std::move(pattern);
  return it;
}

/// The expected output, from direct core calls on freshly prepared operands
/// and a freshly built plan (nothing shared with any pool). Adds the
/// prepared LHS and plan footprints to the workload's working set.
void compute_reference(MatrixItem& it, Workload& w) {
  const serve::Request& r = it.req;
  if (r.op == serve::OpKind::spmm) {
    core::SpmmConfig cfg;
    cfg.precision = r.precision;
    cfg.variant = r.variant;
    const auto a = core::prepare_spmm_lhs_shared(
        *r.pattern, *r.lhs_values, r.precision, core::needs_shuffle(cfg));
    const auto b = core::prepare_spmm_rhs_shared(*r.rhs_values, r.precision);
    const auto plan = core::build_spmm_plan(*r.pattern, r.rhs_values->cols(),
                                            cfg);
    it.ref_spmm = std::make_shared<const Matrix<std::int32_t>>(
        core::spmm(a, b, cfg, plan).c);
    w.operand_bytes += a->footprint_bytes();
    w.plan_bytes += plan->footprint_bytes();
  } else {
    core::SddmmConfig cfg;
    cfg.precision = r.precision;
    const int chunk = core::rhs_chunk_bits(r.precision);
    const auto a = core::prepare_dense_shared(*r.lhs_values, r.precision.lhs,
                                              /*row_major=*/true, chunk);
    const auto b = core::prepare_dense_shared(*r.rhs_values, r.precision.rhs,
                                              /*row_major=*/false, chunk);
    const auto plan = core::build_sddmm_plan(*r.pattern,
                                             r.lhs_values->cols(), cfg);
    it.ref_sddmm = std::make_shared<const sparse::Bcrs<std::int32_t>>(
        core::sddmm(a, b, *r.pattern, cfg, plan).c);
    w.operand_bytes += a->footprint_bytes();
    w.plan_bytes += plan->footprint_bytes();
  }
}

/// How DevicePool prices a request and splits it: the modeled seconds on the
/// pool's reference spec (serve::price_request, the pool's own pricing) and
/// the row slices its shard decision asks for on a homogeneous pool.
struct PoolPricing {
  double seconds = 0.0;
  std::size_t slices = 1;  // 1 = placed whole
};

PoolPricing pool_pricing(const serve::Request& r,
                         const serve::DevicePoolConfig& pool) {
  serve::OperandCache no_plans(0);
  const simt::KernelRun run = serve::price_request(r, no_plans);
  PoolPricing p;
  p.seconds = simt::estimate_seconds(pool.device, run);
  if (pool.shard_threshold_seconds <= 0 ||
      p.seconds <= pool.shard_threshold_seconds) {
    return p;
  }
  const std::uint64_t wave =
      pool.wave_floor_blocks != 0
          ? pool.wave_floor_blocks
          : static_cast<std::uint64_t>(pool.device.sm_count);
  const std::size_t by_wave = static_cast<std::size_t>(
      std::max<std::uint64_t>(1, run.launch.grid_blocks / wave));
  const std::size_t by_cost = static_cast<std::size_t>(
      std::ceil(p.seconds / pool.shard_threshold_seconds));
  const std::size_t devices =
      pool.max_shards == 0 ? pool.device_count
                           : std::min(pool.max_shards, pool.device_count);
  p.slices = std::min({devices, by_cost, by_wave});
  return p;
}

void shuffle(std::vector<std::uint32_t>& v, std::size_t from, Rng& rng) {
  for (std::size_t i = v.size(); i > from + 1; --i) {
    const std::size_t j = from + rng.next_below(i - from);
    std::swap(v[i - 1], v[j]);
  }
}

// layer_mix_resident: the Fig. 12/13 precision mix over Transformer-layer
// DLMC patterns. Every weight and activation carries a client id and the
// whole set fits the default caches, so after the warm pass every lookup
// hits and replay does the work. About 2.4% of requests are prefill-sized
// SpMMs priced above the pool's shard threshold, so the shard path runs.
Workload layer_mix(std::uint64_t seed, const Params& p) {
  Workload w;
  w.name = "layer_mix_resident";
  w.pool.device_count = 4;
  // Half the default shard threshold: still above every regular request's
  // price, and a prefill request that clears it costs the host a few
  // regular requests' worth instead of dominating the run.
  w.pool.shard_threshold_seconds = 1e-5;
  Rng rng(mix(seed, 1));

  // Scalar DLMC shapes (dilated by V=8): an attention-style block and a
  // Transformer-base projection. The probe keeps the smaller only.
  std::vector<std::pair<std::size_t, std::size_t>> shapes = {{256, 256},
                                                             {512, 512}};
  if (p.probe || p.quick) shapes.resize(1);
  const double ladder[] = {0.7, 0.8, 0.9, 0.95};
  constexpr std::size_t kDecodeN = 64;
  constexpr std::size_t kHeadDim = 64;

  // Probe ids sit far from any workload's own client ids: the traced pass
  // runs probe requests through the same caches.
  std::uint64_t client = p.probe ? (1ull << 40) : 1;
  for (std::size_t li = 0; li < shapes.size(); ++li) {
    for (std::size_t pi = 0; pi < std::size(kSpmmPairs); ++pi) {
      const std::size_t i = li * std::size(kSpmmPairs) + pi;
      auto pat = dlmc_pattern(shapes[li].first, shapes[li].second,
                              ladder[(li + pi) % 4], 2 * (seed % 4) + i % 2,
                              seed);
      MatrixItem it = spmm_item(std::move(pat), kSpmmPairs[pi], kDecodeN, rng);
      it.req.lhs_id = client++;
      it.req.rhs_id = client++;
      w.items.push_back(std::move(it));
    }
  }
  for (std::size_t li = 0; li < std::min<std::size_t>(2, shapes.size());
       ++li) {
    for (std::size_t pi = 0; pi < std::size(kSddmmPairs); ++pi) {
      auto pat = dlmc_pattern(shapes[li].first, shapes[li].second,
                              ladder[(li + pi + 3) % 4], pi % 2, seed);
      MatrixItem it = sddmm_item(std::move(pat), kSddmmPairs[pi], kHeadDim,
                                 rng);
      it.req.lhs_id = client++;
      it.req.rhs_id = client++;
      w.items.push_back(std::move(it));
    }
  }
  const std::size_t regular = w.items.size();
  for (const MatrixItem& it : w.items) {
    const PoolPricing price = pool_pricing(it.req, w.pool);
    if (price.slices > 1) {
      throw Error("perfbench: a regular layer-mix request would shard: " +
                  std::string(serve::to_string(it.req.op)) + " " +
                  pair_tag(it.req.precision) + " " +
                  std::to_string(it.req.pattern->rows) + "x" +
                  std::to_string(it.req.pattern->cols) + " priced " +
                  std::to_string(price.seconds * 1e6) + " us");
    }
  }

  // Prefill-sized SpMMs: the narrowest power-of-two N whose A100 price
  // clears the shard threshold with margin.
  const std::size_t shard_kinds = p.probe ? 1 : 2;
  const PrecisionPair shard_pairs[] = {precision::L8R8, precision::L16R8};
  for (std::size_t s = 0; s < shard_kinds; ++s) {
    const PrecisionPair pr = shard_pairs[s];
    auto pat = dlmc_pattern(512, 512, 0.9, s, mix(seed, 7));
    MatrixItem it;
    it.req.op = serve::OpKind::spmm;
    it.req.precision = pr;
    it.req.lhs_values = values(pat->rows, pat->cols, pr.lhs, rng);
    it.req.pattern = pat;
    for (std::size_t n = 256;; n *= 2) {
      it.req.rhs_values =
          std::make_shared<const Matrix<std::int32_t>>(pat->cols, n);
      const PoolPricing price = pool_pricing(it.req, w.pool);
      if (price.seconds > 1.2 * w.pool.shard_threshold_seconds || n >= 8192) {
        it.shards = price.slices;
        break;
      }
    }
    if (it.shards <= 1) {
      throw Error("perfbench: a prefill-sized layer-mix request would not "
                  "shard");
    }
    it.req.rhs_values = values(pat->cols, it.req.rhs_values->cols(), pr.rhs,
                               rng);
    it.req.lhs_id = client++;
    it.req.rhs_id = client++;
    w.items.push_back(std::move(it));
  }
  for (MatrixItem& it : w.items) compute_reference(it, w);

  if (p.probe) {
    w.stream.resize(w.items.size());
    std::iota(w.stream.begin(), w.stream.end(), 0u);
    return w;
  }
  // Rounds of every regular item in seeded order; every other round also
  // carries one prefill-sized request (alternating kinds).
  const std::size_t kStream = 8192;
  for (std::size_t round = 0; w.stream.size() < kStream; ++round) {
    const std::size_t from = w.stream.size();
    for (std::size_t i = 0; i < regular; ++i) {
      w.stream.push_back(static_cast<std::uint32_t>(i));
    }
    if (round % 2 == 0) {
      w.stream.push_back(static_cast<std::uint32_t>(
          regular + (round / 2) % (w.items.size() - regular)));
    }
    shuffle(w.stream, from, rng);
  }
  return w;
}

// cold_tenants: many distinct tenants' DLMC patterns whose working set is
// several times the per-device operand-cache and plan-cache budgets, with
// fresh anonymous activations (rhs_id = 0) at N = 64 and sparsity
// 0.95-0.98. Operand prep, plan builds and LRU eviction dominate; replay is
// the small part.
Workload cold_tenants(std::uint64_t seed, const Params& p) {
  Workload w;
  w.name = "cold_tenants";
  w.pool.device_count = 4;
  // Sized against the 80 tenants below (~8.5 MB of prepared weights and
  // ~3.4 MB of plans): each device's operand cache and the shared plan
  // cache hold about a quarter of the working set, so LRU eviction never
  // stops.
  w.pool.cache_capacity_bytes = 2u << 20;
  w.pool.plan_cache_capacity_bytes = 768u << 10;
  Rng rng(mix(seed, 2));

  // Scalar DLMC shapes of up to 2^17 elements (dilated: up to 4096 rows).
  const std::pair<std::size_t, std::size_t> shapes[] = {
      {64, 256},  {256, 64},  {64, 576},   {128, 256}, {128, 512},
      {512, 128}, {128, 1152}, {256, 512}, {256, 256}};
  const PrecisionPair pairs[] = {precision::L8R8, precision::L4R4,
                                 precision::L8R4, precision::L16R8};
  const double sparsities[] = {0.95, 0.98};
  constexpr std::size_t kN = 64;
  const std::size_t tenants = p.quick ? 8 : 80;

  // Tenants of one shape share a dense value matrix (in the int4 range, so
  // valid for every pair): their patterns differ, so their prepared
  // weights do, and the benchmark's own inputs stay small.
  std::vector<std::shared_ptr<const Matrix<std::int32_t>>> shared;
  for (const auto& [r, c] : shapes) {
    shared.push_back(values(r * kV, c, Scalar::s4, rng));
  }
  for (std::size_t i = 0; i < tenants; ++i) {
    const std::size_t si = i % std::size(shapes);
    const double sp = sparsities[(i / std::size(shapes)) % 2];
    const PrecisionPair pr = pairs[i % std::size(pairs)];
    MatrixItem it;
    it.req.op = serve::OpKind::spmm;
    it.req.precision = pr;
    it.req.pattern = dlmc_pattern(shapes[si].first, shapes[si].second, sp,
                                  (i / std::size(shapes)) % 8, seed);
    it.req.lhs_values = shared[si];
    it.req.rhs_values = values(shapes[si].second, kN, pr.rhs, rng);
    it.req.lhs_id = 1 + i;  // tenant weights; activations stay anonymous
    w.items.push_back(std::move(it));
  }
  for (MatrixItem& it : w.items) compute_reference(it, w);

  const std::size_t kStream = 16384;
  w.stream.reserve(kStream);
  for (std::size_t i = 0; i < kStream; ++i) {
    w.stream.push_back(
        static_cast<std::uint32_t>(rng.next_below(w.items.size())));
  }
  return w;
}

// token_streams: concurrent TokenSessions over fused attention graphs. One
// shared L_max = 512 mask (V = 8, sparsity 0.7); each step appends 64 rows.
// Feeds are recycled, so every step's expected output is computed once.
Workload token_streams(std::uint64_t seed, const Params& p) {
  Workload w;
  w.name = "token_streams";
  w.pool.device_count = 4;
  constexpr std::size_t kMaxLen = 512;
  Rng mask_rng(mix(seed, 3));
  w.mask = std::make_shared<const sparse::BlockPattern>(
      sparse::make_attention_mask_pattern(kMaxLen, kV, 0.7, mask_rng));

  const std::size_t feeds = p.probe ? 1 : (p.quick ? 2 : 16);
  const std::size_t steps = w.steps_per_session();
  for (std::size_t f = 0; f < feeds; ++f) {
    Rng rng(mix(seed, 100 + f));
    Feed feed;
    feed.scheme = f % 2 == 0 ? transformer::AttentionScheme::magicube_8b_8b
                             : transformer::AttentionScheme::magicube_16b_8b;
    for (std::size_t s = 0; s < steps; ++s) {
      Matrix<float> q(w.grow, w.dk), k(w.grow, w.dk), v(w.grow, w.dk);
      fill_normal(q, rng, 0.4);
      fill_normal(k, rng, 0.4);
      fill_normal(v, rng, 0.4);
      feed.q.push_back(std::move(q));
      feed.k.push_back(std::move(k));
      feed.v.push_back(std::move(v));
    }
    for (std::size_t s = 0; s < steps; ++s) {
      const std::size_t l = (s + 1) * w.grow;
      Matrix<float> q(l, w.dk), k(l, w.dk), v(l, w.dk);
      feed_prefix(feed, s + 1, q, k, v);
      const auto sliced = serve::slice_session_mask(*w.mask, l);
      feed.ref.push_back(
          transformer::attention_forward(q, k, v, *sliced, feed.scheme));
    }
    w.feeds.push_back(std::move(feed));
  }
  return w;
}

}  // namespace

Workload make_workload(const std::string& name, std::uint64_t seed,
                       const Params& params) {
  if (name == "layer_mix_resident") return layer_mix(seed, params);
  if (name == "cold_tenants") return cold_tenants(seed, params);
  if (name == "token_streams") return token_streams(seed, params);
  throw Error("perfbench: unknown workload '" + name + "'");
}

void feed_prefix(const Feed& feed, std::size_t steps, Matrix<float>& q,
                 Matrix<float>& k, Matrix<float>& v) {
  const std::size_t block = feed.q.front().size();
  for (std::size_t s = 0; s < steps; ++s) {
    std::memcpy(q.data() + s * block, feed.q[s].data(), block * sizeof(float));
    std::memcpy(k.data() + s * block, feed.k[s].data(), block * sizeof(float));
    std::memcpy(v.data() + s * block, feed.v[s].data(), block * sizeof(float));
  }
}

bool same_bcrs(const sparse::Bcrs<std::int32_t>& a,
               const sparse::Bcrs<std::int32_t>& b) {
  return a.rows == b.rows && a.cols == b.cols &&
         a.vector_length == b.vector_length && a.row_ptr == b.row_ptr &&
         a.col_idx == b.col_idx && a.values == b.values;
}

bool response_matches(const MatrixItem& item, const serve::Response& resp) {
  if (item.ref_spmm) return resp.spmm && resp.spmm->c == *item.ref_spmm;
  return resp.sddmm && same_bcrs(resp.sddmm->c, *item.ref_sddmm);
}

std::string pair_tag(PrecisionPair p) {
  return "L" + std::to_string(bits_of(p.lhs)) + "R" +
         std::to_string(bits_of(p.rhs));
}

}  // namespace perfbench
