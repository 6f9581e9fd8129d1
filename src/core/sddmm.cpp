#include "core/sddmm.hpp"

#include <algorithm>
#include <array>
#include <vector>

#include "core/plan.hpp"
#include "simt/launch.hpp"
#include "simt/memory.hpp"
#include "simt/tensor_core.hpp"

namespace magicube::core {

namespace {

using simt::AccumFrag;
using simt::KernelCounters;
using simt::LaneAddrs;
using simt::LaneWords;
using simt::WarpReg;

using Geom = detail::SddmmGeom;
using detail::kSddmmSlotsPerBlock;

/// Weighted plane combine + writeback of one block's accumulators (value
/// half of the epilogue of the simulated path).
void sddmm_value_epilogue(const Geom& g, const DenseOperand& a,
                          const DenseOperand& b, const AccumFrag* acc,
                          std::size_t slot_base, std::uint32_t valid,
                          std::vector<std::int32_t>& c_values) {
  const std::size_t v = static_cast<std::size_t>(g.v);
  auto acc_at = [&](int w, int pl, int qq) -> const AccumFrag& {
    return acc[static_cast<std::size_t>((w * g.p + pl) * g.q + qq)];
  };
  for (int w = 0; w < 2; ++w) {
    for (int lane = 0; lane < 32; ++lane) {
      const int row = lane / 4;
      if (row >= g.v) continue;
      for (int cc = 0; cc < 2; ++cc) {
        const int slot_in_warp = 2 * (lane % 4) + cc;
        const std::uint32_t slot_in_block =
            static_cast<std::uint32_t>(w * 8 + slot_in_warp);
        if (slot_in_block >= valid) continue;
        std::int64_t total = 0;
        for (int pl = 0; pl < g.p; ++pl) {
          for (int qq = 0; qq < g.q; ++qq) {
            total += a.planes[static_cast<std::size_t>(pl)].weight *
                     b.planes[static_cast<std::size_t>(qq)].weight *
                     acc_at(w, pl, qq).c[static_cast<std::size_t>(lane)]
                         [static_cast<std::size_t>(cc)];
          }
        }
        const std::size_t vec = slot_base + slot_in_block;
        c_values[vec * v + static_cast<std::size_t>(row)] =
            static_cast<std::int32_t>(total);
      }
    }
  }
}

// ---- Functional (lane-accurate) kernel ------------------------------------

struct BlockArgs {
  const DenseOperand* a;
  const DenseOperand* b;
  const sparse::BlockPattern* pattern;
  const Geom* g;
  const detail::SddmmBlockMap* map;
  std::vector<std::int32_t>* c_values;  // BCRS vector-major
};

void run_block(simt::BlockContext& ctx, const BlockArgs& args) {
  const DenseOperand& a = *args.a;
  const DenseOperand& b = *args.b;
  const sparse::BlockPattern& pattern = *args.pattern;
  const Geom& g = *args.g;
  KernelCounters& kc = ctx.counters;

  const std::size_t blk = ctx.block_id;
  const std::size_t r = args.map->row[blk];
  const std::size_t slot_base = args.map->slot_base[blk];
  const std::uint32_t valid = args.map->valid[blk];
  const std::size_t v = static_cast<std::size_t>(g.v);
  const std::size_t stride = static_cast<std::size_t>(g.stride);

  // Output column indices for the block's valid slots.
  {
    LaneAddrs ga;
    ga.fill(simt::kInactiveLane);
    for (std::uint32_t l = 0; l < valid; ++l) {
      ga[l] = (slot_base + l) * 4;
    }
    simt::count_gmem_load(ga, 4, kc);
  }

  // Accumulators: [warp][lhs plane][rhs plane].
  std::vector<AccumFrag> acc(static_cast<std::size_t>(2 * g.p * g.q));
  auto acc_at = [&](int w, int pl, int qq) -> AccumFrag& {
    return acc[static_cast<std::size_t>((w * g.p + pl) * g.q + qq)];
  };

  for (std::uint64_t st = 0; st < g.steps; ++st) {
    const std::size_t kbase = static_cast<std::size_t>(st) * stride;

    // LHS tile (V x stride) to shared memory, per plane.
    for (int pl = 0; pl < g.p; ++pl) {
      const auto& plane = a.planes[static_cast<std::size_t>(pl)];
      LaneAddrs ga;
      ga.fill(simt::kInactiveLane);
      LaneAddrs sa;
      sa.fill(simt::kInactiveLane);
      LaneWords vals{};
      for (std::size_t l = 0; l < g.lhs_words_per_plane && l < 32; ++l) {
        const std::size_t row = l / 4, word_in_row = l % 4;
        const std::size_t arow = r * v + row;
        ga[l] = (arow * g.k + kbase) * static_cast<std::size_t>(g.chunk) / 8 +
                word_in_row * 4;
        sa[l] = static_cast<std::size_t>(pl) * g.lhs_words_per_plane + l;
        std::uint32_t wv = 0;
        for (int e = 0; e < g.epw; ++e) {
          const std::size_t kk =
              kbase + word_in_row * static_cast<std::size_t>(g.epw) +
              static_cast<std::size_t>(e);
          wv |= plane.values.get_raw(a.flat_index(arow, kk)) << (g.chunk * e);
        }
        vals[l] = wv;
      }
      simt::count_gmem_load(ga, 4, kc);
      ctx.smem.st32(sa, vals, kc);
    }
    kc.syncthreads += g.prefetch ? 2 : 1;

    for (int w = 0; w < 2; ++w) {
      for (int pl = 0; pl < g.p; ++pl) {
        // LHS fragment from shared memory (consecutive words).
        LaneAddrs sa;
        sa.fill(simt::kInactiveLane);
        for (int lane = 0; lane < 32; ++lane) {
          const int row = lane / 4;
          if (row >= g.v) continue;
          sa[static_cast<std::size_t>(lane)] =
              static_cast<std::size_t>(pl) * g.lhs_words_per_plane +
              static_cast<std::size_t>(row) * 4 +
              static_cast<std::size_t>(lane % 4);
        }
        const WarpReg a_frag = ctx.smem.ld32(sa, kc);

        for (int qq = 0; qq < g.q; ++qq) {
          const auto& bplane = b.planes[static_cast<std::size_t>(qq)];
          // RHS fragment: direct global load, one word per lane.
          WarpReg b_frag{};
          LaneAddrs ga;
          ga.fill(simt::kInactiveLane);
          for (int lane = 0; lane < 32; ++lane) {
            const int slot_in_warp = lane / 4;
            const std::uint32_t slot_in_block =
                static_cast<std::uint32_t>(w * 8 + slot_in_warp);
            if (slot_in_block >= valid) continue;
            const std::size_t col =
                pattern.col_idx[slot_base + slot_in_block];
            const std::size_t elem0 =
                kbase + static_cast<std::size_t>(g.epw) *
                            static_cast<std::size_t>(lane % 4);
            ga[static_cast<std::size_t>(lane)] =
                (col * g.k + elem0) * static_cast<std::size_t>(g.chunk) / 8;
            std::uint32_t wv = 0;
            for (int e = 0; e < g.epw; ++e) {
              wv |= bplane.values.get_raw(
                        b.flat_index(elem0 + static_cast<std::size_t>(e),
                                     col))
                    << (g.chunk * e);
            }
            b_frag[static_cast<std::size_t>(lane)] = wv;
          }
          // Counted only on the first LHS plane: the fragment is reused
          // across planes on real hardware (held in registers).
          if (pl == 0) simt::count_gmem_load(ga, 4, kc);

          AccumFrag& dst = acc_at(w, pl, qq);
          const bool a_signed = a.planes[static_cast<std::size_t>(pl)].is_signed;
          const bool b_signed = bplane.is_signed;
          if (g.int4path) {
            simt::mma_m8n8k32(dst, a_frag, b_frag, dst, a_signed, b_signed,
                              kc);
          } else {
            simt::mma_m8n8k16(dst, a_frag, b_frag, dst, a_signed, b_signed,
                              kc);
          }
        }
      }
    }
  }

  // Epilogue: weighted plane combine, write the BCRS value range.
  sddmm_value_epilogue(g, a, b, acc.data(), slot_base, valid,
                       *args.c_values);
  kc.alu_ops += static_cast<std::uint64_t>(2 * 2 * g.p * g.q);
  kc.syncthreads += 1;

  const detail::SddmmEpilogueCounts e =
      detail::sddmm_epilogue_counts(g, valid);
  kc.smem_store_requests += e.smem_store_req;
  kc.smem_store_transactions += e.smem_store_req;
  kc.smem_load_requests += e.smem_load_req;
  kc.smem_load_transactions += e.smem_load_req;
  kc.gmem_store_requests += e.gmem_store_req;
  kc.gmem_store_sectors += e.gmem_store_sectors;
}

// ---- Panel fast path: block-panel replay ----------------------------------
//
// A rows and B columns are both K contiguous elements in their plane
// buffers (row-major A, column-major B), so the panel engine decodes the
// block's V x K LHS panel once, decodes each sampled column once per RHS
// plane, and reduces whole rows with the vectorized simt::dot_wrap — no
// per-step staging, no fragment gathers. The mod-2^32 dot over the full
// depth is bit-exact with the per-stride mma truncation chain it replaces.
//
// Blocks are classified at plan-build time (detail::classify_sddmm_block)
// and replay dispatches on the recorded SddmmKernelId: fused_single drops
// the plane cross-product loops for the dominant p == q == 1 full-block
// case and applies the combined weight once per slot; tail (valid < 16)
// and generic share the bounded body.

struct SddmmPanelScratch {
  std::vector<std::int32_t> a_panel;  // [p][v][K] decoded LHS rows
  std::vector<std::int32_t> b_col;    // [q][K] decoded RHS column
};

SddmmPanelScratch& sddmm_panel_scratch() {
  thread_local SddmmPanelScratch scratch;
  return scratch;
}

void panel_block(std::size_t blk, const DenseOperand& a,
                 const DenseOperand& b, const SddmmPlan& plan,
                 std::vector<std::int32_t>& c_values) {
  const Geom& g = plan.geom;
  const std::size_t r = plan.map.row[blk];
  const std::size_t slot_base = plan.map.slot_base[blk];
  const std::uint32_t valid = plan.map.valid[blk];
  const std::size_t v = static_cast<std::size_t>(g.v);
  const std::size_t k = g.k;
  const std::size_t row_bytes = k * static_cast<std::size_t>(g.chunk) / 8;
  const bool int4 = g.int4path;
  const auto id = static_cast<SddmmKernelId>(plan.block_kernel[blk]);

  SddmmPanelScratch& s = sddmm_panel_scratch();
  s.a_panel.resize(static_cast<std::size_t>(g.p) * v * k);
  s.b_col.resize(static_cast<std::size_t>(g.q) * k);

  for (int pl = 0; pl < g.p; ++pl) {
    const auto& plane = a.planes[static_cast<std::size_t>(pl)];
    const std::uint8_t* base = plane.values.data() + r * v * row_bytes;
    for (std::size_t row = 0; row < v; ++row) {
      std::int32_t* dst =
          s.a_panel.data() + (static_cast<std::size_t>(pl) * v + row) * k;
      const std::uint8_t* bytes = base + plan.a_panel_row_base[row];
      if (int4) {
        simt::decode_span_int4(bytes, k, plane.is_signed, dst);
      } else {
        simt::decode_span_int8(bytes, k, plane.is_signed, dst);
      }
    }
  }

  if (id == SddmmKernelId::fused_single) {
    // Single LHS/RHS plane, full block: no plane cross product, combined
    // weight applied once per slot. Same int64 weighted sum truncated to
    // int32 as the generic body with p == q == 1 — bit-exact mod 2^32.
    const auto& aplane = a.planes[0];
    const auto& bplane = b.planes[0];
    const std::int64_t w = aplane.weight * bplane.weight;
    for (std::uint32_t slot = 0; slot < valid; ++slot) {
      const std::size_t vec = slot_base + slot;
      const std::uint8_t* bytes = bplane.values.data() + plan.rhs_col_base[vec];
      if (int4) {
        simt::decode_span_int4(bytes, k, bplane.is_signed, s.b_col.data());
      } else {
        simt::decode_span_int8(bytes, k, bplane.is_signed, s.b_col.data());
      }
      for (std::size_t row = 0; row < v; ++row) {
        const std::int32_t part =
            simt::dot_wrap(s.a_panel.data() + row * k, s.b_col.data(), k, 0);
        c_values[vec * v + row] = static_cast<std::int32_t>(w * part);
      }
    }
    return;
  }

  for (std::uint32_t slot = 0; slot < valid; ++slot) {
    const std::size_t vec = slot_base + slot;
    for (int qq = 0; qq < g.q; ++qq) {
      const auto& plane = b.planes[static_cast<std::size_t>(qq)];
      std::int32_t* dst = s.b_col.data() + static_cast<std::size_t>(qq) * k;
      const std::uint8_t* bytes = plane.values.data() + plan.rhs_col_base[vec];
      if (int4) {
        simt::decode_span_int4(bytes, k, plane.is_signed, dst);
      } else {
        simt::decode_span_int8(bytes, k, plane.is_signed, dst);
      }
    }
    for (std::size_t row = 0; row < v; ++row) {
      std::int64_t total = 0;
      for (int pl = 0; pl < g.p; ++pl) {
        const std::int32_t* arow =
            s.a_panel.data() + (static_cast<std::size_t>(pl) * v + row) * k;
        const std::int64_t wa = a.planes[static_cast<std::size_t>(pl)].weight;
        for (int qq = 0; qq < g.q; ++qq) {
          const std::int32_t part = simt::dot_wrap(
              arow, s.b_col.data() + static_cast<std::size_t>(qq) * k, k, 0);
          total += wa * b.planes[static_cast<std::size_t>(qq)].weight * part;
        }
      }
      c_values[vec * v + row] = static_cast<std::int32_t>(total);
    }
  }
}

void validate_sddmm_inputs(const DenseOperand& a, const DenseOperand& b,
                           const sparse::BlockPattern& pattern,
                           const SddmmConfig& cfg) {
  pattern.validate();
  MAGICUBE_CHECK(a.row_major && !b.row_major);
  MAGICUBE_CHECK(a.cols == b.rows);
  MAGICUBE_CHECK(a.rows == pattern.rows && b.cols == pattern.cols);
  // Alignment needed for the closed-form sector counts (segments never
  // straddle a 32-byte sector): K % 32 on the int8 path, K % 64 on int4.
  MAGICUBE_CHECK_MSG(
      a.cols % (stride_for(cfg.precision) == 32 ? 64 : 32) == 0,
      "K alignment requirement violated");
}

SddmmResult make_result_shell(const sparse::BlockPattern& pattern, int v) {
  SddmmResult result;
  result.c.rows = pattern.rows;
  result.c.cols = pattern.cols;
  result.c.vector_length = pattern.vector_length;
  result.c.row_ptr = pattern.row_ptr;
  result.c.col_idx = pattern.col_idx;
  result.c.values.assign(
      pattern.vector_count() * static_cast<std::size_t>(v), 0);
  return result;
}

SddmmResult run_simulate(const DenseOperand& a, const DenseOperand& b,
                         const sparse::BlockPattern& pattern,
                         const SddmmConfig& cfg) {
  const std::size_t k = a.cols;
  Geom g = detail::make_sddmm_geom(cfg.precision,
                                   static_cast<int>(a.plane_count()),
                                   static_cast<int>(b.plane_count()),
                                   pattern.vector_length, k, cfg.prefetch);
  const detail::SddmmBlockMap map = detail::make_sddmm_block_map(pattern);

  simt::LaunchConfig launch;
  launch.grid_blocks = map.row.size();
  launch.warps_per_block = cfg.warps_per_block;
  launch.smem_bytes_per_block = g.smem_bytes;

  SddmmResult result = make_result_shell(pattern, g.v);
  BlockArgs args{&a, &b, &pattern, &g, &map, &result.c.values};
  result.run = simt::run_grid(
      launch, [&](simt::BlockContext& ctx) { run_block(ctx, args); });

  result.run.pipeline.total_steps = map.row.size() * g.steps;
  // Bucket census as build_sddmm_plan records it, so a simulated run
  // prices exactly like its replay.
  for (const std::uint32_t valid : map.valid) {
    const SddmmKernelId id = detail::classify_sddmm_block(g, valid);
    result.run.counters.sddmm_bucket_blocks[static_cast<std::size_t>(id)] +=
        1;
  }
  // LHS prefetching never hides the RHS register-load chain (see header).
  result.run.pipeline.prefetch = false;
  result.run.counters.dram_bytes = detail::sddmm_dram_bytes(g, pattern);
  result.c.validate();
  return result;
}

SddmmResult run_fast(const DenseOperand& a, const DenseOperand& b,
                     const sparse::BlockPattern& pattern,
                     const SddmmConfig& cfg, const SddmmPlan& plan) {
  const Geom& g = plan.geom;
  MAGICUBE_CHECK_MSG(g.k == a.cols && g.v == pattern.vector_length,
                     "execution plan built for a different problem shape");
  MAGICUBE_CHECK_MSG(g.p == static_cast<int>(a.plane_count()) &&
                         g.q == static_cast<int>(b.plane_count()),
                     "execution plan built for a different precision pair");
  MAGICUBE_CHECK_MSG(plan.rhs_col_base.size() == pattern.vector_count(),
                     "execution plan built for a different sparsity "
                     "pattern — plans are per pattern fingerprint");
  MAGICUBE_CHECK(g.prefetch == cfg.prefetch);
  // Exact structural validation (vector_count alone would admit a
  // different pattern of equal density): column bases slot for slot, and
  // the block map against the row pointers. O(vectors + blocks), cheap
  // next to the O(nnz * K) replay.
  const std::size_t col_bytes = g.k * static_cast<std::size_t>(g.chunk) / 8;
  for (std::size_t i = 0; i < plan.rhs_col_base.size(); ++i) {
    MAGICUBE_CHECK_MSG(
        plan.rhs_col_base[i] ==
            static_cast<std::size_t>(pattern.col_idx[i]) * col_bytes,
        "execution plan built for a different sparsity pattern — plans "
        "are per pattern fingerprint");
  }
  {
    std::size_t blk = 0;
    for (std::size_t r = 0; r < pattern.vector_rows(); ++r) {
      const std::uint32_t n_r =
          static_cast<std::uint32_t>(pattern.vectors_in_row(r));
      for (std::uint32_t base = 0; base < n_r;
           base += kSddmmSlotsPerBlock, ++blk) {
        MAGICUBE_CHECK_MSG(
            blk < plan.map.row.size() && plan.map.row[blk] == r &&
                plan.map.slot_base[blk] == pattern.row_ptr[r] + base,
            "execution plan built for a different sparsity pattern — "
            "plans are per pattern fingerprint");
      }
    }
    MAGICUBE_CHECK(blk == plan.map.row.size());
  }

  SddmmResult result = make_result_shell(pattern, g.v);
  MAGICUBE_CHECK_MSG(plan.block_kernel.size() == plan.map.row.size(),
                     "plan carries no replay buckets");
  simt::run_grid_values(plan.run.launch.grid_blocks, [&](std::size_t blk) {
    panel_block(blk, a, b, plan, result.c.values);
  });
  result.run = plan.run;
  result.c.validate();
  return result;
}

}  // namespace

SddmmResult sddmm(const DenseOperand& a, const DenseOperand& b,
                  const sparse::BlockPattern& pattern,
                  const SddmmConfig& cfg) {
  validate_sddmm_inputs(a, b, pattern, cfg);
  if (cfg.mode.value_or(default_exec_mode()) == ExecMode::fast) {
    const SddmmPlanHandle plan = build_sddmm_plan(pattern, a.cols, cfg);
    return run_fast(a, b, pattern, cfg, *plan);
  }
  return run_simulate(a, b, pattern, cfg);
}

SddmmResult sddmm(const DenseOperand& a, const DenseOperand& b,
                  const sparse::BlockPattern& pattern, const SddmmConfig& cfg,
                  const SddmmPlan& plan) {
  validate_sddmm_inputs(a, b, pattern, cfg);
  if (cfg.mode.value_or(default_exec_mode()) == ExecMode::simulate) {
    return run_simulate(a, b, pattern, cfg);
  }
  return run_fast(a, b, pattern, cfg, plan);
}

simt::KernelRun sddmm_estimate(const sparse::BlockPattern& pattern,
                               std::size_t k_depth, const SddmmConfig& cfg) {
  MAGICUBE_CHECK(k_depth % (stride_for(cfg.precision) == 32 ? 64 : 32) == 0);
  const int p_planes = quant::plane_count(
      cfg.precision.lhs, bits_of(cfg.precision.rhs) <= 4 ? 4 : 8);
  const int q_planes = quant::plane_count(
      cfg.precision.rhs, bits_of(cfg.precision.rhs) <= 4 ? 4 : 8);
  Geom g = detail::make_sddmm_geom(cfg.precision, p_planes, q_planes,
                                   pattern.vector_length, k_depth,
                                   cfg.prefetch);

  simt::KernelRun run;
  run.launch.warps_per_block = cfg.warps_per_block;
  run.launch.smem_bytes_per_block = g.smem_bytes;
  run.pipeline.prefetch = false;

  std::uint64_t blocks = 0;
  for (std::size_t r = 0; r < pattern.vector_rows(); ++r) {
    const std::uint64_t n_r = pattern.vectors_in_row(r);
    for (std::uint64_t base = 0; base < n_r; base += kSddmmSlotsPerBlock) {
      const std::uint64_t valid =
          std::min<std::uint64_t>(kSddmmSlotsPerBlock, n_r - base);
      run.counters += detail::sddmm_block_counters(
          g, pattern.row_ptr[r] + base, valid);
      // Bucket counters must mirror build_sddmm_plan exactly: the SLA layer
      // asserts analytic-estimate pricing equals cached-plan pricing.
      const SddmmKernelId id = detail::classify_sddmm_block(g, valid);
      run.counters.sddmm_bucket_blocks[static_cast<std::size_t>(id)] += 1;
      blocks += 1;
    }
  }
  run.launch.grid_blocks = blocks;
  run.pipeline.total_steps = blocks * g.steps;
  run.counters.dram_bytes = detail::sddmm_dram_bytes(g, pattern);
  return run;
}

std::uint64_t sddmm_useful_ops(const sparse::BlockPattern& pattern,
                               std::size_t k_depth) {
  return 2ull * pattern.nnz() * k_depth;
}

SddmmResult sddmm(const DenseOperandHandle& a, const DenseOperandHandle& b,
                  const sparse::BlockPattern& pattern,
                  const SddmmConfig& cfg) {
  MAGICUBE_CHECK_MSG(a && b, "sddmm handles must be non-null");
  return sddmm(*a, *b, pattern, cfg);
}

SddmmResult sddmm(const DenseOperandHandle& a, const DenseOperandHandle& b,
                  const sparse::BlockPattern& pattern, const SddmmConfig& cfg,
                  const SddmmPlanHandle& plan) {
  MAGICUBE_CHECK_MSG(a && b, "sddmm handles must be non-null");
  MAGICUBE_CHECK_MSG(plan != nullptr, "sddmm plan handle must be non-null");
  return sddmm(*a, *b, pattern, cfg, *plan);
}

}  // namespace magicube::core
