#include "core/spmm.hpp"

#include <algorithm>
#include <array>

#include "core/marshal.hpp"
#include "core/plan.hpp"
#include "simt/launch.hpp"
#include "simt/memory.hpp"
#include "simt/tensor_core.hpp"

namespace magicube::core {

const char* to_string(SpmmVariant v) {
  switch (v) {
    case SpmmVariant::basic: return "basic";
    case SpmmVariant::conflict_free: return "conflict-free";
    case SpmmVariant::conflict_free_prefetch: return "conflict-free+prefetch";
    case SpmmVariant::full: return "conflict-free+prefetch+shuffle";
  }
  return "?";
}

namespace {

using simt::AccumFrag;
using simt::KernelCounters;
using simt::LaneAddrs;
using simt::LaneWords;
using simt::WarpReg;

using Geom = detail::SpmmGeom;
using detail::stack_shfls;

int output_col(const Geom& g, int mma, int tile_col) {
  return g.int4path ? spmm_output_col_int4(mma, tile_col)
                    : spmm_output_col_int8(mma, tile_col);
}

// ---- Value helpers of the simulated path ----------------------------------
// Pure data transformations; event counting stays with the caller.

/// Register transpose of one loaded RHS phase set (Fig. 5 / Fig. 7):
/// b_regs[lane][i] = fragment register of mma i for this lane.
void transpose_b_regs(const Geom& g,
                      const std::array<std::array<std::uint32_t, 8>, 32>& loaded,
                      std::array<std::array<std::uint32_t, 4>, 32>& b_regs) {
  if (g.int4path) {
    for (int lane = 0; lane < 32; ++lane) {
      std::array<std::uint32_t, 8> in{};
      for (int i = 0; i < 8; ++i) {
        in[static_cast<std::size_t>(i)] =
            loaded[static_cast<std::size_t>(lane)][static_cast<std::size_t>(i)];
      }
      const auto out = g.shuffle ? transpose_int4_shuffled(in)
                                 : transpose_int4_naive(in);
      const int h = (lane / 4) / 4;
      for (int i = 0; i < 4; ++i) {
        b_regs[static_cast<std::size_t>(lane)][static_cast<std::size_t>(i)] =
            out[static_cast<std::size_t>(4 * h + i)];
      }
    }
  } else {
    for (int lane = 0; lane < 32; ++lane) {
      std::array<std::uint32_t, 4> in{};
      for (int i = 0; i < 4; ++i) {
        in[static_cast<std::size_t>(i)] =
            loaded[static_cast<std::size_t>(lane)][static_cast<std::size_t>(i)];
      }
      b_regs[static_cast<std::size_t>(lane)] = transpose_4x4_bytes(in);
    }
  }
}

/// Bias-correction column sums of one transposed RHS fragment set.
void update_colsum(const Geom& g,
                   const std::array<std::array<std::uint32_t, 4>, 32>& b_regs,
                   bool b_signed, int w, int qq, std::int64_t* colsum) {
  for (int lane = 0; lane < 32; ++lane) {
    for (int i = 0; i < 4; ++i) {
      const std::uint32_t reg =
          b_regs[static_cast<std::size_t>(lane)][static_cast<std::size_t>(i)];
      const int tile_col = lane / 4;
      const int local_col = output_col(g, i, tile_col);
      std::int64_t sum = 0;
      for (int e = 0; e < g.epw; ++e) {
        const std::uint32_t raw =
            (reg >> (g.chunk * e)) & ((1u << g.chunk) - 1u);
        sum += b_signed ? sign_extend(raw, g.chunk)
                        : static_cast<std::int32_t>(raw);
      }
      colsum[static_cast<std::size_t>((w * g.q + qq) * 32 + local_col)] += sum;
    }
  }
}

/// Operand signedness of the LHS fragment of group `grp` as issued to the
/// mma (stacked/biased groups run unsigned; see §IV-D).
bool lhs_group_signed(const Geom& g, const SparseOperand& a, int grp) {
  const bool stacked_bias = g.bias_correct && grp == g.g - 1;
  if (g.group_size(grp) == 1) {
    bool a_signed = a.planes[static_cast<std::size_t>(grp * g.s)].is_signed;
    if (g.is_top(grp * g.s) && stacked_bias) a_signed = false;
    return a_signed;
  }
  return false;  // raw / biased chunks
}

/// Weighted plane combine + writeback of one block's accumulators (the
/// value half of the epilogue; callers add the event counts).
void spmm_value_epilogue(const Geom& g, const SparseOperand& a,
                         const DenseOperand& b, const AccumFrag* acc,
                         const std::int64_t* colsum, std::size_t r,
                         std::size_t cb, Matrix<std::int32_t>& c) {
  const std::size_t v = static_cast<std::size_t>(g.v);
  auto acc_at = [&](int w, int grp, int qq, int mma) -> const AccumFrag& {
    return acc[static_cast<std::size_t>(((w * g.g + grp) * g.q + qq) * 4 +
                                        mma)];
  };
  for (int w = 0; w < 2; ++w) {
    for (int mma = 0; mma < 4; ++mma) {
      for (int lane = 0; lane < 32; ++lane) {
        const int row = lane / 4;
        if (row >= g.v) continue;
        const std::size_t out_row = r * v + static_cast<std::size_t>(row);
        for (int cc = 0; cc < 2; ++cc) {
          const int tile_col = 2 * (lane % 4) + cc;
          const int local_col = output_col(g, mma, tile_col);
          std::int64_t total = 0;
          for (int grp = 0; grp < g.g; ++grp) {
            for (int lp = 0; lp < g.group_size(grp); ++lp) {
              const int pl = grp * g.s + lp;
              const std::int64_t wp =
                  a.planes[static_cast<std::size_t>(pl)].weight;
              const int src_lane = (lp * g.v + row) * 4 + (lane % 4);
              for (int qq = 0; qq < g.q; ++qq) {
                const std::int64_t vq =
                    b.planes[static_cast<std::size_t>(qq)].weight;
                std::int64_t part =
                    acc_at(w, grp, qq, mma)
                        .c[static_cast<std::size_t>(src_lane)]
                        [static_cast<std::size_t>(cc)];
                if (g.bias_correct && grp == g.g - 1 && g.is_top(pl)) {
                  // Undo the excess encoding: C_top = C_raw - 2^(b-1)*colsum.
                  part -= (std::int64_t{1} << (g.chunk - 1)) *
                          colsum[static_cast<std::size_t>(
                              (w * g.q + qq) * 32 + local_col)];
                }
                total += wp * vq * part;
              }
            }
          }
          const std::size_t out_col =
              cb * g.bsn + static_cast<std::size_t>(w) * 32 +
              static_cast<std::size_t>(local_col);
          c(out_row, out_col) = static_cast<std::int32_t>(total);
        }
      }
    }
  }
}

// ---- Functional (lane-accurate) kernel ------------------------------------

struct BlockArgs {
  const SparseOperand* a;
  const DenseOperand* b;
  const Geom* g;
  Matrix<std::int32_t>* c;
};

void run_block(simt::BlockContext& ctx, const BlockArgs& args) {
  const SparseOperand& a = *args.a;
  const DenseOperand& b = *args.b;
  const Geom& g = *args.g;
  KernelCounters& kc = ctx.counters;
  const sparse::SrBcrs& sr = a.structure;

  const std::size_t r = ctx.block_id / g.col_blocks;
  const std::size_t cb = ctx.block_id % g.col_blocks;
  const std::size_t steps = sr.strides_in_row(r);
  const std::size_t stride = static_cast<std::size_t>(g.stride);
  const std::size_t v = static_cast<std::size_t>(g.v);

  // Accumulators: [warp][group][rhs plane][mma].
  std::vector<AccumFrag> acc(
      static_cast<std::size_t>(2 * g.g * g.q * 4));
  auto acc_at = [&](int w, int grp, int qq, int mma) -> AccumFrag& {
    return acc[static_cast<std::size_t>(
        ((w * g.g + grp) * g.q + qq) * 4 + mma)];
  };
  // Bias-correction column sums: [warp][rhs plane][warp-local col].
  std::vector<std::int64_t> colsum(
      g.bias_correct ? static_cast<std::size_t>(2 * g.q * 32) : 0, 0);

  for (std::size_t st = 0; st < steps; ++st) {
    const std::size_t slot_base = sr.first_ptr[r] + st * stride;

    // ---- Phase 1: column indices, global -> shared ----
    {
      LaneAddrs ga;
      ga.fill(simt::kInactiveLane);
      LaneAddrs sa;
      sa.fill(simt::kInactiveLane);
      LaneWords vals{};
      for (std::size_t l = 0; l < stride; ++l) {
        ga[l] = (slot_base + l) * 4;
        sa[l] = g.idx_base + l;
        vals[l] = sr.col_idx[slot_base + l];
      }
      simt::count_gmem_load(ga, 4, kc);
      ctx.smem.st32(sa, vals, kc);
    }

    // ---- Phase 2: LHS stride tile (all planes), global -> shared ----
    for (int pl = 0; pl < g.p; ++pl) {
      const auto& plane = a.planes[static_cast<std::size_t>(pl)];
      const std::size_t words = g.lhs_words_per_plane;
      const std::size_t byte_base =
          slot_base * v * static_cast<std::size_t>(g.chunk) / 8;
      LaneAddrs ga;
      ga.fill(simt::kInactiveLane);
      LaneAddrs sa;
      sa.fill(simt::kInactiveLane);
      LaneWords vals{};
      for (std::size_t l = 0; l < words && l < 32; ++l) {
        ga[l] = byte_base + l * 4;
        sa[l] = g.lhs_base + static_cast<std::size_t>(pl) * words + l;
        std::uint32_t w = 0;
        for (int e = 0; e < g.epw; ++e) {
          const std::size_t elem =
              slot_base * v + l * static_cast<std::size_t>(g.epw) +
              static_cast<std::size_t>(e);
          w |= plane.values.get_raw(elem) << (g.chunk * e);
        }
        vals[l] = w;
      }
      simt::count_gmem_load(ga, 4, kc);
      ctx.smem.st32(sa, vals, kc);
    }

    // ---- Phase 3: RHS rows named by the indices, global -> shared ----
    // Rows are batched so a warp-wide request fills all 32 lanes: two rows
    // per request on the int8 path (16 words each), four on int4 (8 words).
    // Padded slots store zeros without touching global memory.
    kc.smem_load_requests += 1;  // the index read that drives addressing
    kc.smem_load_transactions += 1;
    const std::size_t rows_per_req = 32 / static_cast<std::size_t>(g.row_words);
    for (int qq = 0; qq < g.q; ++qq) {
      const auto& plane = b.planes[static_cast<std::size_t>(qq)];
      for (std::size_t k0 = 0; k0 < stride; k0 += rows_per_req) {
        LaneAddrs ga;
        ga.fill(simt::kInactiveLane);
        LaneAddrs sa;
        sa.fill(simt::kInactiveLane);
        LaneWords vals{};
        for (std::size_t dk = 0; dk < rows_per_req; ++dk) {
          const std::size_t kk = k0 + dk;
          const std::uint32_t col = sr.col_idx[slot_base + kk];
          const std::size_t lane0 =
              dk * static_cast<std::size_t>(g.row_words);
          for (int l = 0; l < g.row_words; ++l) {
            sa[lane0 + static_cast<std::size_t>(l)] =
                g.rhs_base +
                static_cast<std::size_t>(qq) * g.layout.total_words() +
                g.layout.row_start_word(static_cast<int>(kk)) +
                static_cast<std::size_t>(l);
          }
          if (col == sparse::kInvalidCol) continue;
          const std::size_t byte_base =
              (static_cast<std::size_t>(col) * g.n + cb * g.bsn) *
              static_cast<std::size_t>(g.chunk) / 8;
          for (int l = 0; l < g.row_words; ++l) {
            ga[lane0 + static_cast<std::size_t>(l)] =
                byte_base + static_cast<std::size_t>(l) * 4;
            std::uint32_t w = 0;
            for (int e = 0; e < g.epw; ++e) {
              const std::size_t cidx =
                  cb * g.bsn + static_cast<std::size_t>(l * g.epw + e);
              w |= plane.values.get_raw(b.flat_index(col, cidx))
                   << (g.chunk * e);
            }
            vals[lane0 + static_cast<std::size_t>(l)] = w;
          }
        }
        simt::count_gmem_load(ga, 4, kc);
        ctx.smem.st32(sa, vals, kc);
      }
    }
    kc.syncthreads += g.prefetch ? 2 : 1;

    // ---- Phase 4: per-warp fragment loads, transpose, mma ----
    for (int w = 0; w < 2; ++w) {
      // LHS fragments, one per plane group (stacked planes share the mma).
      std::vector<WarpReg> a_frag(static_cast<std::size_t>(g.g));
      for (int grp = 0; grp < g.g; ++grp) {
        LaneAddrs sa;
        sa.fill(simt::kInactiveLane);
        for (int lane = 0; lane < 32; ++lane) {
          const int row = lane / 4;
          const int lp = row / g.v;
          const int pl = grp * g.s + lp;
          if (pl >= g.p || lp >= g.group_size(grp)) continue;
          const int rb = row % g.v;
          sa[static_cast<std::size_t>(lane)] =
              g.lhs_base +
              static_cast<std::size_t>(pl) * g.lhs_words_per_plane +
              static_cast<std::size_t>(rb) * 4 +
              static_cast<std::size_t>(lane % 4);
        }
        LaneWords words = ctx.smem.ld32(sa, kc);
        // Bias-encode the stacked signed top plane: raw ^ MSB turns the
        // two's-complement chunk into its excess-2^(b-1) representation.
        const bool biased = g.bias_correct && grp == g.g - 1;
        if (biased) {
          const std::uint32_t msb_mask =
              g.chunk == 4 ? 0x88888888u : 0x80808080u;
          for (int lane = 0; lane < 32; ++lane) {
            const int row = lane / 4;
            const int pl = grp * g.s + row / g.v;
            if (pl == g.p - 1 && sa[static_cast<std::size_t>(lane)] !=
                                     simt::kInactiveLane) {
              words[static_cast<std::size_t>(lane)] ^= msb_mask;
            }
          }
          kc.alu_ops += 1;
        }
        a_frag[static_cast<std::size_t>(grp)] = words;
      }

      // RHS fragments per plane: phased loads + register transpose.
      for (int qq = 0; qq < g.q; ++qq) {
        // Per-lane loaded words (phases of one ld32 each).
        std::array<std::array<std::uint32_t, 8>, 32> loaded{};
        for (int ph = 0; ph < g.phases; ++ph) {
          LaneAddrs sa;
          sa.fill(simt::kInactiveLane);
          for (int lane = 0; lane < 32; ++lane) {
            const int word_col = spmm_rhs_load_word(g.int4path, w, lane);
            const int k_row = spmm_rhs_load_row(g.int4path, ph, lane);
            sa[static_cast<std::size_t>(lane)] =
                g.rhs_base +
                static_cast<std::size_t>(qq) * g.layout.total_words() +
                g.layout.row_start_word(k_row) +
                static_cast<std::size_t>(word_col);
          }
          const LaneWords words = ctx.smem.ld32(sa, kc);
          for (int lane = 0; lane < 32; ++lane) {
            loaded[static_cast<std::size_t>(lane)]
                  [static_cast<std::size_t>(ph)] =
                      words[static_cast<std::size_t>(lane)];
          }
        }

        // Transpose on registers.
        std::array<std::array<std::uint32_t, 4>, 32> b_regs{};
        transpose_b_regs(g, loaded, b_regs);
        kc.alu_ops += g.int4path ? (g.shuffle ? kInt4ShuffledAluOps
                                              : kInt4NaiveAluOps)
                                 : kInt8TransposeAluOps;

        // Bias-correction column sums (signed values of this RHS plane).
        if (g.bias_correct) {
          update_colsum(g, b_regs,
                        b.planes[static_cast<std::size_t>(qq)].is_signed, w,
                        qq, colsum.data());
          kc.alu_ops += static_cast<std::uint64_t>(4 * g.phases);
        }

        // mma issues: one per (group, mma index).
        const bool b_signed =
            b.planes[static_cast<std::size_t>(qq)].is_signed;
        for (int grp = 0; grp < g.g; ++grp) {
          const bool a_signed = lhs_group_signed(g, a, grp);
          for (int mma = 0; mma < 4; ++mma) {
            WarpReg b_frag{};
            for (int lane = 0; lane < 32; ++lane) {
              b_frag[static_cast<std::size_t>(lane)] =
                  b_regs[static_cast<std::size_t>(lane)]
                        [static_cast<std::size_t>(mma)];
            }
            AccumFrag& dst = acc_at(w, grp, qq, mma);
            if (g.int4path) {
              simt::mma_m8n8k32(dst, a_frag[static_cast<std::size_t>(grp)],
                                b_frag, dst, a_signed, b_signed, kc);
            } else {
              simt::mma_m8n8k16(dst, a_frag[static_cast<std::size_t>(grp)],
                                b_frag, dst, a_signed, b_signed, kc);
            }
          }
        }
      }
    }
    kc.syncthreads += 1;
  }

  // ---- Epilogue: weighted plane combine + writeback ----
  spmm_value_epilogue(g, a, b, acc.data(), colsum.data(), r, cb, *args.c);
  // Shuffle + ALU cost of the combine (2 per warp x 8 (w, mma) pairs).
  kc.shfl_ops += 16 * stack_shfls(g.s) * static_cast<std::uint64_t>(g.g) *
                 static_cast<std::uint64_t>(g.q);
  kc.alu_ops += 32 * static_cast<std::uint64_t>(g.p) *
                static_cast<std::uint64_t>(g.q);
  // Staged writeback events (see spmm_epilogue_counts derivation).
  const detail::SpmmEpilogueCounts e = detail::spmm_epilogue_counts(g);
  kc.smem_store_requests += e.smem_store_req;
  kc.smem_store_transactions += e.smem_store_trans;
  kc.smem_load_requests += e.smem_load_req;
  kc.smem_load_transactions += e.smem_load_trans;
  kc.gmem_store_requests += e.gmem_store_req;
  kc.gmem_store_sectors += e.gmem_store_sectors;
  kc.syncthreads += 1;
}

// ---- Panel fast path: block-panel replay ----------------------------------
//
// One invocation of a panel micro-kernel per (plane group, RHS plane, step)
// covers a block's whole bsn-column tile — all 8 adjacent 8-column mma
// tiles of the block's 2 warps x 4 mma issues. Replay runs one job per
// *block row*: the row's A panels (every step x plane group) decode once
// into a per-row arena and all of the row's column blocks replay from it —
// the per-(row, cb) grid re-decoded the identical A bytes col_blocks
// times. Jobs write disjoint C rows, so the per-row grid parallelizes
// exactly like the per-block one.
//
// Each row dispatches the replay kernel its plan-time bucket named
// (SpmmPlan::row_kernel): fixed-width 64-column panels with per-group
// active-row limits for the bsn==64 buckets, a fused decode+mma for the
// dominant single-group/single-plane bucket (no B panel arena at all), the
// runtime-width generic kernel otherwise. All buckets are bit-exact mod
// 2^32 with the generic path.

struct SpmmPanelScratch {
  std::vector<std::uint32_t> acc;        // [group][q][8 rows][bsn] wrapping
  std::vector<std::int64_t> colsum;      // [q][bsn] bias-correction sums
  std::vector<std::int64_t> total;       // [bsn] epilogue combine
  std::vector<simt::DecodedFrag> a_dec;  // [step][plane group] (whole row)
  std::vector<std::int32_t> b_panel;     // [q][stride][bsn]
};

SpmmPanelScratch& spmm_panel_scratch() {
  thread_local SpmmPanelScratch scratch;
  return scratch;
}

/// Weighted plane combine + writeback over the panel accumulators — the
/// same epilogue math as spmm_value_epilogue, indexed by natural columns
/// instead of fragment lanes.
void spmm_panel_epilogue(const Geom& g, const SparseOperand& a,
                         const DenseOperand& b, const std::uint32_t* acc,
                         const std::int64_t* colsum, std::int64_t* total,
                         std::size_t r, std::size_t cb,
                         Matrix<std::int32_t>& c) {
  const std::size_t v = static_cast<std::size_t>(g.v);
  const std::size_t n = g.bsn;
  const std::int64_t bias = std::int64_t{1} << (g.chunk - 1);
  for (int rb = 0; rb < g.v; ++rb) {
    std::fill_n(total, n, std::int64_t{0});
    for (int grp = 0; grp < g.g; ++grp) {
      for (int lp = 0; lp < g.group_size(grp); ++lp) {
        const int pl = grp * g.s + lp;
        const std::int64_t wp = a.planes[static_cast<std::size_t>(pl)].weight;
        const bool top = g.bias_correct && grp == g.g - 1 && g.is_top(pl);
        for (int qq = 0; qq < g.q; ++qq) {
          const std::int64_t w =
              wp * b.planes[static_cast<std::size_t>(qq)].weight;
          const std::uint32_t* arow =
              acc + (static_cast<std::size_t>((grp * g.q + qq) * 8 + lp * g.v +
                                              rb)) *
                        n;
          if (top) {
            // Undo the excess encoding: C_top = C_raw - 2^(b-1)*colsum.
            simt::epilogue_combine_biased(
                total, arow, colsum + static_cast<std::size_t>(qq) * n, bias,
                w, n);
          } else {
            simt::epilogue_combine(total, arow, w, n);
          }
        }
      }
    }
    const std::size_t out_row = r * v + static_cast<std::size_t>(rb);
    const std::size_t out_col0 = cb * g.bsn;
    for (std::size_t col = 0; col < n; ++col) {
      c(out_row, out_col0 + col) = static_cast<std::int32_t>(total[col]);
    }
  }
}

void panel_row(std::size_t r, const SparseOperand& a, const DenseOperand& b,
               const SpmmPlan& plan, Matrix<std::int32_t>& c) {
  const Geom& g = plan.geom;
  const sparse::SrBcrs& sr = a.structure;
  const std::size_t steps = sr.strides_in_row(r);
  const std::size_t stride = static_cast<std::size_t>(g.stride);
  const std::size_t v = static_cast<std::size_t>(g.v);
  const std::size_t chunk = static_cast<std::size_t>(g.chunk);
  const std::size_t n = g.bsn;
  const bool int4 = g.int4path;

  const auto row_id = static_cast<PanelKernelId>(plan.row_kernel[r]);
  // A structurally empty row contributes nothing: C was zero-initialized,
  // and replaying zero steps through the generic path writes only zeros.
  if (row_id == PanelKernelId::empty || steps == 0) return;

  SpmmPanelScratch& s = spmm_panel_scratch();
  s.total.resize(n);
  s.a_dec.resize(steps * static_cast<std::size_t>(g.g));
  if (row_id != PanelKernelId::fused) {
    s.b_panel.resize(static_cast<std::size_t>(g.q) * stride * n);
  }

  const std::size_t tile_row_bytes = stride * chunk / 8;

  // Decode-once A arena: every step's plane-group panels decode one time
  // for the whole row (plane stacking baked into the schedule); all
  // col_blocks column tiles replay from the arena. The per-(row, cb) grid
  // re-decoded these identical bytes once per column block.
  for (std::size_t st = 0; st < steps; ++st) {
    const std::size_t lhs_byte =
        (sr.first_ptr[r] + st * stride) * v * chunk / 8;
    for (int grp = 0; grp < g.g; ++grp) {
      simt::DecodedFrag& dec =
          s.a_dec[st * static_cast<std::size_t>(g.g) +
                  static_cast<std::size_t>(grp)];
      dec.k = static_cast<int>(stride);
      const bool grp_signed = lhs_group_signed(g, a, grp);
      const auto& rows = plan.a_panel_src[static_cast<std::size_t>(grp)];
      for (int rr = 0; rr < 8; ++rr) {
        const SpmmPlan::PanelRow src = rows[static_cast<std::size_t>(rr)];
        std::int32_t* dst = dec.v[static_cast<std::size_t>(rr)].data();
        if (src.row < 0) {
          std::fill_n(dst, stride, 0);
          continue;
        }
        const std::uint8_t* bytes =
            a.planes[static_cast<std::size_t>(src.plane)].values.data() +
            lhs_byte + static_cast<std::size_t>(src.row) * tile_row_bytes;
        if (int4) {
          if (src.biased) {
            simt::decode_span_int4_biased(bytes, stride, dst);
          } else {
            simt::decode_span_int4(bytes, stride, grp_signed, dst);
          }
        } else if (src.biased) {
          simt::decode_span_int8_biased(bytes, stride, dst);
        } else {
          simt::decode_span_int8(bytes, stride, grp_signed, dst);
        }
      }
    }
  }

  // Active panel rows of each plane group form a prefix (rr = lp * V + rb
  // with lp < group_size), so the fixed-width kernels stop there instead of
  // multiplying the zero rows the generic kernel pays for.
  std::array<int, 8> active_rows{};
  for (int grp = 0; grp < g.g; ++grp) {
    active_rows[static_cast<std::size_t>(grp)] =
        std::min(8, g.group_size(grp) * g.v);
  }

  for (std::size_t cb = 0; cb < g.col_blocks; ++cb) {
    const std::size_t cb_byte = cb * n * chunk / 8;
    s.acc.assign(static_cast<std::size_t>(g.g * g.q) * 8 * n, 0);
    s.colsum.assign(
        g.bias_correct ? static_cast<std::size_t>(g.q) * n : 0, 0);

    for (std::size_t st = 0; st < steps; ++st) {
      const std::size_t slot_base = sr.first_ptr[r] + st * stride;
      const simt::DecodedFrag* a_dec =
          s.a_dec.data() + st * static_cast<std::size_t>(g.g);

      if (row_id == PanelKernelId::fused) {
        // Single group x single RHS plane, no bias correction: decode each
        // valid B row straight inside the kernel — no panel arena, no
        // column sums, padded slots skipped instead of zero-filled.
        const std::uint8_t* b_bytes = b.planes[0].values.data();
        std::array<const std::uint8_t*, 32> rows{};
        for (std::size_t k = 0; k < stride; ++k) {
          const std::size_t base =
              plan.rhs_row_base[slot_base + plan.panel_k_slot[k]];
          rows[k] = base == kNoRhsRow ? nullptr : b_bytes + base + cb_byte;
        }
        simt::fused_decode_mma_n64(s.acc.data(), a_dec[0], rows.data(),
                                   static_cast<int>(stride), int4,
                                   b.planes[0].is_signed);
        continue;
      }

      // Decode the B panels: stride x bsn per RHS plane, rows gathered by
      // the plan's resolved byte bases, columns contiguous. Padded slots
      // are zero rows (and thus contribute nothing to the column sums
      // either).
      for (int qq = 0; qq < g.q; ++qq) {
        const auto& bplane = b.planes[static_cast<std::size_t>(qq)];
        const std::uint8_t* b_bytes = bplane.values.data();
        std::int32_t* panel =
            s.b_panel.data() + static_cast<std::size_t>(qq) * stride * n;
        for (std::size_t k = 0; k < stride; ++k) {
          std::int32_t* row = panel + k * n;
          const std::size_t base =
              plan.rhs_row_base[slot_base + plan.panel_k_slot[k]];
          if (base == kNoRhsRow) {
            std::fill_n(row, n, 0);
          } else if (int4) {
            simt::decode_span_int4(b_bytes + base + cb_byte, n,
                                   bplane.is_signed, row);
          } else {
            simt::decode_span_int8(b_bytes + base + cb_byte, n,
                                   bplane.is_signed, row);
          }
        }
        if (g.bias_correct) {
          std::int64_t* cs =
              s.colsum.data() + static_cast<std::size_t>(qq) * n;
          for (std::size_t k = 0; k < stride; ++k) {
            simt::colsum_update(panel + k * n, cs, n);
          }
        }
      }

      // MAC: one panel invocation per (group, RHS plane) replaces the
      // step's 2 warps x 4 mma issues. The fixed-width buckets dispatch the
      // compile-time-64 kernel with per-group row limits; generic keeps the
      // runtime-width path.
      for (int grp = 0; grp < g.g; ++grp) {
        for (int qq = 0; qq < g.q; ++qq) {
          std::uint32_t* acc =
              s.acc.data() + static_cast<std::size_t>(grp * g.q + qq) * 8 * n;
          const std::int32_t* panel =
              s.b_panel.data() + static_cast<std::size_t>(qq) * stride * n;
          if (row_id == PanelKernelId::generic) {
            simt::mma_panel(acc, a_dec[grp], panel, static_cast<int>(n));
          } else {
            simt::mma_panel_n64(acc, a_dec[grp], panel,
                                active_rows[static_cast<std::size_t>(grp)]);
          }
        }
      }
    }

    spmm_panel_epilogue(g, a, b, s.acc.data(), s.colsum.data(),
                        s.total.data(), r, cb, c);
  }
}

void validate_spmm_inputs(const SparseOperand& a, const DenseOperand& b,
                          const SpmmConfig& cfg) {
  const sparse::SrBcrs& sr = a.structure;
  MAGICUBE_CHECK_MSG(sr.stride == stride_for(cfg.precision),
                     "LHS stride does not match the precision datapath");
  MAGICUBE_CHECK_MSG(sr.shuffled == needs_shuffle(cfg),
                     "LHS shuffle state does not match the variant");
  MAGICUBE_CHECK(b.row_major);
  MAGICUBE_CHECK_MSG(cfg.bsn == 64,
                     "the execution engines implement the 64-column block "
                     "tile only (2 warps x 32 output columns)");
  MAGICUBE_CHECK_MSG(b.cols % static_cast<std::size_t>(cfg.bsn) == 0,
                     "N must be a multiple of the block tile width");
  MAGICUBE_CHECK(b.rows == sr.cols);
}

SpmmResult run_simulate(const SparseOperand& a, const DenseOperand& b,
                        const SpmmConfig& cfg) {
  const sparse::SrBcrs& sr = a.structure;
  Geom g = detail::make_spmm_geom(a, static_cast<int>(b.plane_count()),
                                  b.cols, b.rows, cfg);

  simt::LaunchConfig launch;
  launch.grid_blocks = sr.vector_rows() * g.col_blocks;
  launch.warps_per_block = cfg.warps_per_block;
  launch.smem_bytes_per_block = detail::spmm_smem_bytes(g);

  SpmmResult result;
  result.c = Matrix<std::int32_t>(sr.rows, b.cols, 0);

  BlockArgs args{&a, &b, &g, &result.c};
  result.run = simt::run_grid(
      launch, [&](simt::BlockContext& ctx) { run_block(ctx, args); });

  // Pipeline shape, bucket census (the one build_spmm_plan records, so a
  // simulated run prices exactly like its replay) + compulsory DRAM
  // traffic.
  std::uint64_t total_steps = 0, valid_vectors = 0;
  for (std::size_t r = 0; r < sr.vector_rows(); ++r) {
    const std::uint64_t steps = sr.strides_in_row(r);
    total_steps += steps;
    valid_vectors += sr.valid_vectors_in_row(r);
    const PanelKernelId id = detail::classify_spmm_row(g, steps);
    result.run.counters.spmm_bucket_blocks[static_cast<std::size_t>(id)] +=
        g.col_blocks;
  }
  result.run.pipeline.total_steps = total_steps * g.col_blocks;
  result.run.pipeline.prefetch = g.prefetch;
  result.run.counters.dram_bytes = detail::spmm_dram_bytes(
      g, sr.slot_count(), valid_vectors, sr.vector_rows());
  return result;
}

SpmmResult run_fast(const SparseOperand& a, const DenseOperand& b,
                    const SpmmPlan& plan) {
  const Geom& g = plan.geom;
  MAGICUBE_CHECK_MSG(g.n == b.cols && g.k == b.rows,
                     "execution plan built for a different problem shape");
  MAGICUBE_CHECK_MSG(g.p == static_cast<int>(a.plane_count()) &&
                         g.q == static_cast<int>(b.plane_count()) &&
                         g.lhs_signed == is_signed(a.logical_type),
                     "execution plan built for a different precision pair");
  MAGICUBE_CHECK_MSG(plan.rhs_row_base.size() == a.structure.slot_count() &&
                         plan.run.launch.grid_blocks ==
                             a.structure.vector_rows() * g.col_blocks,
                     "execution plan built for a different sparsity "
                     "structure — plans are per pattern fingerprint");
  MAGICUBE_CHECK(g.stride == a.structure.stride &&
                 g.shuffle == a.structure.shuffled &&
                 g.v == a.structure.vector_length);
  // Exact structural validation: the plan's resolved row bases must agree
  // with the operand's column indices slot for slot (same vector count but
  // different columns would otherwise replay silently wrong). O(slots)
  // multiply-compares, negligible next to the replay itself.
  const std::size_t row_bytes = g.n * static_cast<std::size_t>(g.chunk) / 8;
  for (std::size_t slot = 0; slot < plan.rhs_row_base.size(); ++slot) {
    const std::uint32_t col = a.structure.col_idx[slot];
    const std::size_t want =
        col == sparse::kInvalidCol
            ? kNoRhsRow
            : static_cast<std::size_t>(col) * row_bytes;
    MAGICUBE_CHECK_MSG(plan.rhs_row_base[slot] == want,
                       "execution plan built for a different sparsity "
                       "structure — plans are per pattern fingerprint");
  }

  SpmmResult result;
  result.c = Matrix<std::int32_t>(a.structure.rows, b.cols, 0);
  MAGICUBE_CHECK_MSG(plan.a_panel_src.size() ==
                         static_cast<std::size_t>(g.g),
                     "plan carries no panel schedule");
  MAGICUBE_CHECK_MSG(plan.row_kernel.size() == a.structure.vector_rows(),
                     "plan carries no replay buckets");
  // One job per block row (decode-once A arena shared by the row's column
  // blocks); rows write disjoint C ranges.
  simt::run_grid_values(a.structure.vector_rows(), [&](std::size_t r) {
    panel_row(r, a, b, plan, result.c);
  });
  result.run = plan.run;
  return result;
}

}  // namespace

SpmmResult spmm(const SparseOperand& a, const DenseOperand& b,
                const SpmmConfig& cfg) {
  validate_spmm_inputs(a, b, cfg);
  if (cfg.mode.value_or(default_exec_mode()) == ExecMode::fast) {
    const SpmmPlanHandle plan = build_spmm_plan(a, b.cols, cfg);
    return run_fast(a, b, *plan);
  }
  return run_simulate(a, b, cfg);
}

SpmmResult spmm(const SparseOperand& a, const DenseOperand& b,
                const SpmmConfig& cfg, const SpmmPlan& plan) {
  validate_spmm_inputs(a, b, cfg);
  if (cfg.mode.value_or(default_exec_mode()) == ExecMode::simulate) {
    return run_simulate(a, b, cfg);
  }
  return run_fast(a, b, plan);
}

simt::KernelRun spmm_estimate(const sparse::BlockPattern& pattern,
                              std::size_t n_cols, const SpmmConfig& cfg) {
  MAGICUBE_CHECK_MSG(cfg.bsn == 64,
                     "the execution engines implement the 64-column block "
                     "tile only (2 warps x 32 output columns)");
  MAGICUBE_CHECK(n_cols % static_cast<std::size_t>(cfg.bsn) == 0);

  // Rebuild the geometry from the precision pair alone (plane counts are a
  // function of the pair; no operand data is needed).
  SparseOperand meta;
  meta.structure.vector_length = pattern.vector_length;
  meta.structure.stride = stride_for(cfg.precision);
  meta.logical_type = cfg.precision.lhs;
  const int p_planes =
      quant::plane_count(cfg.precision.lhs, lhs_chunk_bits(cfg.precision));
  meta.planes.resize(static_cast<std::size_t>(p_planes));
  const int q_planes =
      quant::plane_count(cfg.precision.rhs,
                         bits_of(cfg.precision.rhs) <= 4 ? 4 : 8);
  Geom g = detail::make_spmm_geom(meta, q_planes, n_cols, pattern.cols, cfg);

  const std::size_t stride = static_cast<std::size_t>(g.stride);
  simt::KernelRun run;
  run.launch.grid_blocks = pattern.vector_rows() * g.col_blocks;
  run.launch.warps_per_block = cfg.warps_per_block;
  run.launch.smem_bytes_per_block = detail::spmm_smem_bytes(g);
  run.pipeline.prefetch = g.prefetch;

  std::uint64_t slots = 0, valid = 0, total_steps = 0;
  for (std::size_t r = 0; r < pattern.vector_rows(); ++r) {
    const std::uint64_t n_r = pattern.vectors_in_row(r);
    const std::uint64_t steps = (n_r + stride - 1) / stride;
    slots += steps * stride;
    valid += n_r;
    total_steps += steps;
    // Bucket counters must mirror build_spmm_plan exactly: the SLA layer
    // asserts analytic-estimate pricing equals cached-plan pricing.
    const PanelKernelId id = detail::classify_spmm_row(g, steps);
    run.counters.spmm_bucket_blocks[static_cast<std::size_t>(id)] +=
        g.col_blocks;
    KernelCounters kc = detail::spmm_block_counters(g, steps, n_r);
    // Every block of this row (one per column tile) counts identically.
    kc *= g.col_blocks;
    run.counters += kc;
  }
  run.pipeline.total_steps = total_steps * g.col_blocks;
  run.counters.dram_bytes =
      detail::spmm_dram_bytes(g, slots, valid, pattern.vector_rows());
  return run;
}

std::uint64_t spmm_useful_ops(const sparse::BlockPattern& pattern,
                              std::size_t n_cols) {
  return 2ull * pattern.nnz() * n_cols;
}

SpmmResult spmm(const SparseOperandHandle& a, const DenseOperandHandle& b,
                const SpmmConfig& cfg) {
  MAGICUBE_CHECK_MSG(a && b, "spmm handles must be non-null");
  return spmm(*a, *b, cfg);
}

SpmmResult spmm(const SparseOperandHandle& a, const DenseOperandHandle& b,
                const SpmmConfig& cfg, const SpmmPlanHandle& plan) {
  MAGICUBE_CHECK_MSG(a && b, "spmm handles must be non-null");
  MAGICUBE_CHECK_MSG(plan != nullptr, "spmm plan handle must be non-null");
  return spmm(*a, *b, cfg, *plan);
}

}  // namespace magicube::core
