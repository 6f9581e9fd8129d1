#include "core/plan.hpp"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <cstring>

#include "common/check.hpp"
#include "core/sddmm.hpp"
#include "core/spmm.hpp"

namespace magicube::core {

const char* to_string(ExecMode m) {
  switch (m) {
    case ExecMode::simulate: return "simulate";
    case ExecMode::fast: return "fast";
  }
  return "?";
}

namespace {

ExecMode initial_exec_mode() {
  if (const char* e = std::getenv("MAGICUBE_EXEC_MODE")) {
    if (std::strcmp(e, "simulate") == 0) return ExecMode::simulate;
    if (std::strcmp(e, "fast") == 0) return ExecMode::fast;
    MAGICUBE_CHECK_MSG(false, "MAGICUBE_EXEC_MODE must be 'simulate' or "
                              "'fast', got '" << e << "'");
  }
  return ExecMode::fast;
}

std::atomic<ExecMode>& exec_mode_slot() {
  static std::atomic<ExecMode> mode{initial_exec_mode()};
  return mode;
}

}  // namespace

ExecMode default_exec_mode() {
  return exec_mode_slot().load(std::memory_order_relaxed);
}

void set_default_exec_mode(ExecMode m) {
  exec_mode_slot().store(m, std::memory_order_relaxed);
}

const char* to_string(PanelKernelId id) {
  switch (id) {
    case PanelKernelId::generic: return "generic";
    case PanelKernelId::fixed64: return "fixed64";
    case PanelKernelId::stacked: return "stacked";
    case PanelKernelId::fused: return "fused";
    case PanelKernelId::empty: return "empty";
  }
  return "?";
}

const char* to_string(SddmmKernelId id) {
  switch (id) {
    case SddmmKernelId::generic: return "generic";
    case SddmmKernelId::fused_single: return "fused_single";
    case SddmmKernelId::tail: return "tail";
  }
  return "?";
}

namespace detail {

SpmmGeom make_spmm_geom(const SparseOperand& a_meta, int q_planes,
                        std::size_t n, std::size_t k, const SpmmConfig& cfg) {
  SpmmGeom g;
  g.int4path = stride_for(cfg.precision) == 32;
  g.stride = g.int4path ? 32 : 16;
  g.chunk = g.int4path ? 4 : 8;
  g.epw = 32 / g.chunk;
  g.row_words = static_cast<int>(cfg.bsn) * g.chunk / 32;
  g.phases = g.int4path ? 8 : 4;
  g.rows_per_frag = g.int4path ? 8 : 4;

  g.v = a_meta.structure.vector_length;
  g.p = static_cast<int>(a_meta.plane_count());
  g.q = q_planes;
  g.s = std::max(1, std::min(8 / g.v, g.p));
  g.g = (g.p + g.s - 1) / g.s;
  g.lhs_signed = is_signed(a_meta.logical_type);
  g.bias_correct = g.lhs_signed && g.group_size(g.g - 1) > 1;

  g.n = n;
  g.k = k;
  g.bsn = static_cast<std::size_t>(cfg.bsn);
  g.col_blocks = n / g.bsn;
  g.padded = cfg.variant != SpmmVariant::basic;
  g.prefetch = cfg.variant == SpmmVariant::conflict_free_prefetch ||
               cfg.variant == SpmmVariant::full;
  g.shuffle = needs_shuffle(cfg);
  g.layout = RhsTileLayout{g.stride, g.row_words, g.padded};

  // Shared memory map: [indices][LHS planes][RHS planes].
  g.idx_base = 0;
  g.lhs_base = static_cast<std::size_t>(g.stride);
  g.lhs_words_per_plane = static_cast<std::size_t>(4 * g.v);
  g.rhs_base = g.lhs_base +
               static_cast<std::size_t>(g.p) * g.lhs_words_per_plane;
  g.smem_words = g.rhs_base +
                 static_cast<std::size_t>(g.q) * g.layout.total_words();
  return g;
}

std::size_t spmm_smem_bytes(const SpmmGeom& g) {
  // Algorithm 1 double-buffers the LHS values + indices when prefetching.
  const std::size_t lhs_part =
      (static_cast<std::size_t>(g.stride) +
       static_cast<std::size_t>(g.p) * g.lhs_words_per_plane) *
      (g.prefetch ? 2 : 1);
  const std::size_t rhs_part =
      static_cast<std::size_t>(g.q) * g.layout.total_words();
  return 4 * (lhs_part + rhs_part);
}

namespace {

// ---- Closed-form per-event helpers (shared derivations) -------------------

/// Sectors of one LHS stride-tile load (16V bytes, 16V-aligned).
std::uint32_t lhs_tile_sectors(const SpmmGeom& g) {
  return static_cast<std::uint32_t>(
      (16u * static_cast<unsigned>(g.v) + 31) / 32);
}
/// Sectors of one index load (stride * 4 bytes, aligned).
std::uint32_t idx_sectors(const SpmmGeom& g) {
  return static_cast<std::uint32_t>(g.stride * 4 / 32);
}
/// Sectors of one RHS row-segment load (bsn * chunk / 8 bytes, aligned).
std::uint32_t rhs_row_sectors(const SpmmGeom& g) {
  return static_cast<std::uint32_t>(g.bsn * static_cast<std::size_t>(g.chunk) /
                                    8 / 32);
}
/// Shared-memory transactions of one RHS fragment-load phase.
std::uint32_t rhs_phase_transactions(const SpmmGeom& g) {
  // Padded layout: all 32 banks distinct (proved in marshal.hpp comment and
  // asserted by tests). Unpadded: the warp touches only 8 distinct banks
  // with 4 lanes each on both datapaths -> 4-way conflict.
  return g.padded ? 1 : 4;
}

}  // namespace

SpmmEpilogueCounts spmm_epilogue_counts(const SpmmGeom& g) {
  SpmmEpilogueCounts e{};
  // 2 warps x 4 mma x 2 accumulator registers, swizzled -> conflict-free.
  e.smem_store_req = e.smem_store_trans = 2 * 4 * 2;
  // Read back V rows of bsn int32 (bsn/32 = 2 requests per row).
  e.smem_load_req = e.smem_load_trans =
      static_cast<std::uint64_t>(g.v) * (g.bsn / 32);
  e.gmem_store_req = static_cast<std::uint64_t>(g.v) * (g.bsn / 32);
  // 32 lanes x 4B consecutive = 128B = 4 sectors per request.
  e.gmem_store_sectors = e.gmem_store_req * 4;
  return e;
}

std::uint64_t spmm_dram_bytes(const SpmmGeom& g, std::size_t slots,
                              std::uint64_t valid_vectors,
                              std::size_t vector_rows) {
  const std::uint64_t a_bytes =
      static_cast<std::uint64_t>(slots) * static_cast<std::uint64_t>(g.v) *
      static_cast<std::uint64_t>(g.chunk) / 8 * static_cast<std::uint64_t>(g.p);
  const std::uint64_t idx_bytes = static_cast<std::uint64_t>(slots) * 4;
  const std::uint64_t b_size = static_cast<std::uint64_t>(g.k) * g.n *
                               static_cast<std::uint64_t>(g.chunk) / 8 *
                               static_cast<std::uint64_t>(g.q);
  const std::uint64_t b_loaded =
      valid_vectors * static_cast<std::uint64_t>(g.q) * g.col_blocks *
      (g.bsn * static_cast<std::uint64_t>(g.chunk) / 8);
  const std::uint64_t c_bytes = static_cast<std::uint64_t>(vector_rows) *
                                static_cast<std::uint64_t>(g.v) * g.n * 4;
  return a_bytes + idx_bytes + std::min(b_size, b_loaded) + c_bytes;
}

simt::KernelCounters spmm_block_counters(const SpmmGeom& g,
                                         std::uint64_t steps,
                                         std::uint64_t valid) {
  simt::KernelCounters kc;
  const std::uint64_t p = static_cast<std::uint64_t>(g.p);
  const std::uint64_t q = static_cast<std::uint64_t>(g.q);
  const std::uint64_t grp = static_cast<std::uint64_t>(g.g);
  const std::uint64_t phases = static_cast<std::uint64_t>(g.phases);
  const std::uint64_t stride = static_cast<std::uint64_t>(g.stride);

  // RHS rows are batched 32/row_words per request (2 on int8, 4 on int4).
  const std::uint64_t rhs_reqs_per_step =
      stride / (32 / static_cast<std::uint64_t>(g.row_words));
  kc.gmem_load_requests = steps * (1 + p + rhs_reqs_per_step * q);
  kc.gmem_load_sectors = steps * (idx_sectors(g) + p * lhs_tile_sectors(g)) +
                         valid * q * rhs_row_sectors(g);
  kc.smem_store_requests = steps * (1 + p + rhs_reqs_per_step * q);
  kc.smem_store_transactions = kc.smem_store_requests;
  kc.smem_load_requests = steps * (1 + 2 * (grp + q * phases));
  kc.smem_load_transactions =
      steps * (1 + 2 * (grp + q * phases * rhs_phase_transactions(g)));

  const std::uint64_t mmas = steps * 8 * grp * q;
  (g.int4path ? kc.mma_int4 : kc.mma_int8) = mmas;

  const std::uint64_t transpose_alu =
      g.int4path ? (g.shuffle ? kInt4ShuffledAluOps : kInt4NaiveAluOps)
                 : kInt8TransposeAluOps;
  kc.alu_ops = steps * 2 * q * transpose_alu;
  if (g.bias_correct) {
    kc.alu_ops += steps * 2;                    // bias encode, per warp
    kc.alu_ops += steps * 2 * q * 4 * phases;   // column-sum updates
  }
  kc.alu_ops += 32 * p * q;                     // epilogue combine
  kc.shfl_ops = 16 * stack_shfls(g.s) * grp * q;
  kc.syncthreads = steps * (g.prefetch ? 3u : 2u) + 1;

  const SpmmEpilogueCounts e = spmm_epilogue_counts(g);
  kc.smem_store_requests += e.smem_store_req;
  kc.smem_store_transactions += e.smem_store_trans;
  kc.smem_load_requests += e.smem_load_req;
  kc.smem_load_transactions += e.smem_load_trans;
  kc.gmem_store_requests += e.gmem_store_req;
  kc.gmem_store_sectors += e.gmem_store_sectors;
  return kc;
}

SddmmGeom make_sddmm_geom(PrecisionPair pr, int p_planes, int q_planes,
                          int v, std::size_t k, bool prefetch) {
  SddmmGeom g;
  g.int4path = stride_for(pr) == 32;
  g.stride = g.int4path ? 32 : 16;
  g.chunk = g.int4path ? 4 : 8;
  g.epw = 32 / g.chunk;
  g.v = v;
  g.p = p_planes;
  g.q = q_planes;
  g.k = k;
  g.steps = k / static_cast<std::size_t>(g.stride);
  g.prefetch = prefetch;
  g.lhs_words_per_plane = static_cast<std::size_t>(4 * v);
  g.smem_bytes = 4 * static_cast<std::size_t>(g.p) * g.lhs_words_per_plane *
                 (prefetch ? 2 : 1);
  return g;
}

SddmmBlockMap make_sddmm_block_map(const sparse::BlockPattern& pattern) {
  SddmmBlockMap map;
  for (std::size_t r = 0; r < pattern.vector_rows(); ++r) {
    const std::uint32_t n_r =
        static_cast<std::uint32_t>(pattern.vectors_in_row(r));
    for (std::uint32_t base = 0; base < n_r; base += kSddmmSlotsPerBlock) {
      map.row.push_back(static_cast<std::uint32_t>(r));
      map.slot_base.push_back(pattern.row_ptr[r] + base);
      map.valid.push_back(
          std::min<std::uint32_t>(kSddmmSlotsPerBlock, n_r - base));
    }
  }
  return map;
}

SddmmEpilogueCounts sddmm_epilogue_counts(const SddmmGeom& g,
                                          std::uint64_t valid) {
  SddmmEpilogueCounts e{};
  e.smem_store_req = 2 * 2;  // 2 warps x 2 accumulator registers
  const std::uint64_t bytes = valid * static_cast<std::uint64_t>(g.v) * 4;
  e.gmem_store_req = (bytes + 127) / 128;  // 32 lanes x 4B per request
  e.smem_load_req = e.gmem_store_req;
  e.gmem_store_sectors = (bytes + 31) / 32;
  return e;
}

namespace {

/// Sectors of one SDDMM LHS tile row-segment load (V rows of 16 bytes each,
/// rows strided by K; each 16-byte segment stays inside one 32-byte sector
/// given K % 32 == 0).
std::uint32_t sddmm_lhs_tile_sectors(const SddmmGeom& g) {
  return static_cast<std::uint32_t>(g.v);
}

/// Sectors of the index read: `valid` consecutive u32 starting at an
/// arbitrary (row-pointer-determined) offset.
std::uint32_t sddmm_idx_sectors(std::size_t slot_base, std::uint64_t valid) {
  const std::size_t first = slot_base * 4 / 32;
  const std::size_t last = ((slot_base + valid) * 4 - 1) / 32;
  return static_cast<std::uint32_t>(last - first + 1);
}

}  // namespace

simt::KernelCounters sddmm_block_counters(const SddmmGeom& g,
                                          std::size_t slot_base,
                                          std::uint64_t valid) {
  simt::KernelCounters kc;
  const std::uint64_t p = static_cast<std::uint64_t>(g.p);
  const std::uint64_t q = static_cast<std::uint64_t>(g.q);
  const std::uint64_t steps = g.steps;

  // Output column indices for this block.
  kc.gmem_load_requests = 1;
  kc.gmem_load_sectors = sddmm_idx_sectors(slot_base, valid);
  // LHS tile per step per plane: gmem -> smem.
  kc.gmem_load_requests += steps * p;
  kc.gmem_load_sectors += steps * p * sddmm_lhs_tile_sectors(g);
  kc.smem_store_requests = steps * p;
  kc.smem_store_transactions = steps * p;
  // LHS fragment reads: per warp per step per plane (consecutive words).
  kc.smem_load_requests = steps * 2 * p;
  kc.smem_load_transactions = steps * 2 * p;
  // RHS register loads: per warp per step per plane; one sector per valid
  // column (16-byte column segments, disjoint sectors across columns).
  kc.gmem_load_requests += steps * 2 * q;
  kc.gmem_load_sectors += steps * q * valid;
  // mma: per warp per step, full plane cross product.
  const std::uint64_t mmas = steps * 2 * p * q;
  (g.int4path ? kc.mma_int4 : kc.mma_int8) = mmas;
  // Epilogue combine (weighted plane sum; trivial for native precisions).
  kc.alu_ops = 2 * 2 * p * q;
  kc.syncthreads = steps * (g.prefetch ? 2u : 1u) + 1;

  const SddmmEpilogueCounts e = sddmm_epilogue_counts(g, valid);
  kc.smem_store_requests += e.smem_store_req;
  kc.smem_store_transactions += e.smem_store_req;
  kc.smem_load_requests += e.smem_load_req;
  kc.smem_load_transactions += e.smem_load_req;
  kc.gmem_store_requests += e.gmem_store_req;
  kc.gmem_store_sectors += e.gmem_store_sectors;
  return kc;
}

PanelKernelId classify_spmm_row(const SpmmGeom& g, std::uint64_t steps) {
  if (steps == 0) return PanelKernelId::empty;
  // Defense in depth: plan building rejects bsn != 64 outright, but any
  // future tile width must demote to the runtime-width kernel, never the
  // fixed-width ones.
  if (g.bsn != 64) return PanelKernelId::generic;
  if (g.g == 1 && g.q == 1 && !g.bias_correct) return PanelKernelId::fused;
  if (g.s > 1 && g.group_size(g.g - 1) < g.s) return PanelKernelId::stacked;
  return PanelKernelId::fixed64;
}

SddmmKernelId classify_sddmm_block(const SddmmGeom& g, std::uint64_t valid) {
  if (valid < kSddmmSlotsPerBlock) return SddmmKernelId::tail;
  if (g.p == 1 && g.q == 1) return SddmmKernelId::fused_single;
  return SddmmKernelId::generic;
}

std::uint64_t sddmm_dram_bytes(const SddmmGeom& g,
                               const sparse::BlockPattern& pattern) {
  const std::uint64_t m = pattern.rows, n = pattern.cols;
  const std::uint64_t chunk = static_cast<std::uint64_t>(g.chunk);
  const std::uint64_t a_size =
      m * g.k * chunk / 8 * static_cast<std::uint64_t>(g.p);
  const std::uint64_t b_size =
      g.k * n * chunk / 8 * static_cast<std::uint64_t>(g.q);
  const std::uint64_t b_loaded = pattern.vector_count() * g.k * chunk / 8 *
                                 static_cast<std::uint64_t>(g.q);
  const std::uint64_t c_bytes = pattern.nnz() * 4;
  const std::uint64_t idx_bytes = pattern.vector_count() * 4;
  return a_size + std::min(b_size, b_loaded) + c_bytes + idx_bytes;
}

}  // namespace detail

// ---- Plan builders --------------------------------------------------------

std::size_t SpmmPlan::footprint_bytes() const {
  return sizeof(SpmmPlan) +
         rhs_row_base.size() * sizeof(std::size_t) +
         a_panel_src.size() * sizeof(std::array<PanelRow, 8>) +
         row_kernel.size() * sizeof(std::uint8_t);
}

SpmmPlanHandle build_spmm_plan(const SparseOperand& a, std::size_t n_cols,
                               const SpmmConfig& cfg) {
  const sparse::SrBcrs& sr = a.structure;
  MAGICUBE_CHECK_MSG(sr.stride == stride_for(cfg.precision),
                     "LHS stride does not match the precision datapath");
  MAGICUBE_CHECK_MSG(sr.shuffled == needs_shuffle(cfg),
                     "LHS shuffle state does not match the variant");
  MAGICUBE_CHECK_MSG(cfg.bsn == 64,
                     "the execution engines implement the 64-column block "
                     "tile only (2 warps x 32 output columns)");
  MAGICUBE_CHECK_MSG(n_cols % static_cast<std::size_t>(cfg.bsn) == 0,
                     "N must be a multiple of the block tile width");

  const int q_planes =
      quant::plane_count(cfg.precision.rhs, rhs_chunk_bits(cfg.precision));
  auto plan = std::make_shared<SpmmPlan>();
  detail::SpmmGeom& g = plan->geom;
  g = detail::make_spmm_geom(a, q_planes, n_cols, sr.cols, cfg);

  // Panel schedule: Fig. 10b plane stacking by tile coordinates. Panel row
  // rr = lp * V + rb decodes tile row rb of plane grp * s + lp; rows beyond
  // the group's stacked planes stay inactive (the panel kernel zeroes them
  // and the epilogue never reads their accumulators).
  plan->a_panel_src.resize(static_cast<std::size_t>(g.g));
  for (int grp = 0; grp < g.g; ++grp) {
    auto& rows = plan->a_panel_src[static_cast<std::size_t>(grp)];
    for (int rr = 0; rr < 8; ++rr) {
      const int lp = rr / g.v;
      const int pl = grp * g.s + lp;
      if (pl >= g.p || lp >= g.group_size(grp)) continue;
      rows[static_cast<std::size_t>(rr)] = {
          static_cast<std::int8_t>(pl), static_cast<std::int8_t>(rr % g.v),
          static_cast<std::uint8_t>(
              g.bias_correct && grp == g.g - 1 && g.is_top(pl) ? 1 : 0)};
    }
  }

  // B-panel k schedule: where natural reduction row k lives within the
  // stride tile's index slots (inverse block-of-8 shuffle when the indices
  // are stored shuffled).
  for (int k = 0; k < g.stride; ++k) {
    int pos = k;
    if (g.shuffle) {
      const int base = k / 8 * 8;
      for (int p = 0; p < 8; ++p) {
        if (sparse::kShuffleOrder[static_cast<std::size_t>(p)] == k % 8) {
          pos = base + p;
          break;
        }
      }
    }
    plan->panel_k_slot[static_cast<std::size_t>(k)] =
        static_cast<std::uint8_t>(pos);
  }

  // Per-slot RHS row bases: the SR-BCRS column indices resolved to byte
  // offsets once, padding marked.
  plan->rhs_row_base.resize(sr.slot_count());
  const std::size_t row_bytes =
      g.n * static_cast<std::size_t>(g.chunk) / 8;
  for (std::size_t slot = 0; slot < sr.slot_count(); ++slot) {
    const std::uint32_t col = sr.col_idx[slot];
    plan->rhs_row_base[slot] =
        col == sparse::kInvalidCol ? kNoRhsRow
                                   : static_cast<std::size_t>(col) * row_bytes;
  }

  // Analytic KernelRun: the estimate-equals-execute invariant makes this
  // exactly what the lane-accurate simulation would count.
  simt::KernelRun& run = plan->run;
  run.launch.grid_blocks = sr.vector_rows() * g.col_blocks;
  run.launch.warps_per_block = cfg.warps_per_block;
  run.launch.smem_bytes_per_block = detail::spmm_smem_bytes(g);
  run.pipeline.prefetch = g.prefetch;

  std::uint64_t total_steps = 0, valid_vectors = 0;
  plan->row_kernel.resize(sr.vector_rows());
  for (std::size_t r = 0; r < sr.vector_rows(); ++r) {
    const std::uint64_t steps = sr.strides_in_row(r);
    const std::uint64_t valid = sr.valid_vectors_in_row(r);
    total_steps += steps;
    valid_vectors += valid;
    const PanelKernelId id = detail::classify_spmm_row(g, steps);
    plan->row_kernel[r] = static_cast<std::uint8_t>(id);
    run.counters.spmm_bucket_blocks[static_cast<std::size_t>(id)] +=
        g.col_blocks;
    simt::KernelCounters kc = detail::spmm_block_counters(g, steps, valid);
    kc *= g.col_blocks;  // every column tile of this row counts identically
    run.counters += kc;
  }
  run.pipeline.total_steps = total_steps * g.col_blocks;
  run.counters.dram_bytes = detail::spmm_dram_bytes(
      g, sr.slot_count(), valid_vectors, sr.vector_rows());
  return plan;
}

SpmmPlanHandle build_spmm_plan(const sparse::BlockPattern& pattern,
                               std::size_t n_cols, const SpmmConfig& cfg) {
  pattern.validate();
  // Encode the SR-BCRS *structure* only (pointers + padded column indices,
  // shuffled when the datapath requires it): the plan never reads values,
  // so this matches build_sr_bcrs slot for slot at O(slots) with no value
  // buffer in sight.
  SparseOperand meta;
  sparse::SrBcrs& sr = meta.structure;
  sr.rows = pattern.rows;
  sr.cols = pattern.cols;
  sr.vector_length = pattern.vector_length;
  sr.stride = stride_for(cfg.precision);
  const std::size_t st = static_cast<std::size_t>(sr.stride);
  const std::size_t vr = pattern.vector_rows();
  sr.first_ptr.resize(vr);
  sr.end_ptr.resize(vr);
  std::size_t slots = 0;
  for (std::size_t r = 0; r < vr; ++r) {
    sr.first_ptr[r] = static_cast<std::uint32_t>(slots);
    slots += (pattern.vectors_in_row(r) + st - 1) / st * st;
    sr.end_ptr[r] = static_cast<std::uint32_t>(slots);
  }
  sr.col_idx.assign(slots, sparse::kInvalidCol);
  for (std::size_t r = 0; r < vr; ++r) {
    const std::size_t n = pattern.vectors_in_row(r);
    for (std::size_t j = 0; j < n; ++j) {
      sr.col_idx[sr.first_ptr[r] + j] = pattern.col_idx[pattern.row_ptr[r] + j];
    }
  }
  if (needs_shuffle(cfg)) {
    // Permutes only the column indices; the empty value buffer is carried
    // through untouched.
    sr = sparse::shuffle_columns(sr);
  }
  meta.logical_type = cfg.precision.lhs;
  meta.planes.resize(static_cast<std::size_t>(
      quant::plane_count(cfg.precision.lhs, lhs_chunk_bits(cfg.precision))));
  return build_spmm_plan(meta, n_cols, cfg);
}

std::size_t SddmmPlan::footprint_bytes() const {
  return sizeof(SddmmPlan) +
         (map.row.size() + map.slot_base.size() + map.valid.size()) *
             sizeof(std::uint32_t) +
         rhs_col_base.size() * sizeof(std::size_t) +
         block_kernel.size() * sizeof(std::uint8_t);
}

SddmmPlanHandle build_sddmm_plan(const sparse::BlockPattern& pattern,
                                 std::size_t k_depth,
                                 const SddmmConfig& cfg) {
  pattern.validate();
  MAGICUBE_CHECK_MSG(
      k_depth % (stride_for(cfg.precision) == 32 ? 64 : 32) == 0,
      "K alignment requirement violated");
  const int p_planes = quant::plane_count(
      cfg.precision.lhs, bits_of(cfg.precision.rhs) <= 4 ? 4 : 8);
  const int q_planes = quant::plane_count(
      cfg.precision.rhs, bits_of(cfg.precision.rhs) <= 4 ? 4 : 8);

  auto plan = std::make_shared<SddmmPlan>();
  detail::SddmmGeom& g = plan->geom;
  g = detail::make_sddmm_geom(cfg.precision, p_planes, q_planes,
                              pattern.vector_length, k_depth, cfg.prefetch);
  plan->map = detail::make_sddmm_block_map(pattern);

  const std::size_t col_bytes =
      g.k * static_cast<std::size_t>(g.chunk) / 8;
  plan->rhs_col_base.resize(pattern.vector_count());
  for (std::size_t i = 0; i < pattern.vector_count(); ++i) {
    plan->rhs_col_base[i] =
        static_cast<std::size_t>(pattern.col_idx[i]) * col_bytes;
  }
  // Panel schedule: LHS rows span the full reduction depth (A rows and B
  // columns are both K contiguous elements), so one byte base per tile row
  // is the whole schedule.
  for (int row = 0; row < 8; ++row) {
    plan->a_panel_row_base[static_cast<std::size_t>(row)] =
        row < g.v ? static_cast<std::size_t>(row) * col_bytes : 0;
  }

  simt::KernelRun& run = plan->run;
  run.launch.grid_blocks = plan->map.row.size();
  run.launch.warps_per_block = cfg.warps_per_block;
  run.launch.smem_bytes_per_block = g.smem_bytes;
  // LHS prefetching never hides the RHS register-load chain (sddmm.hpp).
  run.pipeline.prefetch = false;
  run.pipeline.total_steps = plan->map.row.size() * g.steps;
  plan->block_kernel.resize(plan->map.row.size());
  for (std::size_t blk = 0; blk < plan->map.row.size(); ++blk) {
    const SddmmKernelId id =
        detail::classify_sddmm_block(g, plan->map.valid[blk]);
    plan->block_kernel[blk] = static_cast<std::uint8_t>(id);
    run.counters.sddmm_bucket_blocks[static_cast<std::size_t>(id)] += 1;
    run.counters += detail::sddmm_block_counters(
        g, plan->map.slot_base[blk], plan->map.valid[blk]);
  }
  run.counters.dram_bytes = detail::sddmm_dram_bytes(g, pattern);
  return plan;
}

}  // namespace magicube::core
