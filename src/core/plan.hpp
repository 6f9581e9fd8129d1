#pragma once
// Plan-once/run-many execution engine: the split of *counting* from
// *computing*.
//
// Every core::spmm / core::sddmm call used to re-derive the tile geometry,
// rebuild the data-independent lane address schedules, allocate per-block
// scratch (accumulators, column sums, a fresh SharedMemory image) and
// simulate all 32 lanes with per-instruction transaction counting. But the
// schedules and the hardware-event counts depend only on the kernel
// geometry and the SR-BCRS *structure* — never on operand values — so they
// can be computed once per (sparsity pattern, kernel config) and replayed
// against any number of value sets. This mirrors the paper's own design
// separation (the SR-BCRS layout and Fig. 4/Fig. 10 maps are fixed by the
// structure) and the tile-schedule precomputation of cuTeSpMM/FlashSparse.
//
// An execution plan captures exactly the data-independent half:
//   * the panel schedules — per plane group, the LHS plane and tile row
//     behind each mma A row (Fig. 10b stacking baked in), the B-panel k
//     order of a stride tile, and per-slot RHS row byte bases (the SR-BCRS
//     column indices resolved once);
//   * the replay bucket of every unit of work, classified at build time;
//   * the full simt::KernelRun (launch shape, pipeline shape and
//     KernelCounters including compulsory DRAM traffic), computed
//     analytically from the structure.
//
// ExecMode::fast (the default) replays the schedules with the block-panel
// engine: operand plane groups are decoded once per stride tile into
// thread-local panel arenas and multiplied by the bucket's vectorizable
// simt panel micro-kernel. Outputs are bit-exact with the lane-accurate
// simulation and the analytic counters match the simulated counts exactly
// (asserted per precision pair x variant by tests/test_plan.cpp).
// ExecMode::simulate keeps the original instruction-level path as the
// reference and counter validator.
//
// The serving engine caches plans in serve::OperandCache next to the
// prepared operands (plan bytes charged to the same LRU budget), so
// repeated-pattern traffic skips planning entirely.

#include <array>
#include <cstdint>
#include <limits>
#include <memory>
#include <vector>

#include "core/marshal.hpp"
#include "core/operands.hpp"
#include "simt/cost_model.hpp"

namespace magicube::core {

struct SpmmConfig;
struct SddmmConfig;

/// How a kernel entry point executes.
enum class ExecMode : std::uint8_t {
  simulate,  // lane-accurate simulation, counting every event as it runs
  fast,      // value-only replay of an execution plan; counters analytic
};

const char* to_string(ExecMode m);

/// Process-wide default used when a config leaves `mode` unset. Initialized
/// from the MAGICUBE_EXEC_MODE environment variable ("simulate" or "fast")
/// on first use; fast otherwise. set_default_exec_mode overrides at runtime
/// (the sanitizer CI lanes pin simulate this way without code changes).
ExecMode default_exec_mode();
void set_default_exec_mode(ExecMode m);

/// Replay micro-kernel bucket of one SpMM block row, classified at
/// plan-build time from the row's (shape, precision, v-stack depth,
/// column-panel width) and recorded in SpmmPlan::row_kernel. The panel
/// replay engine dispatches each row to its bucket's specialized kernel;
/// every bucket is bit-exact mod 2^32 with the generic path (asserted by
/// tests/test_tensor_core_panel.cpp and tests/test_plan.cpp).
enum class PanelKernelId : std::uint8_t {
  generic = 0,  // runtime-width mma_panel (bsn != 64)
  fixed64 = 1,  // compile-time 64-wide panels, full stacked plane groups
  stacked = 2,  // 64-wide with a partial last stacked group (row-limited)
  fused = 3,    // single group x single RHS plane: fused decode+mma
  empty = 4,    // structurally empty row — no reduction steps at all
};

const char* to_string(PanelKernelId id);

/// Replay micro-kernel bucket of one SDDMM thread block (recorded per
/// block in SddmmPlan::block_kernel).
enum class SddmmKernelId : std::uint8_t {
  generic = 0,       // full plane cross product over a full block
  fused_single = 1,  // p == q == 1, full block: one dot per slot, weight 1
  tail = 2,          // partial block (valid < 16 slots)
};

const char* to_string(SddmmKernelId id);

inline constexpr int kPanelKernelIds = 5;
inline constexpr int kSddmmKernelIds = 3;
// counters.hpp fixes the bucket-counter array widths without seeing these
// enums (the simt layer sits below the plan layer); keep them in lock step.
static_assert(kPanelKernelIds == simt::kSpmmBucketKinds,
              "PanelKernelId out of sync with simt::kSpmmBucketKinds");
static_assert(kSddmmKernelIds == simt::kSddmmBucketKinds,
              "SddmmKernelId out of sync with simt::kSddmmBucketKinds");

namespace detail {

/// SpMM geometry shared by the functional kernel, the panel replay and
/// the analytic estimator (formerly private to spmm.cpp).
struct SpmmGeom {
  // Datapath.
  int stride = 16;       // mma k = SR-BCRS stride
  int chunk = 8;         // plane width (bits)
  int epw = 4;           // elements per 32-bit word
  int row_words = 16;    // words per RHS tile row (bsn * chunk / 32)
  int phases = 4;        // RHS fragment words per thread
  int rows_per_frag = 4; // consecutive k rows per fragment register
  bool int4path = false;

  // Operands.
  int v = 8;             // vector length (BSm)
  int p = 1;             // LHS planes
  int q = 1;             // RHS planes
  int s = 1;             // planes stacked per mma (Fig. 10b)
  int g = 1;             // plane groups = ceil(p / s)
  bool lhs_signed = true;
  bool bias_correct = false;  // last group stacks the signed top plane

  std::size_t n = 0, k = 0, bsn = 64, col_blocks = 0;
  bool padded = true;    // conflict-free smem layout
  bool prefetch = false;
  bool shuffle = false;  // int4 index shuffling
  RhsTileLayout layout;

  // Shared-memory word map.
  std::size_t idx_base = 0, lhs_base = 0, rhs_base = 0;
  std::size_t lhs_words_per_plane = 0, smem_words = 0;

  int group_size(int grp) const {
    return grp * s + s <= p ? s : p - grp * s;
  }
  /// Whether plane `pl` is the signed top plane.
  bool is_top(int pl) const { return lhs_signed && pl == p - 1; }
};

SpmmGeom make_spmm_geom(const SparseOperand& a_meta, int q_planes,
                        std::size_t n, std::size_t k, const SpmmConfig& cfg);

/// Shared-memory bytes of one SpMM block (Algorithm 1 double-buffers the
/// LHS + indices when prefetching).
std::size_t spmm_smem_bytes(const SpmmGeom& g);

/// Closed-form counters of one SpMM thread block with `steps` accumulation
/// steps and `valid` unpadded vectors, mirroring the simulated block event
/// for event (equality asserted by the test suite).
simt::KernelCounters spmm_block_counters(const SpmmGeom& g,
                                         std::uint64_t steps,
                                         std::uint64_t valid);

/// Compulsory DRAM traffic of one SpMM invocation (operand first-touch
/// bytes; the RHS working set fits the modeled 40 MB L2).
std::uint64_t spmm_dram_bytes(const SpmmGeom& g, std::size_t slots,
                              std::uint64_t valid_vectors,
                              std::size_t vector_rows);

/// Epilogue event bundle of one SpMM block (staged writeback through a
/// swizzled smem buffer), shared by the simulated kernel and the estimator.
struct SpmmEpilogueCounts {
  std::uint64_t smem_store_req, smem_store_trans;
  std::uint64_t smem_load_req, smem_load_trans;
  std::uint64_t gmem_store_req, gmem_store_sectors;
};
SpmmEpilogueCounts spmm_epilogue_counts(const SpmmGeom& g);

/// Warp-shuffle instructions of the stacked-plane combine, per accumulator
/// register (butterfly gather: 1 partner for s=2, 3 partners for s in 3..4).
inline std::uint64_t stack_shfls(int s) {
  return s <= 1 ? 0 : (s == 2 ? 1 : 3);
}

/// SDDMM geometry (formerly private to sddmm.cpp).
struct SddmmGeom {
  int stride = 16;  // mma k
  int chunk = 8;
  int epw = 4;
  bool int4path = false;

  int v = 8;
  int p = 1;  // LHS planes
  int q = 1;  // RHS planes
  std::size_t k = 0;
  std::uint64_t steps = 0;  // k / stride
  bool prefetch = false;

  std::size_t lhs_words_per_plane = 0;
  std::size_t smem_bytes = 0;
};

SddmmGeom make_sddmm_geom(PrecisionPair pr, int p_planes, int q_planes,
                          int v, std::size_t k, bool prefetch);

inline constexpr int kSddmmSlotsPerBlock = 16;  // 8 vectors/warp x 2 warps

/// SDDMM block decomposition: one entry per thread block.
struct SddmmBlockMap {
  std::vector<std::uint32_t> row;        // block -> vector row
  std::vector<std::uint32_t> slot_base;  // block -> first pattern vector
  std::vector<std::uint32_t> valid;      // block -> valid slots (<= 16)
};
SddmmBlockMap make_sddmm_block_map(const sparse::BlockPattern& pattern);

/// Closed-form counters of one SDDMM block.
simt::KernelCounters sddmm_block_counters(const SddmmGeom& g,
                                          std::size_t slot_base,
                                          std::uint64_t valid);

std::uint64_t sddmm_dram_bytes(const SddmmGeom& g,
                               const sparse::BlockPattern& pattern);

/// Writeback event bundle of one SDDMM block holding `valid` vectors.
struct SddmmEpilogueCounts {
  std::uint64_t smem_store_req, smem_load_req, gmem_store_req,
      gmem_store_sectors;
};
SddmmEpilogueCounts sddmm_epilogue_counts(const SddmmGeom& g,
                                          std::uint64_t valid);

/// Plan-time bucket classification of one SpMM block row with `steps`
/// reduction steps — shared verbatim by the plan builder, the analytic
/// estimator (bucket counters must agree exactly for the pricing parity
/// the SLA layer asserts) and the replay dispatch.
PanelKernelId classify_spmm_row(const SpmmGeom& g, std::uint64_t steps);

/// Same for one SDDMM thread block holding `valid` pattern vectors.
SddmmKernelId classify_sddmm_block(const SddmmGeom& g, std::uint64_t valid);

}  // namespace detail

/// Sentinel in SpmmPlan::rhs_row_base for padded slots (the "*" columns).
inline constexpr std::size_t kNoRhsRow =
    std::numeric_limits<std::size_t>::max();

/// Execution plan for core::spmm on one (SR-BCRS structure, config, N)
/// triple. Immutable once built; any number of concurrent replays may
/// share one plan (the serving engine aliases cached plans exactly like
/// cached operands).
struct SpmmPlan {
  detail::SpmmGeom geom;

  /// Analytic launch + pipeline + counters (DRAM included) of one replay.
  simt::KernelRun run;

  /// Per-slot RHS row byte base (col * N * chunk / 8), kNoRhsRow for
  /// padding — the SR-BCRS column indices resolved once.
  std::vector<std::size_t> rhs_row_base;

  /// Panel replay schedule: for plane group `grp`, panel row `rr` (0..7,
  /// the mma A row with Fig. 10b plane stacking baked in) decodes LHS plane
  /// `plane`, tile row `row` (both < 0: inactive, zero row); `biased` rows
  /// bias-encode the stacked signed top plane before the unsigned decode.
  /// The RHS panel needs no schedule of its own — rhs_row_base already
  /// names each stride row's bytes, and a block's bsn columns are
  /// contiguous in the plane buffer.
  struct PanelRow {
    std::int8_t plane = -1;
    std::int8_t row = -1;
    std::uint8_t biased = 0;
  };
  std::vector<std::array<PanelRow, 8>> a_panel_src;  // [group][panel row]

  /// B-panel k schedule: natural reduction row `k` of a stride tile gathers
  /// from slot `slot_base + panel_k_slot[k]`. Identity except on the
  /// shuffled int4 format, where the column indices sit in block-of-8
  /// shuffled order while the values (and thus the A panel) stay natural —
  /// the inverse permutation the Fig. 7 register transpose applies.
  std::array<std::uint8_t, 32> panel_k_slot{};

  /// Replay kernel bucket of each block row (PanelKernelId values, indexed
  /// by vector row), classified once at build time.
  std::vector<std::uint8_t> row_kernel;

  /// Heap + inline bytes held by the plan (cache accounting).
  std::size_t footprint_bytes() const;
};

using SpmmPlanHandle = std::shared_ptr<const SpmmPlan>;

/// Builds the SpMM plan for a prepared LHS structure and RHS width. The
/// plan never references `a` afterwards; it applies to any operand pair
/// prepared from the same pattern/config (compatibility is asserted at
/// replay time).
SpmmPlanHandle build_spmm_plan(const SparseOperand& a, std::size_t n_cols,
                               const SpmmConfig& cfg);

/// Builds the SpMM plan from the sparsity pattern alone: plans are
/// value-free, so encoding just the SR-BCRS *structure* (row pointers +
/// column indices, shuffled when the config requires it) yields the exact
/// plan a prepared operand would. O(slots), no value buffers touched —
/// this is how plan-threaded layers (transformer::, the latency model)
/// plan before any weights exist.
SpmmPlanHandle build_spmm_plan(const sparse::BlockPattern& pattern,
                               std::size_t n_cols, const SpmmConfig& cfg);

/// Execution plan for core::sddmm on one (pattern, config, K) triple.
struct SddmmPlan {
  detail::SddmmGeom geom;
  simt::KernelRun run;
  detail::SddmmBlockMap map;

  /// Per-pattern-vector RHS column byte base (col * K * chunk / 8).
  std::vector<std::size_t> rhs_col_base;

  /// Panel replay schedule: byte base of LHS tile row `row` within a
  /// vector-row panel (row * K * chunk / 8, rows 0..V-1). The A panel of
  /// block row r then lives at (r * V) * a_row_bytes + a_panel_row_base[row]
  /// for the full reduction depth — the SDDMM panel kernel dots whole rows,
  /// no per-step staging.
  std::array<std::size_t, 8> a_panel_row_base{};

  /// Replay kernel bucket of each thread block (SddmmKernelId values,
  /// indexed like `map`), classified once at build time.
  std::vector<std::uint8_t> block_kernel;

  std::size_t footprint_bytes() const;
};

using SddmmPlanHandle = std::shared_ptr<const SddmmPlan>;

SddmmPlanHandle build_sddmm_plan(const sparse::BlockPattern& pattern,
                                 std::size_t k_depth, const SddmmConfig& cfg);

/// Per-stage plan handles of one fused multi-stage schedule over a single
/// sparse structure — the attention DAG's SDDMM and SpMM share the mask, so
/// one context resolves the whole schedule's plans with one identity
/// (serve::GraphRequest keys on exactly this pair plus the operand probes).
/// Both handles alias cache-resident plans; holding the pair keeps a fused
/// request's schedule coherent (either stage missing means the DAG has not
/// been planned yet).
struct StagePlanHandles {
  SddmmPlanHandle sddmm;  // stage 1: sampled QK^T
  SpmmPlanHandle spmm;    // stage 3: attention-weights x V
  explicit operator bool() const {
    return sddmm != nullptr && spmm != nullptr;
  }
  /// Aggregate plan footprint (cache accounting of the fused schedule).
  std::size_t footprint_bytes() const {
    return (sddmm ? sddmm->footprint_bytes() : 0) +
           (spmm ? spmm->footprint_bytes() : 0);
  }
};

}  // namespace magicube::core
