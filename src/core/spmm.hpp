#pragma once
// Magicube SpMM: C[M x N] = A_sparse[M x K] * B_dense[K x N] on simulated
// tensor cores (paper §IV-B).
//
// Thread-block decomposition (Fig. 3b): each block owns one vector row of A
// (BSm = V output rows) and a BSn = 64 column tile of B/C, with two warps
// splitting the tile. Each accumulation step consumes one SR-BCRS stride
// (BSk = mma k): the LHS stride tile loads contiguously into shared memory
// (the format guarantees the fragment layout), the RHS rows named by the
// stride's column indices are staged through the padded shared-memory buffer
// of Fig. 4 and transposed in registers (Fig. 5 / Fig. 7), and each warp
// issues 4 mma per (LHS plane group x RHS plane).
//
// Emulated precisions run the plane cross product with weighted combination
// in the epilogue; when V < 8, plane groups are *stacked* into the unused
// rows of the mma (Fig. 10b) and recombined with warp shuffles.
//
// Every kernel has two entry points with identical counter semantics:
//   spmm()          — functional execution (bit-exact result + counters)
//   spmm_estimate() — analytic counters from the pattern alone (no data),
//                     used by the benchmark sweeps; equality with the
//                     executed counters is asserted by the test suite.

#include <cstdint>
#include <optional>

#include "common/matrix.hpp"
#include "core/operands.hpp"
#include "core/plan.hpp"
#include "simt/cost_model.hpp"

namespace magicube::core {

/// Optimization level, matching the ablation of Fig. 11. `full` adds the
/// int4 column-index shuffle (a no-op upgrade on the int8 datapath).
enum class SpmmVariant {
  basic,                  // unpadded smem (bank conflicts), no prefetch
  conflict_free,          // Fig. 4 padding
  conflict_free_prefetch, // + Algorithm 1 software pipeline
  full,                   // + Fig. 7 index shuffling (int4 path)
};

const char* to_string(SpmmVariant v);

struct SpmmConfig {
  PrecisionPair precision = precision::L8R8;
  SpmmVariant variant = SpmmVariant::full;
  int bsn = 64;            // RHS/C tile width per block (engines require 64)
  int warps_per_block = 2;
  /// Execution engine; unset defers to default_exec_mode() (fast unless
  /// MAGICUBE_EXEC_MODE / set_default_exec_mode says otherwise). Both modes
  /// produce bit-exact results and identical counters.
  std::optional<ExecMode> mode = std::nullopt;
};

/// Whether the LHS operand must be column-shuffled for this config.
constexpr bool needs_shuffle(const SpmmConfig& cfg) {
  return cfg.variant == SpmmVariant::full &&
         bits_of(cfg.precision.rhs) <= 4;
}

struct SpmmResult {
  Matrix<std::int32_t> c;   // M x N, int32 accumulators
  simt::KernelRun run;      // counters + geometry for the cost model
};

/// Functional execution. `a` must have been prepared with the same precision
/// pair and with shuffle == needs_shuffle(cfg); `b` row-major, rows == K,
/// cols % bsn == 0.
SpmmResult spmm(const SparseOperand& a, const DenseOperand& b,
                const SpmmConfig& cfg);

/// Shared-handle entry point: identical semantics, operands aliased rather
/// than owned (the serving engine executes many concurrent kernels over one
/// cached preparation). Handles must be non-null.
SpmmResult spmm(const SparseOperandHandle& a, const DenseOperandHandle& b,
                const SpmmConfig& cfg);

/// Plan-once/run-many entry point: replays a prebuilt ExecutionPlan when
/// the resolved mode is fast (skipping planning entirely — the serving
/// engine's hot path), and falls back to the lane-accurate simulation when
/// the resolved mode is simulate (the plan is validated but unused). The
/// plan must have been built from the same pattern/config/N; compatibility
/// is asserted.
SpmmResult spmm(const SparseOperand& a, const DenseOperand& b,
                const SpmmConfig& cfg, const SpmmPlan& plan);
SpmmResult spmm(const SparseOperandHandle& a, const DenseOperandHandle& b,
                const SpmmConfig& cfg, const SpmmPlanHandle& plan);

/// Analytic counters for the same kernel on this pattern/shape (no values).
simt::KernelRun spmm_estimate(const sparse::BlockPattern& pattern,
                              std::size_t n_cols, const SpmmConfig& cfg);

/// Useful-operation count (2 * nnz * N) used for TOP/s reporting; counts
/// work at the logical precision, as the paper's TOP/s figures do.
std::uint64_t spmm_useful_ops(const sparse::BlockPattern& pattern,
                              std::size_t n_cols);

}  // namespace magicube::core
