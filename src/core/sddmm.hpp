#pragma once
// Magicube SDDMM: C_sparse[M x N] = (A_dense[M x K] * B_dense[K x N]) sampled
// on a 1-D-block pattern (paper §IV-C).
//
// Thread-block decomposition (Fig. 8b): each block owns one vector row of
// the output pattern and a group of 16 output vectors (8 per warp); each
// accumulation step consumes BSk (= mma k) columns of A / rows of B. The
// LHS A tile (V x BSk, row-major) is staged through shared memory and
// reused by both warps; the RHS columns (B is column-major) load straight
// into registers — their layout already satisfies the mma fragment, so no
// online transpose is needed (Fig. 9).
//
// Supported precisions (Table IV): L8-R8 and L4-R4 natively, L16-R16 by
// plane emulation (2x2 plane products, weighted combine in the epilogue).
//
// The `prefetch` knob double-buffers the LHS tile as Algorithm 1 does for
// SpMM. As the paper's Fig. 13 finds, it does not pay off: the dependent
// load chain each step is the *RHS register load*, which stays on the
// critical path either way, while the duplicated buffer raises the block's
// shared-memory footprint. The cost model reflects exactly that.

#include <cstdint>
#include <optional>

#include "common/matrix.hpp"
#include "core/operands.hpp"
#include "core/plan.hpp"
#include "simt/cost_model.hpp"
#include "sparse/bcrs.hpp"

namespace magicube::core {

struct SddmmConfig {
  PrecisionPair precision = precision::L8R8;
  bool prefetch = false;
  int warps_per_block = 2;
  /// Execution engine; unset defers to default_exec_mode() (fast unless
  /// MAGICUBE_EXEC_MODE / set_default_exec_mode says otherwise). Both modes
  /// produce bit-exact results and identical counters.
  std::optional<ExecMode> mode = std::nullopt;
};

struct SddmmResult {
  sparse::Bcrs<std::int32_t> c;  // sampled output, vector-major values
  simt::KernelRun run;
};

/// Functional execution. `a` row-major M x K, `b` column-major K x N (both
/// prepared with the pair's chunking); `pattern` is the output sparsity
/// (rows == M, cols == N). K must be a multiple of the pair's mma k.
SddmmResult sddmm(const DenseOperand& a, const DenseOperand& b,
                  const sparse::BlockPattern& pattern,
                  const SddmmConfig& cfg);

/// Shared-handle entry point: identical semantics, operands aliased rather
/// than owned (the serving engine executes many concurrent kernels over one
/// cached preparation). Handles must be non-null.
SddmmResult sddmm(const DenseOperandHandle& a, const DenseOperandHandle& b,
                  const sparse::BlockPattern& pattern, const SddmmConfig& cfg);

/// Plan-once/run-many entry point: replays a prebuilt ExecutionPlan when
/// the resolved mode is fast, falls back to the lane-accurate simulation
/// otherwise. The plan must match (pattern, K, config); asserted.
SddmmResult sddmm(const DenseOperand& a, const DenseOperand& b,
                  const sparse::BlockPattern& pattern, const SddmmConfig& cfg,
                  const SddmmPlan& plan);
SddmmResult sddmm(const DenseOperandHandle& a, const DenseOperandHandle& b,
                  const sparse::BlockPattern& pattern, const SddmmConfig& cfg,
                  const SddmmPlanHandle& plan);

/// Analytic counters for the same kernel (no data).
simt::KernelRun sddmm_estimate(const sparse::BlockPattern& pattern,
                               std::size_t k_depth, const SddmmConfig& cfg);

/// Useful-operation count: 2 * nnz * K.
std::uint64_t sddmm_useful_ops(const sparse::BlockPattern& pattern,
                               std::size_t k_depth);

}  // namespace magicube::core
