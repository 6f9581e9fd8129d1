#pragma once
// Kernel-ready operand containers for Magicube SpMM / SDDMM.
//
// The LHS sparse operand is an SR-BCRS structure plus one value buffer per
// *emulation plane*: native precisions (s8, s4) have a single plane, while
// emulated precisions (s16, s12, s8-over-int4) are pre-decomposed into
// mma-native chunks (§IV-D), the top chunk signed, lower chunks unsigned.
// Decomposition commutes with the SR-BCRS layout, so plane buffers share the
// structure's slot ordering (including zero padding, which decomposes to
// all-zero chunks).
//
// The RHS dense operand is row-major for SpMM (the online-transpose target)
// and column-major for SDDMM, with plane decomposition for emulated RHS.

#include <cstdint>
#include <memory>
#include <vector>

#include "common/matrix.hpp"
#include "common/packed.hpp"
#include "common/precision.hpp"
#include "quant/decompose.hpp"
#include "sparse/pattern.hpp"
#include "sparse/sr_bcrs.hpp"

namespace magicube::core {

/// Reduction dimension (= SR-BCRS stride = mma k) for a precision pair:
/// 32 when the kernel runs on the int4 datapath (4-bit RHS), else 16.
constexpr int stride_for(PrecisionPair p) {
  return bits_of(p.rhs) <= 4 ? 32 : 16;
}
/// Chunk width operand planes decompose to for this pair. BOTH slots key
/// off the RHS datapath: 4-bit chunks on the int4 path, 8-bit otherwise.
constexpr int chunk_bits(PrecisionPair p) {
  return bits_of(p.rhs) <= 4 ? 4 : 8;
}
/// Named per-slot accessors (one rule today; kept separate so call sites
/// say which operand they are preparing).
constexpr int lhs_chunk_bits(PrecisionPair p) { return chunk_bits(p); }
constexpr int rhs_chunk_bits(PrecisionPair p) { return chunk_bits(p); }

/// One operand plane: values in SR-BCRS slot order, with the algebraic
/// weight and signedness the emulation sum needs.
struct OperandPlane {
  PackedBuffer values;
  std::int64_t weight = 1;
  bool is_signed = true;
};

/// LHS sparse operand (structure + planes).
struct SparseOperand {
  // Col indices / pointers, and `values` at the full logical width (not a
  // plane: SrBcrs::validate/to_dense read it and footprint_bytes counts it).
  sparse::SrBcrs structure;
  std::vector<OperandPlane> planes;
  Scalar logical_type = Scalar::s8;

  std::size_t plane_count() const { return planes.size(); }
  /// Heap bytes held by the prepared operand (cache accounting).
  std::size_t footprint_bytes() const;
};

/// RHS dense operand for SpMM (row-major) or SDDMM (column-major).
struct DenseOperand {
  std::size_t rows = 0;
  std::size_t cols = 0;
  bool row_major = true;
  std::vector<OperandPlane> planes;  // element (r,c) at r*cols+c (row-major)
  Scalar logical_type = Scalar::s8;

  std::size_t plane_count() const { return planes.size(); }
  std::size_t flat_index(std::size_t r, std::size_t c) const {
    return row_major ? r * cols + c : c * rows + r;
  }
  /// Logical (recomposed) value at (r, c).
  std::int64_t value_at(std::size_t r, std::size_t c) const {
    std::int64_t v = 0;
    for (const auto& p : planes) v += p.weight * p.values.get(flat_index(r, c));
    return v;
  }
  /// Heap bytes held by the prepared operand (cache accounting).
  std::size_t footprint_bytes() const;
};

/// Immutable shared handles over prepared operands. Preparation (quantize →
/// SR-BCRS encode → shuffle → plane decomposition) is the expensive step the
/// serving engine amortizes: once built, an operand is never mutated, so
/// concurrent kernel executions served from the operand cache alias one
/// prepared copy safely.
using SparseOperandHandle = std::shared_ptr<const SparseOperand>;
using DenseOperandHandle = std::shared_ptr<const DenseOperand>;

/// Builds the SpMM LHS: SR-BCRS at the pair's stride, optional block-of-8
/// column shuffling (required by the int4 fast transpose), plane
/// decomposition per the pair's datapath.
SparseOperand prepare_spmm_lhs(const sparse::BlockPattern& pattern,
                               const Matrix<std::int32_t>& dense_values,
                               PrecisionPair precision, bool shuffle);

/// Builds a dense operand from integer values already in range for `type`.
DenseOperand prepare_dense(const Matrix<std::int32_t>& values, Scalar type,
                           bool row_major, int chunk_bits_if_emulated);

/// Convenience for SpMM RHS (row-major; emulated via the pair's datapath).
DenseOperand prepare_spmm_rhs(const Matrix<std::int32_t>& values,
                              PrecisionPair precision);

/// Shared-handle variants of the prepare entry points (the forms the serving
/// engine caches and schedules).
SparseOperandHandle prepare_spmm_lhs_shared(
    const sparse::BlockPattern& pattern,
    const Matrix<std::int32_t>& dense_values, PrecisionPair precision,
    bool shuffle);
DenseOperandHandle prepare_dense_shared(const Matrix<std::int32_t>& values,
                                        Scalar type, bool row_major,
                                        int chunk_bits_if_emulated);
DenseOperandHandle prepare_spmm_rhs_shared(const Matrix<std::int32_t>& values,
                                           PrecisionPair precision);

/// Random dense integer matrix covering the full range of `type`.
Matrix<std::int32_t> random_values(std::size_t rows, std::size_t cols,
                                   Scalar type, Rng& rng);

}  // namespace magicube::core
