#include "core/operands.hpp"

namespace magicube::core {

namespace {

std::vector<OperandPlane> to_operand_planes(quant::PlaneSet set) {
  std::vector<OperandPlane> out;
  out.reserve(set.planes.size());
  for (auto& plane : set.planes) {
    out.push_back({std::move(plane.values), plane.weight, plane.is_signed});
  }
  return out;
}

}  // namespace

std::size_t SparseOperand::footprint_bytes() const {
  std::size_t bytes = sizeof(SparseOperand);
  bytes += 4 * (structure.first_ptr.size() + structure.end_ptr.size() +
                structure.col_idx.size());
  bytes += structure.values.byte_size();
  for (const auto& p : planes) bytes += p.values.byte_size();
  return bytes;
}

std::size_t DenseOperand::footprint_bytes() const {
  std::size_t bytes = sizeof(DenseOperand);
  for (const auto& p : planes) bytes += p.values.byte_size();
  return bytes;
}

SparseOperand prepare_spmm_lhs(const sparse::BlockPattern& pattern,
                               const Matrix<std::int32_t>& dense_values,
                               PrecisionPair precision, bool shuffle) {
  SparseOperand out;
  out.logical_type = precision.lhs;
  const int stride = stride_for(precision);
  sparse::SrBcrs sr = sparse::build_sr_bcrs(pattern, dense_values,
                                            precision.lhs, stride);
  if (shuffle) sr = sparse::shuffle_columns(sr);
  out.planes = to_operand_planes(
      quant::decompose(sr.values, lhs_chunk_bits(precision)));
  out.structure = std::move(sr);
  return out;
}

DenseOperand prepare_dense(const Matrix<std::int32_t>& values, Scalar type,
                           bool row_major, int chunk_bits_if_emulated) {
  DenseOperand out;
  out.rows = values.rows();
  out.cols = values.cols();
  out.row_major = row_major;
  out.logical_type = type;
  quant::PlanePacker packer(type, chunk_bits_if_emulated, values.size());
  if (row_major) {
    packer.put(0, values.data(), values.size());
  } else {
    for (std::size_t c = 0; c < out.cols; ++c) {
      packer.put(c * out.rows, values.data() + c, out.rows, out.cols);
    }
  }
  out.planes = to_operand_planes(std::move(packer).finish());
  return out;
}

DenseOperand prepare_spmm_rhs(const Matrix<std::int32_t>& values,
                              PrecisionPair precision) {
  // Only L16-R16 actually decomposes; the rest are single-plane.
  return prepare_dense(values, precision.rhs, /*row_major=*/true,
                       rhs_chunk_bits(precision));
}

SparseOperandHandle prepare_spmm_lhs_shared(
    const sparse::BlockPattern& pattern,
    const Matrix<std::int32_t>& dense_values, PrecisionPair precision,
    bool shuffle) {
  return std::make_shared<const SparseOperand>(
      prepare_spmm_lhs(pattern, dense_values, precision, shuffle));
}

DenseOperandHandle prepare_dense_shared(const Matrix<std::int32_t>& values,
                                        Scalar type, bool row_major,
                                        int chunk_bits_if_emulated) {
  return std::make_shared<const DenseOperand>(
      prepare_dense(values, type, row_major, chunk_bits_if_emulated));
}

DenseOperandHandle prepare_spmm_rhs_shared(const Matrix<std::int32_t>& values,
                                           PrecisionPair precision) {
  return std::make_shared<const DenseOperand>(
      prepare_spmm_rhs(values, precision));
}

Matrix<std::int32_t> random_values(std::size_t rows, std::size_t cols,
                                   Scalar type, Rng& rng) {
  Matrix<std::int32_t> m(rows, cols);
  for (std::size_t i = 0; i < m.size(); ++i) {
    m.data()[i] =
        static_cast<std::int32_t>(rng.next_in(min_value(type), max_value(type)));
  }
  return m;
}

}  // namespace magicube::core
