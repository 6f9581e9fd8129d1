#include "sparse/sr_bcrs.hpp"

#include <algorithm>
#include <limits>

namespace magicube::sparse {

std::size_t SrBcrs::valid_vectors_in_row(std::size_t r) const {
  std::size_t n = 0;
  for (std::uint32_t s = first_ptr[r]; s < end_ptr[r]; ++s) {
    if (col_idx[s] != kInvalidCol) ++n;
  }
  return n;
}

std::size_t SrBcrs::nnz() const {
  std::size_t n = 0;
  for (std::size_t r = 0; r < vector_rows(); ++r) n += valid_vectors_in_row(r);
  return n * static_cast<std::size_t>(vector_length);
}

void SrBcrs::validate() const {
  MAGICUBE_CHECK(vector_length >= 1 && vector_length <= 8);
  MAGICUBE_CHECK(stride > 0);
  MAGICUBE_CHECK(rows % static_cast<std::size_t>(vector_length) == 0);
  const std::size_t vr = vector_rows();
  MAGICUBE_CHECK(first_ptr.size() == vr && end_ptr.size() == vr);
  MAGICUBE_CHECK(values.size() ==
                 slot_count() * static_cast<std::size_t>(vector_length));
  std::uint32_t prev_end = 0;
  for (std::size_t r = 0; r < vr; ++r) {
    MAGICUBE_CHECK(first_ptr[r] == prev_end);
    MAGICUBE_CHECK(end_ptr[r] >= first_ptr[r]);
    MAGICUBE_CHECK_MSG((end_ptr[r] - first_ptr[r]) %
                               static_cast<std::uint32_t>(stride) ==
                           0,
                       "row padding must align to the stride");
    prev_end = end_ptr[r];
  }
  MAGICUBE_CHECK(prev_end == slot_count());
  // Padded slots carry zero values; valid slots carry in-range columns.
  // When shuffled, the index at stored position p pairs with the value slot
  // kShuffleOrder[p % 8] of its aligned group of 8.
  for (std::size_t r = 0; r < vr; ++r) {
    for (std::uint32_t s = first_ptr[r]; s < end_ptr[r]; ++s) {
      if (col_idx[s] != kInvalidCol) {
        MAGICUBE_CHECK(col_idx[s] < cols);
        continue;
      }
      const std::size_t vslot =
          shuffled ? (s / 8 * 8 + static_cast<std::size_t>(
                                      kShuffleOrder[s % 8]))
                   : s;
      const std::size_t group =
          (vslot - first_ptr[r]) / static_cast<std::size_t>(stride);
      const std::size_t base =
          first_ptr[r] + group * static_cast<std::size_t>(stride);
      const std::size_t off = vslot - base;
      for (int rb = 0; rb < vector_length; ++rb) {
        MAGICUBE_CHECK_MSG(
            values.get(value_index(base, off, static_cast<std::size_t>(rb))) ==
                0,
            "padding slots must hold zero values");
      }
    }
  }
}

Matrix<std::int32_t> SrBcrs::to_dense() const {
  Matrix<std::int32_t> out(rows, cols, 0);
  const std::size_t v = static_cast<std::size_t>(vector_length);
  for (std::size_t r = 0; r < vector_rows(); ++r) {
    for (std::uint32_t s = first_ptr[r]; s < end_ptr[r]; ++s) {
      if (col_idx[s] == kInvalidCol) continue;
      // Index position s pairs with value slot kShuffleOrder[s % 8] of its
      // aligned 8-group when the indices are shuffled.
      const std::size_t vslot =
          shuffled
              ? (s / 8 * 8 +
                 static_cast<std::size_t>(kShuffleOrder[s % 8]))
              : s;
      const std::size_t group =
          (vslot - first_ptr[r]) / static_cast<std::size_t>(stride);
      const std::size_t base =
          first_ptr[r] + group * static_cast<std::size_t>(stride);
      const std::size_t off = vslot - base;
      for (std::size_t rb = 0; rb < v; ++rb) {
        out(r * v + rb, col_idx[s]) = values.get(value_index(base, off, rb));
      }
    }
  }
  return out;
}

SrBcrs build_sr_bcrs(const BlockPattern& pattern,
                     const Matrix<std::int32_t>& dense, Scalar type,
                     int stride) {
  pattern.validate();
  MAGICUBE_CHECK(dense.rows() == pattern.rows && dense.cols() == pattern.cols);
  MAGICUBE_CHECK(stride > 0);

  SrBcrs out;
  out.rows = pattern.rows;
  out.cols = pattern.cols;
  out.vector_length = pattern.vector_length;
  out.stride = stride;
  const std::size_t vr = pattern.vector_rows();
  const std::size_t v = static_cast<std::size_t>(pattern.vector_length);
  const std::size_t st = static_cast<std::size_t>(stride);

  out.first_ptr.resize(vr);
  out.end_ptr.resize(vr);
  std::size_t slots = 0;
  for (std::size_t r = 0; r < vr; ++r) {
    out.first_ptr[r] = static_cast<std::uint32_t>(slots);
    const std::size_t n = pattern.vectors_in_row(r);
    slots += (n + st - 1) / st * st;
    out.end_ptr[r] = static_cast<std::uint32_t>(slots);
  }
  out.col_idx.assign(slots, kInvalidCol);
  out.values = PackedBuffer(slots * v, type);  // zero-initialized

  // Row-in-block outer: each pass reads one dense row left to right and
  // writes consecutive value slots (value_index's layout, with the byte
  // array and width hoisted out of the loop). Range is checked once, after
  // the fill.
  const int bits = bits_of(type);
  std::uint8_t* bytes = out.values.data();
  std::int32_t lo = std::numeric_limits<std::int32_t>::max();
  std::int32_t hi = std::numeric_limits<std::int32_t>::min();
  for (std::size_t r = 0; r < vr; ++r) {
    const std::size_t n = pattern.vectors_in_row(r);
    const std::uint32_t* cols = pattern.col_idx.data() + pattern.row_ptr[r];
    const std::size_t first = out.first_ptr[r];
    std::copy(cols, cols + n, out.col_idx.begin() + first);
    for (std::size_t rb = 0; rb < v; ++rb) {
      const std::int32_t* row = dense.row(r * v + rb);
      for (std::size_t j = 0; j < n; ++j) {
        const std::int32_t x = row[cols[j]];
        lo = std::min(lo, x);
        hi = std::max(hi, x);
        const std::size_t slot_base = first + j / st * st;
        PackedBuffer::store_raw(bytes, slot_base * v + rb * st + j % st, bits,
                                encode_twos_complement(x, bits));
      }
    }
  }
  check_fits(lo, hi, type);
  out.validate();
  return out;
}

SrBcrs build_sr_bcrs_random(const BlockPattern& pattern, Scalar type,
                            int stride, Rng& rng) {
  Matrix<std::int32_t> dense(pattern.rows, pattern.cols, 0);
  const Matrix<std::uint8_t> mask = pattern_to_dense_mask(pattern);
  for (std::size_t r = 0; r < pattern.rows; ++r) {
    for (std::size_t c = 0; c < pattern.cols; ++c) {
      if (mask(r, c)) {
        dense(r, c) = static_cast<std::int32_t>(
            rng.next_in(min_value(type), max_value(type)));
      }
    }
  }
  return build_sr_bcrs(pattern, dense, type, stride);
}

SrBcrs shuffle_columns(const SrBcrs& in) {
  MAGICUBE_CHECK_MSG(!in.shuffled, "matrix is already shuffled");
  MAGICUBE_CHECK_MSG(in.stride % 8 == 0,
                     "block-of-8 shuffle needs stride % 8 == 0");
  // Only the column *indices* are permuted (paper Fig. 7): the RHS rows are
  // thereby staged in shuffled order, and the int32-granularity register
  // transpose emits them back in natural k order — which is exactly the
  // order the (unpermuted) values are stored in.
  SrBcrs out = in;
  out.shuffled = true;
  for (std::size_t base = 0; base < in.slot_count(); base += 8) {
    for (std::size_t p = 0; p < 8; ++p) {
      out.col_idx[base + p] =
          in.col_idx[base + static_cast<std::size_t>(kShuffleOrder[p])];
    }
  }
  return out;
}

}  // namespace magicube::sparse
