#pragma once
// Algebraic decomposition of high-precision integers into mma-native planes.
//
// §IV-D of the paper: a value wider than the tensor cores support is split
// into 4- or 8-bit chunks; the matrix product is emulated as a weighted sum
// of native-precision products, C = sum_i w_i * (A_i * B). For *signed*
// integers in two's complement the top chunk must be interpreted as signed
// and every lower chunk as unsigned (e.g. int8 -19 = 0b1110'1101 splits into
// signed hi -2 and unsigned lo 13, with -2*16 + 13 = -19). Tensor-core mma
// supports signed x unsigned operand mixes, which makes this exact.

#include <cstdint>
#include <limits>
#include <vector>

#include "common/packed.hpp"
#include "common/precision.hpp"

namespace magicube::quant {

/// One native-precision plane of a decomposed operand.
struct Plane {
  PackedBuffer values;      // u4/s4/u8/s8 chunks
  std::int64_t weight = 1;  // 16^i or 256^i
  bool is_signed = false;   // only the top plane of a signed source
};

/// A decomposed operand: value(v) == sum_i weight_i * plane_i(v).
struct PlaneSet {
  std::vector<Plane> planes;
  Scalar source_type = Scalar::s16;

  std::size_t size() const {
    return planes.empty() ? 0 : planes.front().values.size();
  }
  /// Recomposes element i — the defining identity, used by property tests.
  std::int64_t recompose(std::size_t i) const {
    std::int64_t v = 0;
    for (const auto& p : planes) v += p.weight * p.values.get(i);
    return v;
  }
};

/// Number of planes needed to express `source` in `chunk_bits`-wide chunks.
constexpr int plane_count(Scalar source, int chunk_bits) {
  return (bits_of(source) + chunk_bits - 1) / chunk_bits;
}

/// Splits a scalar into chunks (chunk 0 = least significant). For signed
/// sources the top chunk is signed, all lower chunks unsigned; for unsigned
/// sources every chunk is unsigned.
void decompose_value(std::int32_t v, Scalar source, int chunk_bits,
                     std::int32_t* chunks_out);

/// The one plane-packing pass: writes each element's chunks straight into
/// its planes, chunk i being bits [i*chunk_bits, (i+1)*chunk_bits) of the
/// element's two's-complement pattern. 8-bit chunks are stored as whole
/// bytes; 4-bit chunks are ORed into the zero-initialised plane bytes, low
/// nibble first. A source that fits in one chunk keeps its own type as its
/// single plane. Values are range-checked once, by finish(), not per element.
class PlanePacker {
 public:
  /// Zero-initialised planes for `count` elements of `source`.
  PlanePacker(Scalar source, int chunk_bits, std::size_t count);

  /// Writes elements [first, first + n) of every plane from
  /// src[0], src[stride], ..., src[(n - 1) * stride]. Each element is
  /// written at most once.
  void put(std::size_t first, const std::int32_t* src, std::size_t n,
           std::size_t stride = 1);

  /// The planes, or Error if any value put was outside the source type.
  PlaneSet finish() &&;

 private:
  PlaneSet set_;
  std::int32_t lo_ = std::numeric_limits<std::int32_t>::max();
  std::int32_t hi_ = std::numeric_limits<std::int32_t>::min();
};

/// Decomposes a packed operand into planes of width `chunk_bits` (4 or 8).
/// A source that fits in one chunk comes back as a copy of itself.
PlaneSet decompose(const PackedBuffer& src, int chunk_bits);

/// Convenience: the chunk width Magicube picks when the *RHS* operand is
/// `rhs` — emulation planes must match the native mma precision of the pair,
/// i.e. 4-bit chunks when the RHS is 4-bit, else 8-bit chunks.
constexpr int emulation_chunk_bits(Scalar lhs, Scalar rhs) {
  (void)lhs;
  return bits_of(rhs) <= 4 ? 4 : 8;
}

}  // namespace magicube::quant
