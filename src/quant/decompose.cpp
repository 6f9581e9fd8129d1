#include "quant/decompose.hpp"

#include <algorithm>
#include <iterator>

namespace magicube::quant {

void decompose_value(std::int32_t v, Scalar source, int chunk_bits,
                     std::int32_t* chunks_out) {
  MAGICUBE_CHECK(chunk_bits == 4 || chunk_bits == 8);
  const int nbits = bits_of(source);
  const int n = plane_count(source, chunk_bits);
  const std::uint32_t raw = encode_twos_complement(v, nbits);
  for (int i = 0; i < n; ++i) {
    const int lo = i * chunk_bits;
    const int width = (i == n - 1) ? nbits - lo : chunk_bits;
    const std::uint32_t chunk = (raw >> lo) & ((1u << width) - 1u);
    const bool top_signed = is_signed(source) && i == n - 1;
    chunks_out[i] = top_signed ? sign_extend(chunk, width)
                               : static_cast<std::int32_t>(chunk);
  }
}

PlanePacker::PlanePacker(Scalar source, int chunk_bits, std::size_t count) {
  MAGICUBE_CHECK(chunk_bits == 4 || chunk_bits == 8);
  const int nbits = bits_of(source);
  MAGICUBE_CHECK_MSG(nbits <= chunk_bits || nbits % chunk_bits == 0,
                     "12-bit sources decompose into 4-bit chunks only");
  const int n = plane_count(source, chunk_bits);
  const Scalar u_chunk = chunk_bits == 4 ? Scalar::u4 : Scalar::u8;
  const Scalar s_chunk = chunk_bits == 4 ? Scalar::s4 : Scalar::s8;

  set_.source_type = source;
  set_.planes.resize(static_cast<std::size_t>(n));
  std::int64_t weight = 1;
  for (int i = 0; i < n; ++i, weight <<= chunk_bits) {
    Plane& p = set_.planes[static_cast<std::size_t>(i)];
    p.is_signed = is_signed(source) && i == n - 1;
    p.weight = weight;
    const Scalar type = n == 1 ? source : p.is_signed ? s_chunk : u_chunk;
    p.values = PackedBuffer(count, type);
  }
}

void PlanePacker::put(std::size_t first, const std::int32_t* src,
                      std::size_t n, std::size_t stride) {
  // Locals throughout: the byte stores below may alias any object, so
  // members would be reloaded after every one of them.
  std::int32_t lo = lo_, hi = hi_;
  for (std::size_t k = 0; k < n; ++k) {
    lo = std::min(lo, src[k * stride]);
    hi = std::max(hi, src[k * stride]);
  }
  lo_ = lo;
  hi_ = hi;
  int shift = 0;
  for (Plane& plane : set_.planes) {
    std::uint8_t* dst = plane.values.data();
    const auto chunk = [&](std::size_t k) {
      return static_cast<std::uint32_t>(src[k * stride]) >> shift;
    };
    if (bits_of(plane.values.type()) == 8) {
      for (std::size_t k = 0; k < n; ++k) {
        dst[first + k] = static_cast<std::uint8_t>(chunk(k));
      }
      shift += 8;
      continue;
    }
    // Nibbles, low first: a leading odd element fills the high half of a
    // byte, then one whole byte per pair, then a trailing low half.
    std::size_t k = 0;
    if (first % 2 == 1 && n > 0) {
      dst[first / 2] |= static_cast<std::uint8_t>((chunk(0) & 0xfu) << 4);
      k = 1;
    }
    for (; k + 1 < n; k += 2) {
      dst[(first + k) / 2] |= static_cast<std::uint8_t>(
          (chunk(k) & 0xfu) | (chunk(k + 1) & 0xfu) << 4);
    }
    if (k < n) {
      dst[(first + k) / 2] |= static_cast<std::uint8_t>(chunk(k) & 0xfu);
    }
    shift += 4;
  }
}

PlaneSet PlanePacker::finish() && {
  check_fits(lo_, hi_, set_.source_type);
  return std::move(set_);
}

PlaneSet decompose(const PackedBuffer& src, int chunk_bits) {
  MAGICUBE_CHECK(chunk_bits == 4 || chunk_bits == 8);
  if (plane_count(src.type(), chunk_bits) == 1) {
    return PlaneSet{{Plane{src, 1, is_signed(src.type())}}, src.type()};
  }
  PlanePacker packer(src.type(), chunk_bits, src.size());
  // Unpacked a block at a time, so no full-width int32 copy is made.
  const std::uint8_t* bytes = src.data();
  const int bits = bits_of(src.type());
  const bool sign = is_signed(src.type());
  std::int32_t block[256];
  for (std::size_t first = 0; first < src.size(); first += std::size(block)) {
    const std::size_t n = std::min(std::size(block), src.size() - first);
    for (std::size_t k = 0; k < n; ++k) {
      const std::uint32_t raw = PackedBuffer::load_raw(bytes, first + k, bits);
      block[k] = sign ? sign_extend(raw, bits) : static_cast<std::int32_t>(raw);
    }
    packer.put(first, block, n);
  }
  return std::move(packer).finish();
}

}  // namespace magicube::quant
