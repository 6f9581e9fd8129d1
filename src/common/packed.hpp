#pragma once
// Packed storage for sub-byte and multi-nibble integers.
//
// CUDA has no 4-bit scalar type: int4 operands live packed eight-per-int32
// in registers and memory, and the kernels in this repo manipulate them the
// same way. PackedBuffer owns a byte array and exposes get/set at a given
// bit width (4, 8, 12 or 16, matching common/precision.hpp); 4-bit elements
// are packed low-nibble-first within each byte exactly as the PTX mma
// fragment layout expects. An element never spans more than two bytes
// (16-bit elements are byte-aligned, 12-bit ones start at a nibble), so the
// accessors read or patch the 1-2 byte window that holds it.

#include <cstdint>
#include <cstring>
#include <vector>

#include "common/check.hpp"
#include "common/precision.hpp"

namespace magicube {

/// Sign-extend the low `bits` of `v` to int32.
constexpr std::int32_t sign_extend(std::uint32_t v, int bits) {
  const std::uint32_t m = 1u << (bits - 1);
  const std::uint32_t x = v & ((bits == 32) ? ~0u : ((1u << bits) - 1u));
  return static_cast<std::int32_t>((x ^ m) - m);
}

/// Encode an int32 value into the low `bits` two's-complement pattern.
constexpr std::uint32_t encode_twos_complement(std::int32_t v, int bits) {
  return static_cast<std::uint32_t>(v) &
         ((bits == 32) ? ~0u : ((1u << bits) - 1u));
}

/// A dynamically sized array of fixed-width integer elements packed
/// back-to-back in memory. Width 12 is stored as packed 12-bit fields
/// (one and a half bytes) — the format layer decides whether to keep
/// 12-bit operands packed or pre-decomposed into nibble planes.
class PackedBuffer {
 public:
  PackedBuffer() = default;
  PackedBuffer(std::size_t count, Scalar type)
      : type_(type), count_(count),
        bytes_((count * static_cast<std::size_t>(bits_of(type)) + 7) / 8, 0) {
    MAGICUBE_CHECK_MSG(is_integer(type), "PackedBuffer holds integers only");
  }

  Scalar type() const { return type_; }
  std::size_t size() const { return count_; }
  std::size_t byte_size() const { return bytes_.size(); }
  const std::uint8_t* data() const { return bytes_.data(); }
  std::uint8_t* data() { return bytes_.data(); }

  /// Raw (unsigned) bit pattern of element i.
  std::uint32_t get_raw(std::size_t i) const {
    MAGICUBE_DCHECK(i < count_);
    return load_raw(bytes_.data(), i, bits_of(type_));
  }

  /// Stores the low `bits` of `raw` as element i.
  void set_raw(std::size_t i, std::uint32_t raw) {
    MAGICUBE_DCHECK(i < count_);
    store_raw(bytes_.data(), i, bits_of(type_), raw);
  }

  // The layout over a bare byte array, for loops that hoist data() and the
  // width out of the element loop. Element i occupies bits
  // [i*bits, (i+1)*bits); the second byte of its window is touched only
  // when the element reaches into it, so the last element never reads past
  // the buffer, and a store leaves its neighbours' bits untouched.

  static std::uint32_t load_raw(const std::uint8_t* bytes, std::size_t i,
                                int bits) {
    const std::size_t bit_off = i * static_cast<std::size_t>(bits);
    const std::uint8_t* p = bytes + (bit_off >> 3);
    const int shift = static_cast<int>(bit_off & 7);
    std::uint32_t window = p[0];
    if (shift + bits > 8) window |= static_cast<std::uint32_t>(p[1]) << 8;
    return (window >> shift) & ((1u << bits) - 1u);
  }

  static void store_raw(std::uint8_t* bytes, std::size_t i, int bits,
                        std::uint32_t raw) {
    const std::size_t bit_off = i * static_cast<std::size_t>(bits);
    std::uint8_t* p = bytes + (bit_off >> 3);
    const int shift = static_cast<int>(bit_off & 7);
    const std::uint32_t mask = ((1u << bits) - 1u) << shift;
    const std::uint32_t v = (raw << shift) & mask;
    p[0] = static_cast<std::uint8_t>((p[0] & ~mask) | v);
    if (shift + bits > 8) {
      p[1] = static_cast<std::uint8_t>((p[1] & ~(mask >> 8)) | (v >> 8));
    }
  }

  /// Element i interpreted per the buffer's scalar type.
  std::int32_t get(std::size_t i) const {
    const std::uint32_t raw = get_raw(i);
    return is_signed(type_) ? sign_extend(raw, bits_of(type_))
                            : static_cast<std::int32_t>(raw);
  }

  /// Stores v (must be representable in the scalar type).
  void set(std::size_t i, std::int32_t v) {
    MAGICUBE_DCHECK(v >= min_value(type_) && v <= max_value(type_));
    set_raw(i, encode_twos_complement(v, bits_of(type_)));
  }

  friend bool operator==(const PackedBuffer& a, const PackedBuffer& b) {
    return a.type_ == b.type_ && a.count_ == b.count_ && a.bytes_ == b.bytes_;
  }

 private:
  Scalar type_ = Scalar::s8;
  std::size_t count_ = 0;
  std::vector<std::uint8_t> bytes_;
};

// ---- Nibble helpers used by the int4 register-transpose kernels ----------

/// Low nibble of a byte as unsigned [0,15].
constexpr std::uint32_t lo_nibble(std::uint8_t b) { return b & 0x0fu; }
/// High nibble of a byte as unsigned [0,15].
constexpr std::uint32_t hi_nibble(std::uint8_t b) { return (b >> 4) & 0x0fu; }

/// Packs eight 4-bit raw patterns (element 0 in the lowest nibble) into a u32,
/// mirroring how a thread's int4 mma fragment occupies one register.
constexpr std::uint32_t pack_nibbles8(const std::uint32_t (&n)[8]) {
  std::uint32_t out = 0;
  for (int i = 0; i < 8; ++i) out |= (n[i] & 0xfu) << (4 * i);
  return out;
}

/// Extracts nibble i (0 = lowest) of a u32.
constexpr std::uint32_t nibble_of(std::uint32_t word, int i) {
  return (word >> (4 * i)) & 0xfu;
}

/// Packs four bytes (element 0 lowest) into a u32 — one int8 fragment register.
constexpr std::uint32_t pack_bytes4(const std::uint32_t (&b)[4]) {
  std::uint32_t out = 0;
  for (int i = 0; i < 4; ++i) out |= (b[i] & 0xffu) << (8 * i);
  return out;
}

/// Extracts byte i (0 = lowest) of a u32.
constexpr std::uint32_t byte_of(std::uint32_t word, int i) {
  return (word >> (8 * i)) & 0xffu;
}

}  // namespace magicube
