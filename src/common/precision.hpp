#pragma once
// Scalar precision descriptors for quantized operands.
//
// The paper's kernels operate on integer operands whose width is a multiple
// of 4 bits (§IV-D: "we only consider precision that the number of bits is a
// multiple of 4 or 8"). A precision pair Lx-Ry names an x-bit LHS matrix
// multiplied by a y-bit RHS matrix; L8-R8 and L4-R4 map to native tensor-core
// mma shapes, everything else is emulated algebraically.

#include <cstdint>
#include <string>

#include "common/check.hpp"

namespace magicube {

/// Scalar element type of a quantized matrix operand.
enum class Scalar : std::uint8_t {
  u4,
  s4,
  u8,
  s8,
  s12,  // emulated: 3 x 4-bit planes (top plane signed)
  u12,
  s16,  // emulated: 2 x 8-bit planes or 4 x 4-bit planes (top plane signed)
  u16,
  f16,  // used by the fp16 baselines, never by Magicube integer kernels
};

constexpr int bits_of(Scalar s) {
  switch (s) {
    case Scalar::u4:
    case Scalar::s4:
      return 4;
    case Scalar::u8:
    case Scalar::s8:
      return 8;
    case Scalar::s12:
    case Scalar::u12:
      return 12;
    case Scalar::s16:
    case Scalar::u16:
    case Scalar::f16:
      return 16;
  }
  return 0;
}

constexpr bool is_signed(Scalar s) {
  switch (s) {
    case Scalar::s4:
    case Scalar::s8:
    case Scalar::s12:
    case Scalar::s16:
    case Scalar::f16:
      return true;
    default:
      return false;
  }
}

constexpr bool is_integer(Scalar s) { return s != Scalar::f16; }

/// Smallest / largest representable value for an integer scalar.
constexpr std::int32_t min_value(Scalar s) {
  return is_signed(s) ? -(1 << (bits_of(s) - 1)) : 0;
}
constexpr std::int32_t max_value(Scalar s) {
  return is_signed(s) ? (1 << (bits_of(s) - 1)) - 1 : (1 << bits_of(s)) - 1;
}

inline std::string to_string(Scalar s) {
  switch (s) {
    case Scalar::u4: return "u4";
    case Scalar::s4: return "s4";
    case Scalar::u8: return "u8";
    case Scalar::s8: return "s8";
    case Scalar::s12: return "s12";
    case Scalar::u12: return "u12";
    case Scalar::s16: return "s16";
    case Scalar::u16: return "u16";
    case Scalar::f16: return "f16";
  }
  return "?";
}

/// Throws Error unless every observed value, spanning [lo, hi], fits `s`.
/// An empty observation (lo > hi) fits any type.
inline void check_fits(std::int32_t lo, std::int32_t hi, Scalar s) {
  MAGICUBE_CHECK_MSG(lo > hi || (lo >= min_value(s) && hi <= max_value(s)),
                     "operand values [" << lo << ", " << hi << "] do not fit "
                                        << to_string(s) << " [" << min_value(s)
                                        << ", " << max_value(s) << "]");
}

/// An operand-precision pair, e.g. {s16, s8} prints as "L16-R8".
struct PrecisionPair {
  Scalar lhs = Scalar::s8;
  Scalar rhs = Scalar::s8;

  friend bool operator==(const PrecisionPair&, const PrecisionPair&) = default;
};

inline std::string to_string(PrecisionPair p) {
  return "L" + std::to_string(bits_of(p.lhs)) + "-R" +
         std::to_string(bits_of(p.rhs));
}

/// True when the pair maps 1:1 onto a native tensor-core mma (no emulation).
constexpr bool is_native(PrecisionPair p) {
  const int lb = bits_of(p.lhs), rb = bits_of(p.rhs);
  return (lb == 8 && rb == 8) || (lb == 4 && rb == 4);
}

/// Named pairs used throughout the evaluation section.
namespace precision {
inline constexpr PrecisionPair L16R16{Scalar::s16, Scalar::s16};
inline constexpr PrecisionPair L16R8{Scalar::s16, Scalar::s8};
inline constexpr PrecisionPair L16R4{Scalar::s16, Scalar::s4};
inline constexpr PrecisionPair L12R4{Scalar::s12, Scalar::s4};
inline constexpr PrecisionPair L8R8{Scalar::s8, Scalar::s8};
inline constexpr PrecisionPair L8R4{Scalar::s8, Scalar::s4};
inline constexpr PrecisionPair L4R4{Scalar::s4, Scalar::s4};
}  // namespace precision

}  // namespace magicube
