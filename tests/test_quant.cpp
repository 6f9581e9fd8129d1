// Tests for quantization and the signed/unsigned plane decomposition that
// mixed-precision emulation rests on (§IV-D of the paper).

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/rng.hpp"
#include "core/operands.hpp"
#include "quant/decompose.hpp"
#include "quant/quantizer.hpp"
#include "support/conformance.hpp"

namespace magicube::quant {
namespace {

TEST(Quantizer, PaperExampleSignedSplit) {
  // §IV-D2: -19 (0b11101101) splits into signed hi -2 and unsigned lo 13.
  std::int32_t chunks[2];
  decompose_value(-19, Scalar::s8, 4, chunks);
  EXPECT_EQ(chunks[0], 13);
  EXPECT_EQ(chunks[1], -2);
  EXPECT_EQ(-2 * 16 + 13, -19);
}

TEST(Quantizer, PaperExampleUnsignedSplit) {
  // §IV-D1: 237 (0b11101101) splits into hi 14, lo 13.
  std::int32_t chunks[2];
  decompose_value(237, Scalar::u8, 4, chunks);
  EXPECT_EQ(chunks[0], 13);
  EXPECT_EQ(chunks[1], 14);
  EXPECT_EQ(14 * 16 + 13, 237);
}

struct DecomposeCase {
  constexpr DecomposeCase(Scalar s, int bits) : source(s), chunk_bits(bits) {}

  Scalar source;
  // gtest prints the param's raw bytes into each test's name, so the padding
  // after `source` is spelled out and zeroed: left implicit, it carries
  // whatever the stack held and the names change from build to build.
  std::uint8_t zeroed_padding[3] = {};
  int chunk_bits;
};
static_assert(sizeof(DecomposeCase) == 8, "DecomposeCase must have no implicit padding");

class DecomposeTest : public ::testing::TestWithParam<DecomposeCase> {};

TEST_P(DecomposeTest, RecomposesEveryValue) {
  const Scalar source = GetParam().source;
  const int chunk_bits = GetParam().chunk_bits;
  const int n = plane_count(source, chunk_bits);
  std::int32_t chunks[8];
  for (std::int32_t v = min_value(source); v <= max_value(source); ++v) {
    decompose_value(v, source, chunk_bits, chunks);
    std::int64_t sum = 0;
    for (int i = 0; i < n; ++i) {
      sum += static_cast<std::int64_t>(chunks[i]) << (chunk_bits * i);
      // Lower chunks unsigned, top chunk signed iff source signed.
      if (i < n - 1 || !is_signed(source)) {
        EXPECT_GE(chunks[i], 0);
        EXPECT_LT(chunks[i], 1 << chunk_bits);
      } else {
        EXPECT_GE(chunks[i], -(1 << (chunk_bits - 1)));
        EXPECT_LT(chunks[i], 1 << (chunk_bits - 1));
      }
    }
    EXPECT_EQ(sum, v) << "source value " << v;
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllEmulatedPairs, DecomposeTest,
    ::testing::Values(DecomposeCase{Scalar::s8, 4},
                      DecomposeCase{Scalar::u8, 4},
                      DecomposeCase{Scalar::s12, 4},
                      DecomposeCase{Scalar::s16, 4},
                      DecomposeCase{Scalar::s16, 8},
                      DecomposeCase{Scalar::u16, 8}),
    [](const auto& info) {
      return to_string(info.param.source) + "_into_" +
             std::to_string(info.param.chunk_bits) + "bit";
    });

TEST(Decompose, BufferPlanesMatchScalarDecomposition) {
  Rng rng(21);
  PackedBuffer src(300, Scalar::s16);
  for (std::size_t i = 0; i < src.size(); ++i) {
    src.set(i, static_cast<std::int32_t>(rng.next_in(-32768, 32767)));
  }
  const PlaneSet planes = decompose(src, 8);
  ASSERT_EQ(planes.planes.size(), 2u);
  EXPECT_EQ(planes.planes[0].weight, 1);
  EXPECT_EQ(planes.planes[1].weight, 256);
  EXPECT_FALSE(planes.planes[0].is_signed);
  EXPECT_TRUE(planes.planes[1].is_signed);
  for (std::size_t i = 0; i < src.size(); ++i) {
    EXPECT_EQ(planes.recompose(i), src.get(i)) << i;
  }
}

TEST(Decompose, TwelveBitUsesThreeNibblePlanes) {
  PackedBuffer src(16, Scalar::s12);
  for (std::size_t i = 0; i < src.size(); ++i) {
    src.set(i, static_cast<std::int32_t>(i * 257) - 2048);
  }
  const PlaneSet planes = decompose(src, 4);
  ASSERT_EQ(planes.planes.size(), 3u);
  EXPECT_EQ(planes.planes[2].weight, 256);
  EXPECT_TRUE(planes.planes[2].is_signed);
  for (std::size_t i = 0; i < src.size(); ++i) {
    EXPECT_EQ(planes.recompose(i), src.get(i));
  }
}

TEST(Decompose, ChunkWidthSelection) {
  EXPECT_EQ(emulation_chunk_bits(Scalar::s16, Scalar::s8), 8);
  EXPECT_EQ(emulation_chunk_bits(Scalar::s16, Scalar::s4), 4);
  EXPECT_EQ(emulation_chunk_bits(Scalar::s8, Scalar::s4), 4);
}

class SymmetricQuantTest : public ::testing::TestWithParam<Scalar> {};

TEST_P(SymmetricQuantTest, ErrorBounded) {
  const Scalar type = GetParam();
  Rng rng(5);
  Matrix<float> m(32, 32);
  fill_normal(m, rng, 2.5);
  const QuantParams p = choose_symmetric(m.data(), m.size(), type);
  EXPECT_EQ(p.zero_point, 0);
  const PackedBuffer q = quantize(m, p);
  const Matrix<float> back = dequantize(q, 32, 32, p);
  for (std::size_t i = 0; i < m.size(); ++i) {
    EXPECT_LE(std::fabs(back.data()[i] - m.data()[i]),
              max_rounding_error(p) + 1e-6f);
  }
}

TEST_P(SymmetricQuantTest, PreservesZeroExactly) {
  const Scalar type = GetParam();
  float vals[3] = {-3.5f, 0.0f, 7.25f};
  const QuantParams p = choose_symmetric(vals, 3, type);
  EXPECT_EQ(quantize_value(0.0f, p), 0);
  EXPECT_EQ(dequantize_value(0, p), 0.0f);
}

INSTANTIATE_TEST_SUITE_P(SignedTypes, SymmetricQuantTest,
                         ::testing::Values(Scalar::s4, Scalar::s8,
                                           Scalar::s12, Scalar::s16),
                         [](const auto& info) {
                           return to_string(info.param);
                         });

TEST(Quantizer, SaturatesOutOfRange) {
  QuantParams p;
  p.scale = 1.0f;
  p.type = Scalar::s8;
  EXPECT_EQ(quantize_value(1000.0f, p), 127);
  EXPECT_EQ(quantize_value(-1000.0f, p), -128);
}

TEST(Quantizer, AsymmetricCoversRangeAndZero) {
  float vals[4] = {0.5f, 1.0f, 2.0f, 4.0f};
  const QuantParams p = choose_asymmetric(vals, 4, Scalar::u8);
  // Zero must be exactly representable (it encodes padding).
  const std::int32_t zq = quantize_value(0.0f, p);
  EXPECT_NEAR(dequantize_value(zq, p), 0.0f, 1e-6f);
  for (float v : vals) {
    const std::int32_t q = quantize_value(v, p);
    EXPECT_GE(q, 0);
    EXPECT_LE(q, 255);
    EXPECT_NEAR(dequantize_value(q, p), v, p.scale * 0.5f + 1e-6f);
  }
}

TEST(Quantizer, LowerPrecisionLosesMoreAccuracy) {
  Rng rng(6);
  Matrix<float> m(64, 64);
  fill_normal(m, rng, 1.0);
  double err4 = 0, err8 = 0;
  for (Scalar type : {Scalar::s4, Scalar::s8}) {
    const QuantParams p = choose_symmetric(m.data(), m.size(), type);
    const Matrix<float> back = dequantize(quantize(m, p), 64, 64, p);
    double err = 0;
    for (std::size_t i = 0; i < m.size(); ++i) {
      err += std::fabs(back.data()[i] - m.data()[i]);
    }
    (type == Scalar::s4 ? err4 : err8) = err;
  }
  EXPECT_GT(err4, 4.0 * err8);
}

// ---- Round trips (quantizer) ----------------------------------------------

class QuantRoundTripTest : public ::testing::TestWithParam<Scalar> {};

TEST_P(QuantRoundTripTest, SymmetricRoundTripWithinHalfScale) {
  const Scalar type = GetParam();
  Rng rng(0x4017 + static_cast<std::uint64_t>(bits_of(type)));
  Matrix<float> m(48, 48);
  fill_normal(m, rng, 2.5);
  const QuantParams p = choose_symmetric(m.data(), m.size(), type);
  EXPECT_EQ(p.zero_point, 0);
  // Element-wise: quantize -> dequantize never moves a value by more than
  // scale / 2, plus the rounding of the float dequantization multiply
  // itself (one ulp on a value of the data's magnitude).
  float amax = 0.0f;
  for (std::size_t i = 0; i < m.size(); ++i) {
    amax = std::max(amax, std::fabs(m.data()[i]));
  }
  const float bound = max_rounding_error(p) +
                      amax * std::numeric_limits<float>::epsilon();
  EXPECT_LE(test::max_roundtrip_error(m, p), bound);
  // Buffer-level API agrees with the element-wise one.
  const Matrix<float> back = dequantize(quantize(m, p), 48, 48, p);
  for (std::size_t i = 0; i < m.size(); ++i) {
    EXPECT_NEAR(back.data()[i], m.data()[i], bound) << "element " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(SignedTypes, QuantRoundTripTest,
                         ::testing::Values(Scalar::s4, Scalar::s8, Scalar::s12,
                                           Scalar::s16),
                         [](const auto& info) { return to_string(info.param); });

TEST(Quantizer, AsymmetricRoundTripWithinHalfScale) {
  for (Scalar type : {Scalar::u4, Scalar::u8}) {
    Rng rng(0xa57 + static_cast<std::uint64_t>(bits_of(type)));
    Matrix<float> m(32, 32);
    // Strictly positive data — the asymmetric path's use case.
    for (std::size_t i = 0; i < m.size(); ++i) {
      m.data()[i] = 1.0f + rng.next_float() * 7.0f;
    }
    const QuantParams p = choose_asymmetric(m.data(), m.size(), type);
    float amax = 0.0f;
    for (std::size_t i = 0; i < m.size(); ++i) {
      amax = std::max(amax, std::fabs(m.data()[i]));
    }
    // Same float-dequantization ulp headroom as the symmetric test.
    EXPECT_LE(test::max_roundtrip_error(m, p),
              max_rounding_error(p) +
                  amax * std::numeric_limits<float>::epsilon())
        << to_string(type);
  }
}

// ---- Round trips (decomposition) ------------------------------------------

TEST(Decompose, RecomposesExhaustivelyForEveryTypeAndChunkWidth) {
  // Every representable value of every integer type, against both chunk
  // widths the datapaths use. 16-bit types enumerate all 65536 patterns.
  for (Scalar type : {Scalar::u4, Scalar::s4, Scalar::u8, Scalar::s8,
                      Scalar::u12, Scalar::s12, Scalar::u16, Scalar::s16}) {
    const std::size_t n =
        static_cast<std::size_t>(max_value(type) - min_value(type)) + 1;
    PackedBuffer buf(n, type);
    for (std::size_t i = 0; i < n; ++i) {
      buf.set(i, min_value(type) + static_cast<std::int32_t>(i));
    }
    for (int chunk_bits : {4, 8}) {
      // 8-bit chunking requires the width to divide evenly (12-bit sources
      // are nibble-plane only, matching the int4 datapath they ride).
      if (chunk_bits > bits_of(type) || bits_of(type) % chunk_bits != 0) {
        continue;
      }
      EXPECT_EQ(test::first_recompose_mismatch(buf, chunk_bits), -1)
          << to_string(type) << " chunked at " << chunk_bits << " bits";
    }
  }
}

TEST(Decompose, PlaneStructureMatchesSignednessAndWeights) {
  Rng rng(0xdec0);
  for (Scalar type : {Scalar::s8, Scalar::s12, Scalar::s16, Scalar::u16}) {
    PackedBuffer buf(64, type);
    for (std::size_t i = 0; i < 64; ++i) {
      buf.set(i, static_cast<std::int32_t>(
                     rng.next_in(min_value(type), max_value(type))));
    }
    for (int chunk_bits : {4, 8}) {
      if (bits_of(type) % chunk_bits != 0) continue;
      const PlaneSet planes = decompose(buf, chunk_bits);
      ASSERT_EQ(static_cast<int>(planes.planes.size()),
                plane_count(type, chunk_bits));
      std::int64_t expected_weight = 1;
      for (std::size_t pi = 0; pi < planes.planes.size(); ++pi) {
        const Plane& plane = planes.planes[pi];
        EXPECT_EQ(plane.weight, expected_weight);
        expected_weight <<= chunk_bits;
        // Only the top plane of a signed source is signed.
        const bool is_top = pi + 1 == planes.planes.size();
        EXPECT_EQ(plane.is_signed, is_signed(type) && is_top)
            << to_string(type) << " plane " << pi;
      }
    }
  }
}

TEST(Decompose, PrepareDensePlanesMatchDecomposeOfSetBuffer) {
  // prepare_dense packs planes in one pass straight from the matrix; the
  // oracle fills a full-width PackedBuffer with set() and decomposes it.
  // 7 x 9 is odd both ways, so 4-bit planes end mid-byte in either layout.
  constexpr std::size_t kRows = 7, kCols = 9;
  Rng rng(0x7e9);
  for (Scalar type : {Scalar::u4, Scalar::s4, Scalar::u8, Scalar::s8,
                      Scalar::u12, Scalar::s12, Scalar::u16, Scalar::s16}) {
    const auto values = core::random_values(kRows, kCols, type, rng);
    for (int chunk_bits : {4, 8}) {
      for (bool row_major : {true, false}) {
        SCOPED_TRACE(to_string(type) + " into " + std::to_string(chunk_bits) +
                     (row_major ? "-bit, row-major" : "-bit, column-major"));
        if (bits_of(type) > chunk_bits && bits_of(type) % chunk_bits != 0) {
          // 12-bit sources have no 8-bit chunking, on either path.
          EXPECT_THROW(core::prepare_dense(values, type, row_major, chunk_bits),
                       Error);
          continue;
        }
        const auto dense =
            core::prepare_dense(values, type, row_major, chunk_bits);
        PackedBuffer buf(values.size(), type);
        for (std::size_t r = 0; r < kRows; ++r) {
          for (std::size_t c = 0; c < kCols; ++c) {
            buf.set(dense.flat_index(r, c), values(r, c));
          }
        }
        const PlaneSet expect = decompose(buf, chunk_bits);
        ASSERT_EQ(dense.planes.size(), expect.planes.size());
        for (std::size_t pi = 0; pi < expect.planes.size(); ++pi) {
          EXPECT_EQ(dense.planes[pi].values, expect.planes[pi].values)
              << "plane " << pi;
          EXPECT_EQ(dense.planes[pi].weight, expect.planes[pi].weight);
          EXPECT_EQ(dense.planes[pi].is_signed, expect.planes[pi].is_signed);
        }
      }
    }
  }
}

}  // namespace
}  // namespace magicube::quant
