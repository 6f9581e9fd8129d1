#pragma once
// Data-marshalling building blocks of the online transpose (§IV-B2..B3).
//
// * RhsTileLayout — the shared-memory image of one BSk x BSn RHS block.
//   The conflict-free variant pads 8 int32 words after every 64 stored
//   words (Fig. 4), which spreads a warp's strided column reads over all
//   32 banks; the basic variant omits the padding and provably incurs
//   4-way conflicts (asserted by tests, measured by Fig. 11's ablation).
//
// * transpose_4x4_bytes — the int8 register transpose of Fig. 5: a thread
//   turns 4 loaded words (4 rows x 4 int8 columns) into 4 registers each
//   holding one column's 4 consecutive-k int8 values.
//
// * transpose_int4_naive / transpose_int4_shuffled — the int4 register
//   transposes of §IV-B3. The naive form manipulates individual nibbles
//   (the "intensive bit-wise operations" the paper avoids); the shuffled
//   form assumes the SR-BCRS column indices were block-of-8 shuffled by
//   {0,2,4,6,1,3,5,7} and then needs only 8 int32-granularity bitwise ops
//   per 16 int4 values (Fig. 7), landing results in natural k order.

#include <array>
#include <cstdint>

namespace magicube::core {

struct RhsTileLayout {
  int bsk = 16;        // rows of the tile (= stride = mma k)
  int row_words = 16;  // 32-bit words per row (BSn * rhs_bits / 32)
  bool padded = true;  // conflict-free padding enabled

  /// Word offset where row r starts (padding: +8 words per 64 stored).
  std::size_t row_start_word(int r) const {
    const std::size_t base =
        static_cast<std::size_t>(r) * static_cast<std::size_t>(row_words);
    return padded ? base + base / 64 * 8 : base;
  }
  /// Total words the tile occupies in shared memory.
  std::size_t total_words() const {
    const std::size_t base = static_cast<std::size_t>(bsk) *
                             static_cast<std::size_t>(row_words);
    return padded ? base + (base + 63) / 64 * 8 : base;
  }
};

/// Warp-level ALU instruction costs of the transposes (counted once per
/// warp by the kernels; every lane executes the same instruction stream).
/// A thread only materializes the half of its loaded 8x8 int4 block that
/// feeds its own mma fragments (the other half is its partner thread's),
/// so the shuffled path costs 8 PRMT for the byte stage plus 16 bitwise ops
/// for 32 int4 values — the paper's "8 bitwise operations per 16 int4".
/// The naive cost assumes a competently written direct transpose (PRMT
/// byte stage + shift/mask/or fixups); a fully scalar nibble loop would be
/// ~3 ops per nibble. Calibrated so the end-to-end shuffle gain lands near
/// the paper's measured ~1.45x.
inline constexpr std::uint64_t kInt8TransposeAluOps = 8;       // 8 PRMT
inline constexpr std::uint64_t kInt4NaiveAluOps = 8 + 48;      // see above
inline constexpr std::uint64_t kInt4ShuffledAluOps = 8 + 16;   // Fig. 7

/// Fig. 5: out[i] = byte-column i of the four input words
/// (out[i] byte j == byte i of in[j]). Costs kInt8TransposeAluOps per warp.
std::array<std::uint32_t, 4> transpose_4x4_bytes(
    const std::array<std::uint32_t, 4>& in);

/// Naive int4 transpose: in[r] holds 8 nibbles (columns 0..7 of k-row r, in
/// natural row order); out[col] holds column `col` across the 8 rows in
/// natural order. Pure nibble surgery: kInt4NaiveAluOps per warp.
std::array<std::uint32_t, 8> transpose_int4_naive(
    const std::array<std::uint32_t, 8>& in);

/// Fig. 7 fast path: `in` rows arrive in shuffled order
/// {0,2,4,6,1,3,5,7}; the byte transpose plus 8 int32 bitwise ops per
/// column pair emit all 8 columns in natural k order, costing
/// kInt4ShuffledAluOps per warp.
std::array<std::uint32_t, 8> transpose_int4_shuffled(
    const std::array<std::uint32_t, 8>& in);

/// The output-column permutation of the online transpose: mma `i` of a warp
/// covers warp-local columns g(i, j) for tile column j. On the int8 path
/// g = 4j + i; on the int4 path g = 8*(j%4) + 4*(j/4) + i.
constexpr int spmm_output_col_int8(int mma, int tile_col) {
  return 4 * tile_col + mma;
}
constexpr int spmm_output_col_int4(int mma, int tile_col) {
  return 8 * (tile_col % 4) + 4 * (tile_col / 4) + mma;
}

/// Lane schedule of the phased RHS fragment loads (§IV-B2): during phase
/// `ph`, lane `t` of warp `w` reads stride row spmm_rhs_load_row(...) at
/// word column spmm_rhs_load_word(...) of the staged BSk x BSn tile.
constexpr int spmm_rhs_load_row(bool int4path, int ph, int lane) {
  return int4path ? 8 * (lane % 4) + ph : 4 * (lane % 4) + ph;
}
constexpr int spmm_rhs_load_word(bool int4path, int w, int lane) {
  return int4path ? w * 4 + (lane / 4) % 4 : w * 8 + lane / 4;
}

}  // namespace magicube::core
