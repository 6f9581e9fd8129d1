#pragma once
// Bit-exact warp-level Matrix Multiply-Accumulate (mma) primitives.
//
// Implements the two integer shapes Magicube uses (paper Table III,
// smallest-shape choices highlighted there):
//
//   mma.m8n8k16  — int8 operands, 8x16 (row-major A) * 16x8 (col-major B)
//                  accumulated into 8x8 int32.
//   mma.m8n8k32  — int4 operands, 8x32 * 32x8 into 8x8 int32.
//
// Fragment ownership matches PTX / the paper's Fig. 1 exactly:
//   A: lane t holds row t/4, elements e*(t%4) .. e*(t%4)+e-1  (e = 4 or 8)
//   B: lane t holds col t/4, rows    e*(t%4) .. e*(t%4)+e-1
//   C: lane t holds row t/4, cols    2*(t%4) .. 2*(t%4)+1     (int32 each)
// where each lane's A/B elements are packed into one 32-bit register,
// element 0 in the least-significant byte/nibble.
//
// Signed x unsigned operand combinations are supported, as on the hardware
// (PTX allows .s8/.u8 and .s4/.u4 independently per operand); the mixed-
// precision emulation of §IV-D depends on this.

#include <array>
#include <cstdint>

#include "common/matrix.hpp"
#include "common/packed.hpp"
#include "simt/counters.hpp"

namespace magicube::simt {

/// One 32-bit register per lane of a warp.
using WarpReg = std::array<std::uint32_t, 32>;

/// Accumulator fragment: two int32 per lane (8x8 tile).
struct AccumFrag {
  std::array<std::array<std::int32_t, 2>, 32> c{};

  void fill(std::int32_t v) {
    for (auto& lane : c) lane = {v, v};
  }
  friend bool operator==(const AccumFrag&, const AccumFrag&) = default;
};

/// D = A(8x16 int8) * B(16x8 int8) + C. Counts one int8 mma issue.
void mma_m8n8k16(AccumFrag& d, const WarpReg& a, const WarpReg& b,
                 const AccumFrag& c, bool a_signed, bool b_signed,
                 KernelCounters& counters);

/// D = A(8x32 int4) * B(32x8 int4) + C. Counts one int4 mma issue.
void mma_m8n8k32(AccumFrag& d, const WarpReg& a, const WarpReg& b,
                 const AccumFrag& c, bool a_signed, bool b_signed,
                 KernelCounters& counters);

/// Uncounted mma primitives. A DecodedFrag holds the logical elements of
/// one operand fragment (A row-major 8 x K or B col-major K x 8) unpacked
/// once, K = 16 (int8) or 32 (int4); it is also the A-tile layout the panel
/// micro-kernels below consume. decode_frag_* + mma_decoded form the
/// per-tile reference chain the panel kernels are checked against
/// (tests/test_tensor_core_panel.cpp).
struct DecodedFrag {
  std::array<std::array<std::int32_t, 32>, 8> v{};  // [row-or-col][k]
  int k = 16;
};

void decode_frag_int8(const WarpReg& frag, bool is_signed, DecodedFrag& out);
void decode_frag_int4(const WarpReg& frag, bool is_signed, DecodedFrag& out);

/// acc += A * B over decoded fragments, with identical int32 wraparound
/// semantics to the counted mma (the k sum is carried in int64 before the
/// single wrapping store, so any summation order is bit-exact).
void mma_decoded(AccumFrag& acc, const DecodedFrag& a, const DecodedFrag& b);

// ---- Block-panel micro-kernel (execution-plan replay) --------------------
//
// The panel replay engine trades the per-fragment register dance for plain
// blocked-GEMM loops: one decoded A tile (8 x K, the DecodedFrag layout)
// multiplies a decoded B *panel* spanning several adjacent 8-column mma
// tiles in one pass, accumulating straight into a row-major C panel. All
// arithmetic is mod-2^32 (unsigned wraparound), which is bit-exact with any
// chaining of the counted mma / mma_decoded issues it replaces: truncation
// mod 2^32 is a ring homomorphism, so the grouping of the k reduction and
// the per-issue truncations cannot change the stored accumulator bits.
//
// The kernels are written with fixed trip counts over k and fixed 8-wide
// column blocks so the compiler can keep the C strip in vector registers.
// When the MAGICUBE_SIMD build option is on, explicit GCC/Clang
// vector-extension specializations (8 x 32-bit lanes) are compiled in;
// the scalar fallback produces identical bits on any toolchain.

/// Whether the explicit SIMD micro-kernel specializations are compiled in
/// (the MAGICUBE_SIMD CMake option on a GCC/Clang toolchain).
bool simd_enabled();

/// C[8 x n] += A[8 x k] * B[k x n]: `acc` row-major 8 x n wrapping uint32
/// accumulators, `a` a decoded fragment (k = a.k in {16, 32}), `b` a
/// decoded row-major k x n panel. n % 8 == 0. Bit-exact with issuing
/// mma_decoded over the n/8 column tiles of the panel.
void mma_panel(std::uint32_t* acc, const DecodedFrag& a,
               const std::int32_t* b, int n);

// Bucket-specialized panel kernels (plan-time replay dispatch). The plan
// builder classifies every block row into a kernel bucket; the replay
// engines call these instead of the generic mma_panel when the bucket's
// shape guarantees hold. All are bit-exact mod 2^32 with mma_panel.

/// Fixed-width variant of mma_panel for the bsn == 64 buckets: n is a
/// compile-time 64 and only the first `rows` panel rows (1..8) are updated.
/// The active rows of a partial stacked plane group always form a prefix,
/// so the row limit is the entire tail handling.
void mma_panel_n64(std::uint32_t* acc, const DecodedFrag& a,
                   const std::int32_t* b, int rows);

/// Fused decode+mma over one reduction step at fixed width 64 — the
/// dominant single-group/single-plane bucket. `rows[k]` points at the
/// packed bytes of reduction row k's 64-column span (nullptr for a padded
/// slot, which is skipped: a zero row contributes exactly 0 mod 2^32).
/// k_count <= 32. `int4` selects the 4-bit decode, `b_signed` the
/// signedness, matching decode_span_int8/int4.
void fused_decode_mma_n64(std::uint32_t* acc, const DecodedFrag& a,
                          const std::uint8_t* const* rows, int k_count,
                          bool int4, bool b_signed);

/// colsum[c] += row[c] at int64 width over `n` columns — the vectorized
/// bias-correction column-sum update. Exact integer arithmetic.
void colsum_update(const std::int32_t* row, std::int64_t* colsum,
                   std::size_t n);

/// total[c] += weight * (int32)acc_row[c] over `n` columns — the panel
/// epilogue's weighted fold of one plane group's partial products into the
/// exact int64 running total.
void epilogue_combine(std::int64_t* total, const std::uint32_t* acc_row,
                      std::int64_t weight, std::size_t n);

/// total[c] += weight * ((int32)acc_row[c] - bias * colsum[c]) — the
/// signed-LHS bias-corrected variant of epilogue_combine.
void epilogue_combine_biased(std::int64_t* total, const std::uint32_t* acc_row,
                             const std::int64_t* colsum, std::int64_t bias,
                             std::int64_t weight, std::size_t n);

/// Wrapping dot product over `k` decoded elements: returns
/// acc + sum_i a[i] * b[i] mod 2^32 — the SDDMM panel kernel, bit-exact
/// with chaining counted mma issues over the stride tiles of one output.
std::int32_t dot_wrap(const std::int32_t* a, const std::int32_t* b,
                      std::size_t k, std::int32_t acc);

/// Decode `count` packed 8-bit elements (the PackedBuffer byte layout)
/// into int32, sign-extending when `is_signed`.
void decode_span_int8(const std::uint8_t* src, std::size_t count,
                      bool is_signed, std::int32_t* dst);
/// Decode `count` packed 4-bit elements (low nibble first within each
/// byte, the PackedBuffer layout) into int32. count % 2 == 0.
void decode_span_int4(const std::uint8_t* src, std::size_t count,
                      bool is_signed, std::int32_t* dst);
/// Bias-encoded decodes of the stacked signed top plane (§IV-D): the raw
/// two's-complement chunk becomes its excess-2^(b-1) representation
/// (raw ^ msb read unsigned, i.e. signed value + 2^(b-1)).
void decode_span_int8_biased(const std::uint8_t* src, std::size_t count,
                             std::int32_t* dst);
void decode_span_int4_biased(const std::uint8_t* src, std::size_t count,
                             std::int32_t* dst);

// ---- Fragment <-> logical-matrix converters (tests, kernel epilogues) ----

/// Builds the A fragment of m8n8k16 from a logical 8x16 matrix of raw bytes.
WarpReg make_a_frag_int8(const Matrix<std::uint8_t>& a8x16);
/// Builds the B fragment of m8n8k16 from a logical 16x8 matrix of raw bytes.
WarpReg make_b_frag_int8(const Matrix<std::uint8_t>& b16x8);
/// Builds the A fragment of m8n8k32 from a logical 8x32 matrix of raw nibbles.
WarpReg make_a_frag_int4(const Matrix<std::uint8_t>& a8x32);
/// Builds the B fragment of m8n8k32 from a logical 32x8 matrix of raw nibbles.
WarpReg make_b_frag_int4(const Matrix<std::uint8_t>& b32x8);

/// Expands an accumulator fragment into the logical 8x8 int32 tile.
Matrix<std::int32_t> accum_to_matrix(const AccumFrag& frag);
/// Packs a logical 8x8 int32 tile into an accumulator fragment.
AccumFrag matrix_to_accum(const Matrix<std::int32_t>& m8x8);

// ---- Warp shuffle -------------------------------------------------------

/// __shfl_xor_sync over a full warp: lane i receives the value of lane
/// i ^ lane_mask. Counts one shuffle instruction.
WarpReg shfl_xor(const WarpReg& v, int lane_mask, KernelCounters& counters);

}  // namespace magicube::simt
