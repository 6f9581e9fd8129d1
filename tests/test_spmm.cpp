// SpMM correctness and counter tests: every precision pair, vector length
// and optimization variant against the scalar reference, plus the
// estimate-equals-execute invariant the benchmark sweeps rely on.

#include <gtest/gtest.h>

#include "core/api.hpp"

namespace magicube::core {
namespace {

struct SpmmCase {
  PrecisionPair precision;
  int v;
  double sparsity;
  SpmmVariant variant;
};

std::string case_name(const ::testing::TestParamInfo<SpmmCase>& info) {
  const auto& p = info.param;
  std::string s = to_string(p.precision) + "_v" + std::to_string(p.v) + "_s" +
                  std::to_string(static_cast<int>(p.sparsity * 100)) + "_" +
                  to_string(p.variant);
  for (auto& ch : s) {
    if (ch == '-' || ch == '+' || ch == '.') ch = '_';
  }
  return s;
}

class SpmmTest : public ::testing::TestWithParam<SpmmCase> {
 protected:
  static constexpr std::size_t kK = 72;   // not a stride multiple: padding
  static constexpr std::size_t kN = 128;

  void run_case(std::size_t scalar_rows) {
    const SpmmCase& tc = GetParam();
    Rng rng(0x5eed + static_cast<std::uint64_t>(tc.v) * 100 +
            static_cast<std::uint64_t>(tc.sparsity * 100));
    const std::size_t rows = scalar_rows * static_cast<std::size_t>(tc.v);
    const sparse::BlockPattern pattern =
        sparse::make_uniform_pattern(rows, kK, tc.v, tc.sparsity, rng);
    const auto a_vals = random_values(rows, kK, tc.precision.lhs, rng);
    const auto b_vals = random_values(kK, kN, tc.precision.rhs, rng);

    SpmmConfig cfg;
    cfg.precision = tc.precision;
    cfg.variant = tc.variant;
    const auto a = prepare_spmm_lhs(pattern, a_vals, cfg.precision,
                                    needs_shuffle(cfg));
    const auto b = prepare_spmm_rhs(b_vals, cfg.precision);

    const SpmmResult result = spmm(a, b, cfg);
    const auto expect = reference_spmm(pattern, a_vals, b_vals);
    ASSERT_EQ(result.c.rows(), expect.rows());
    for (std::size_t i = 0; i < expect.rows(); ++i) {
      for (std::size_t j = 0; j < expect.cols(); ++j) {
        ASSERT_EQ(result.c(i, j), expect(i, j))
            << "at (" << i << "," << j << ")";
      }
    }

    // Analytic counters must match the executed ones exactly.
    const simt::KernelRun est = spmm_estimate(pattern, kN, cfg);
    EXPECT_EQ(est.counters, result.run.counters);
    EXPECT_EQ(est.launch.grid_blocks, result.run.launch.grid_blocks);
    EXPECT_EQ(est.launch.smem_bytes_per_block,
              result.run.launch.smem_bytes_per_block);
    EXPECT_EQ(est.pipeline.total_steps, result.run.pipeline.total_steps);
    EXPECT_EQ(est.pipeline.prefetch, result.run.pipeline.prefetch);
  }
};

TEST_P(SpmmTest, MatchesReferenceAndEstimate) { run_case(4); }

INSTANTIATE_TEST_SUITE_P(
    PrecisionSweep, SpmmTest,
    ::testing::Values(
        SpmmCase{precision::L8R8, 8, 0.7, SpmmVariant::full},
        SpmmCase{precision::L8R8, 4, 0.7, SpmmVariant::full},
        SpmmCase{precision::L8R8, 2, 0.5, SpmmVariant::full},
        SpmmCase{precision::L4R4, 8, 0.7, SpmmVariant::full},
        SpmmCase{precision::L4R4, 4, 0.8, SpmmVariant::full},
        SpmmCase{precision::L4R4, 2, 0.7, SpmmVariant::full},
        SpmmCase{precision::L16R8, 8, 0.7, SpmmVariant::full},
        SpmmCase{precision::L16R8, 4, 0.7, SpmmVariant::full},
        SpmmCase{precision::L16R8, 2, 0.9, SpmmVariant::full},
        SpmmCase{precision::L16R16, 8, 0.7, SpmmVariant::full},
        SpmmCase{precision::L16R16, 4, 0.5, SpmmVariant::full},
        SpmmCase{precision::L16R16, 2, 0.7, SpmmVariant::full},
        SpmmCase{precision::L16R4, 8, 0.7, SpmmVariant::full},
        SpmmCase{precision::L16R4, 4, 0.7, SpmmVariant::full},
        SpmmCase{precision::L16R4, 2, 0.8, SpmmVariant::full},
        SpmmCase{precision::L12R4, 8, 0.7, SpmmVariant::full},
        SpmmCase{precision::L12R4, 4, 0.7, SpmmVariant::full},
        SpmmCase{precision::L12R4, 2, 0.7, SpmmVariant::full},
        SpmmCase{precision::L8R4, 8, 0.7, SpmmVariant::full},
        SpmmCase{precision::L8R4, 4, 0.9, SpmmVariant::full},
        SpmmCase{precision::L8R4, 2, 0.7, SpmmVariant::full}),
    case_name);

INSTANTIATE_TEST_SUITE_P(
    VariantSweep, SpmmTest,
    ::testing::Values(
        SpmmCase{precision::L8R8, 8, 0.7, SpmmVariant::basic},
        SpmmCase{precision::L8R8, 8, 0.7, SpmmVariant::conflict_free},
        SpmmCase{precision::L8R8, 8, 0.7,
                 SpmmVariant::conflict_free_prefetch},
        SpmmCase{precision::L4R4, 8, 0.7, SpmmVariant::basic},
        SpmmCase{precision::L4R4, 8, 0.7, SpmmVariant::conflict_free},
        SpmmCase{precision::L4R4, 8, 0.7,
                 SpmmVariant::conflict_free_prefetch},
        SpmmCase{precision::L16R8, 4, 0.7, SpmmVariant::basic},
        SpmmCase{precision::L16R4, 2, 0.7, SpmmVariant::conflict_free}),
    case_name);

INSTANTIATE_TEST_SUITE_P(
    SparsityEdges, SpmmTest,
    ::testing::Values(
        SpmmCase{precision::L8R8, 8, 0.0, SpmmVariant::full},   // dense
        SpmmCase{precision::L8R8, 8, 0.98, SpmmVariant::full},  // near-empty
        SpmmCase{precision::L4R4, 8, 1.0, SpmmVariant::full},   // empty
        SpmmCase{precision::L16R16, 2, 0.98, SpmmVariant::full}),
    case_name);

TEST(Spmm, ConflictAccountingMatchesVariant) {
  Rng rng(77);
  const auto pattern = sparse::make_uniform_pattern(64, 96, 8, 0.5, rng);
  const auto a_vals = random_values(64, 96, Scalar::s8, rng);
  const auto b_vals = random_values(96, 128, Scalar::s8, rng);
  const auto b = prepare_spmm_rhs(b_vals, precision::L8R8);

  SpmmConfig basic{precision::L8R8, SpmmVariant::basic};
  SpmmConfig cf{precision::L8R8, SpmmVariant::conflict_free};
  const auto a0 = prepare_spmm_lhs(pattern, a_vals, precision::L8R8, false);
  const auto r_basic = spmm(a0, b, basic);
  const auto r_cf = spmm(a0, b, cf);

  // The conflict-free layout eliminates all bank conflicts; the basic one
  // replays the fragment loads 4x.
  EXPECT_DOUBLE_EQ(r_cf.run.counters.smem_conflict_factor(), 1.0);
  EXPECT_GT(r_basic.run.counters.smem_conflict_factor(), 1.5);
  // Identical results regardless of layout.
  EXPECT_EQ(r_basic.c, r_cf.c);
}

TEST(Spmm, ShuffleReducesAluOpsFourfoldOnInt4) {
  Rng rng(78);
  const auto pattern = sparse::make_uniform_pattern(64, 128, 8, 0.5, rng);
  const auto a_vals = random_values(64, 128, Scalar::s4, rng);
  const auto b_vals = random_values(128, 128, Scalar::s4, rng);
  const auto b = prepare_spmm_rhs(b_vals, precision::L4R4);

  SpmmConfig no_shuffle{precision::L4R4, SpmmVariant::conflict_free_prefetch};
  SpmmConfig with_shuffle{precision::L4R4, SpmmVariant::full};
  const auto a_plain =
      prepare_spmm_lhs(pattern, a_vals, precision::L4R4, false);
  const auto a_shuf = prepare_spmm_lhs(pattern, a_vals, precision::L4R4, true);
  const auto r_plain = spmm(a_plain, b, no_shuffle);
  const auto r_shuf = spmm(a_shuf, b, with_shuffle);

  EXPECT_EQ(r_plain.c, r_shuf.c);
  EXPECT_GT(static_cast<double>(r_plain.run.counters.alu_ops),
            1.8 * static_cast<double>(r_shuf.run.counters.alu_ops));
}

TEST(Spmm, StackingRestoresFullMmaUtilizationForEmulatedV4) {
  // Same vector-row count either way, so p8 carries twice the nnz of p4.
  Rng rng(79);
  const auto p4 = sparse::make_uniform_pattern(32, 96, 4, 0.5, rng);
  const auto p8 = sparse::make_uniform_pattern(64, 96, 8, 0.5, rng);

  // Native L8R8 cannot stack: v=4 issues the same mma count as v=8 for
  // half the useful work (50% tensor-core utilization, §IV-A).
  SpmmConfig native{precision::L8R8, SpmmVariant::full};
  const auto n4 = spmm_estimate(p4, 128, native);
  const auto n8 = spmm_estimate(p8, 128, native);
  EXPECT_EQ(n4.counters.mma_int8, n8.counters.mma_int8);

  // Emulated L16R8 stacks its two planes when v=4 (Fig. 10b): mma count
  // halves relative to the unstacked v=8 plane pair, restoring the same
  // mma-per-nnz efficiency as v=8.
  SpmmConfig emulated{precision::L16R8, SpmmVariant::full};
  const auto e4 = spmm_estimate(p4, 128, emulated);
  const auto e8 = spmm_estimate(p8, 128, emulated);
  EXPECT_EQ(2 * e4.counters.mma_int8, e8.counters.mma_int8);
  const double per_nnz_4 =
      static_cast<double>(e4.counters.mma_int8) / static_cast<double>(p4.nnz());
  const double per_nnz_8 =
      static_cast<double>(e8.counters.mma_int8) / static_cast<double>(p8.nnz());
  EXPECT_DOUBLE_EQ(per_nnz_4, per_nnz_8);
}

TEST(Spmm, RejectsMismatchedOperands) {
  Rng rng(80);
  const auto pattern = sparse::make_uniform_pattern(16, 32, 8, 0.5, rng);
  const auto a_vals = random_values(16, 32, Scalar::s8, rng);
  const auto b_vals = random_values(32, 128, Scalar::s8, rng);
  SpmmConfig cfg{precision::L8R8, SpmmVariant::full};
  const auto a = prepare_spmm_lhs(pattern, a_vals, cfg.precision, false);
  // Wrong RHS width (not a multiple of 64).
  const auto b_bad =
      prepare_spmm_rhs(random_values(32, 96, Scalar::s8, rng), cfg.precision);
  EXPECT_THROW(spmm(a, b_bad, cfg), Error);
  // Wrong K.
  const auto b_wrong_k =
      prepare_spmm_rhs(random_values(48, 128, Scalar::s8, rng), cfg.precision);
  EXPECT_THROW(spmm(a, b_wrong_k, cfg), Error);
  // Shuffle state mismatch (int4 full variant needs a shuffled LHS).
  SpmmConfig cfg4{precision::L4R4, SpmmVariant::full};
  const auto a4_plain = prepare_spmm_lhs(
      pattern, random_values(16, 32, Scalar::s4, rng), cfg4.precision, false);
  const auto b4 =
      prepare_spmm_rhs(random_values(32, 128, Scalar::s4, rng), cfg4.precision);
  EXPECT_THROW(spmm(a4_plain, b4, cfg4), Error);
  // Values outside the operand's precision are rejected in every build
  // type, not stored truncated: one on a stored LHS slot, one in the RHS.
  ASSERT_GT(pattern.vectors_in_row(0), 0u);
  auto a_wide = a_vals;
  a_wide(0, pattern.col_idx[pattern.row_ptr[0]]) = 200;
  EXPECT_THROW(prepare_spmm_lhs(pattern, a_wide, cfg.precision, false), Error);
  auto b_wide = b_vals;
  b_wide(31, 127) = -129;
  EXPECT_THROW(prepare_spmm_rhs(b_wide, cfg.precision), Error);
}

TEST(Spmm, UsefulOpsCountsLogicalWork) {
  Rng rng(81);
  const auto pattern = sparse::make_uniform_pattern(16, 32, 8, 0.75, rng);
  EXPECT_EQ(spmm_useful_ops(pattern, 128), 2ull * pattern.nnz() * 128);
}

}  // namespace
}  // namespace magicube::core
