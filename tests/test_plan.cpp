// Plan-once/run-many equivalence suite: ExecMode::fast must be bit-exact
// with ExecMode::simulate and its analytic KernelCounters must match the
// simulated counts exactly — for every precision pair, every SpmmVariant
// and both SDDMM prefetch settings. Plus plan-reuse regressions: a plan
// built once replays correctly against mutated values (structure identity,
// value independence) and rejects structurally incompatible operands.

#include <gtest/gtest.h>

#include <string>

#include "core/api.hpp"
#include "dlmc/dlmc.hpp"

namespace magicube::core {
namespace {

/// Mutates one column of `p` while keeping it a valid pattern: the first
/// vector of some row with a nonzero first column moves one column left
/// (stays strictly below its right neighbor). Same vector count, different
/// structure.
sparse::BlockPattern shift_one_column(const sparse::BlockPattern& p) {
  sparse::BlockPattern out = p;
  for (std::size_t r = 0; r < out.vector_rows(); ++r) {
    const std::uint32_t i = out.row_ptr[r];
    if (i < out.row_ptr[r + 1] && out.col_idx[i] > 0) {
      out.col_idx[i] -= 1;
      out.validate();
      return out;
    }
  }
  ADD_FAILURE() << "no mutable column found";
  return out;
}

void expect_runs_match(const simt::KernelRun& fast,
                       const simt::KernelRun& sim) {
  EXPECT_EQ(fast.counters, sim.counters);
  EXPECT_EQ(fast.launch.grid_blocks, sim.launch.grid_blocks);
  EXPECT_EQ(fast.launch.warps_per_block, sim.launch.warps_per_block);
  EXPECT_EQ(fast.launch.smem_bytes_per_block, sim.launch.smem_bytes_per_block);
  EXPECT_EQ(fast.pipeline.total_steps, sim.pipeline.total_steps);
  EXPECT_EQ(fast.pipeline.prefetch, sim.pipeline.prefetch);
}

// ---- SpMM: fast vs simulate across pairs x variants -----------------------

struct SpmmPlanCase {
  PrecisionPair precision;
  int v;
  double sparsity;
  SpmmVariant variant;
};

std::string spmm_case_name(const ::testing::TestParamInfo<SpmmPlanCase>& info) {
  const auto& p = info.param;
  std::string s = to_string(p.precision) + "_v" + std::to_string(p.v) + "_s" +
                  std::to_string(static_cast<int>(p.sparsity * 100)) + "_" +
                  to_string(p.variant);
  for (auto& ch : s) {
    if (ch == '-' || ch == '+' || ch == '.') ch = '_';
  }
  return s;
}

class SpmmPlanTest : public ::testing::TestWithParam<SpmmPlanCase> {};

TEST_P(SpmmPlanTest, FastBitExactAndCounterExactVsSimulate) {
  const SpmmPlanCase& tc = GetParam();
  constexpr std::size_t kK = 72;  // not a stride multiple: padding slots
  constexpr std::size_t kN = 128;
  Rng rng(0x91a0 + static_cast<std::uint64_t>(tc.v) +
          static_cast<std::uint64_t>(bits_of(tc.precision.lhs)) * 10);
  const std::size_t rows = 4 * static_cast<std::size_t>(tc.v);
  const auto pattern =
      sparse::make_uniform_pattern(rows, kK, tc.v, tc.sparsity, rng);
  const auto a_vals = random_values(rows, kK, tc.precision.lhs, rng);
  const auto b_vals = random_values(kK, kN, tc.precision.rhs, rng);

  SpmmConfig cfg;
  cfg.precision = tc.precision;
  cfg.variant = tc.variant;
  const auto a = prepare_spmm_lhs(pattern, a_vals, cfg.precision,
                                  needs_shuffle(cfg));
  const auto b = prepare_spmm_rhs(b_vals, cfg.precision);

  cfg.mode = ExecMode::simulate;
  const SpmmResult sim = spmm(a, b, cfg);
  cfg.mode = ExecMode::fast;
  const SpmmResult fast = spmm(a, b, cfg);

  EXPECT_EQ(fast.c, sim.c);
  expect_runs_match(fast.run, sim.run);

  // The plan's analytic run is the fast result's run verbatim.
  const SpmmPlanHandle plan = build_spmm_plan(a, kN, cfg);
  EXPECT_EQ(plan->run.counters, sim.run.counters);
  EXPECT_GT(plan->footprint_bytes(), sizeof(SpmmPlan));
}

INSTANTIATE_TEST_SUITE_P(
    PrecisionSweep, SpmmPlanTest,
    ::testing::Values(
        SpmmPlanCase{precision::L8R8, 8, 0.7, SpmmVariant::full},
        SpmmPlanCase{precision::L8R8, 2, 0.5, SpmmVariant::full},
        SpmmPlanCase{precision::L4R4, 8, 0.7, SpmmVariant::full},
        SpmmPlanCase{precision::L4R4, 4, 0.8, SpmmVariant::full},
        SpmmPlanCase{precision::L16R8, 8, 0.7, SpmmVariant::full},
        SpmmPlanCase{precision::L16R8, 4, 0.7, SpmmVariant::full},
        SpmmPlanCase{precision::L16R16, 8, 0.7, SpmmVariant::full},
        SpmmPlanCase{precision::L16R16, 2, 0.7, SpmmVariant::full},
        SpmmPlanCase{precision::L16R4, 8, 0.7, SpmmVariant::full},
        SpmmPlanCase{precision::L16R4, 2, 0.8, SpmmVariant::full},
        SpmmPlanCase{precision::L12R4, 8, 0.7, SpmmVariant::full},
        SpmmPlanCase{precision::L8R4, 4, 0.9, SpmmVariant::full}),
    spmm_case_name);

INSTANTIATE_TEST_SUITE_P(
    VariantSweep, SpmmPlanTest,
    ::testing::Values(
        SpmmPlanCase{precision::L8R8, 8, 0.7, SpmmVariant::basic},
        SpmmPlanCase{precision::L8R8, 8, 0.7, SpmmVariant::conflict_free},
        SpmmPlanCase{precision::L8R8, 8, 0.7,
                     SpmmVariant::conflict_free_prefetch},
        SpmmPlanCase{precision::L4R4, 8, 0.7, SpmmVariant::basic},
        SpmmPlanCase{precision::L4R4, 8, 0.7, SpmmVariant::conflict_free},
        SpmmPlanCase{precision::L4R4, 8, 0.7,
                     SpmmVariant::conflict_free_prefetch},
        SpmmPlanCase{precision::L16R8, 4, 0.7, SpmmVariant::basic},
        SpmmPlanCase{precision::L16R4, 2, 0.7, SpmmVariant::conflict_free}),
    spmm_case_name);

INSTANTIATE_TEST_SUITE_P(
    SparsityEdges, SpmmPlanTest,
    ::testing::Values(
        SpmmPlanCase{precision::L8R8, 8, 0.0, SpmmVariant::full},   // dense
        SpmmPlanCase{precision::L8R8, 8, 0.98, SpmmVariant::full},  // sparse
        SpmmPlanCase{precision::L4R4, 8, 1.0, SpmmVariant::full},   // empty
        SpmmPlanCase{precision::L16R16, 2, 0.98, SpmmVariant::full}),
    spmm_case_name);

// ---- SDDMM: fast vs simulate across pairs x prefetch ----------------------

struct SddmmPlanCase {
  PrecisionPair precision;
  int v;
  bool prefetch;
};

std::string sddmm_case_name(
    const ::testing::TestParamInfo<SddmmPlanCase>& info) {
  const auto& p = info.param;
  std::string s = to_string(p.precision) + "_v" + std::to_string(p.v) +
                  (p.prefetch ? "_pf" : "_nopf");
  for (auto& ch : s) {
    if (ch == '-') ch = '_';
  }
  return s;
}

class SddmmPlanTest : public ::testing::TestWithParam<SddmmPlanCase> {};

TEST_P(SddmmPlanTest, FastBitExactAndCounterExactVsSimulate) {
  const SddmmPlanCase& tc = GetParam();
  constexpr std::size_t kKDepth = 128;  // satisfies both K alignments
  constexpr std::size_t kNCols = 96;
  Rng rng(0x5dd + static_cast<std::uint64_t>(tc.v));
  const std::size_t rows = 4 * static_cast<std::size_t>(tc.v);
  const auto pattern =
      sparse::make_uniform_pattern(rows, kNCols, tc.v, 0.6, rng);
  const auto a_vals = random_values(rows, kKDepth, tc.precision.lhs, rng);
  const auto b_vals = random_values(kKDepth, kNCols, tc.precision.rhs, rng);

  SddmmConfig cfg;
  cfg.precision = tc.precision;
  cfg.prefetch = tc.prefetch;
  const int chunk = rhs_chunk_bits(tc.precision);
  const auto a = prepare_dense(a_vals, tc.precision.lhs, true, chunk);
  const auto b = prepare_dense(b_vals, tc.precision.rhs, false, chunk);

  cfg.mode = ExecMode::simulate;
  const SddmmResult sim = sddmm(a, b, pattern, cfg);
  cfg.mode = ExecMode::fast;
  const SddmmResult fast = sddmm(a, b, pattern, cfg);

  EXPECT_EQ(fast.c.values, sim.c.values);
  expect_runs_match(fast.run, sim.run);

  const SddmmPlanHandle plan = build_sddmm_plan(pattern, kKDepth, cfg);
  EXPECT_EQ(plan->run.counters, sim.run.counters);
  EXPECT_GT(plan->footprint_bytes(), sizeof(SddmmPlan));
}

INSTANTIATE_TEST_SUITE_P(
    PrecisionSweep, SddmmPlanTest,
    ::testing::Values(SddmmPlanCase{precision::L8R8, 8, false},
                      SddmmPlanCase{precision::L8R8, 8, true},
                      SddmmPlanCase{precision::L8R8, 4, false},
                      SddmmPlanCase{precision::L4R4, 8, false},
                      SddmmPlanCase{precision::L4R4, 8, true},
                      SddmmPlanCase{precision::L4R4, 2, false},
                      SddmmPlanCase{precision::L16R16, 8, false},
                      SddmmPlanCase{precision::L16R16, 4, true}),
    sddmm_case_name);

// ---- Plan reuse -----------------------------------------------------------

TEST(SpmmPlan, ReplaysCorrectlyAgainstMutatedValues) {
  // One plan, many value sets: the plan is built from structure alone, so
  // operands re-prepared from the same pattern with different values must
  // replay bit-exactly against their own reference.
  Rng rng(123);
  const auto pattern = sparse::make_uniform_pattern(64, 96, 8, 0.6, rng);
  SpmmConfig cfg;
  cfg.precision = precision::L16R8;
  cfg.mode = ExecMode::fast;

  const auto a1_vals = random_values(64, 96, Scalar::s16, rng);
  const auto a1 = prepare_spmm_lhs(pattern, a1_vals, cfg.precision,
                                   needs_shuffle(cfg));
  const SpmmPlanHandle plan = build_spmm_plan(a1, 128, cfg);

  for (int round = 0; round < 3; ++round) {
    const auto a_vals = random_values(64, 96, Scalar::s16, rng);
    const auto b_vals = random_values(96, 128, Scalar::s8, rng);
    const auto a = prepare_spmm_lhs(pattern, a_vals, cfg.precision,
                                    needs_shuffle(cfg));
    const auto b = prepare_spmm_rhs(b_vals, cfg.precision);
    const SpmmResult got = spmm(a, b, cfg, *plan);
    EXPECT_EQ(got.c, reference_spmm(pattern, a_vals, b_vals)) << round;
    EXPECT_EQ(got.run.counters, plan->run.counters);
  }
}

TEST(SddmmPlan, ReplaysCorrectlyAgainstMutatedValues) {
  Rng rng(124);
  const auto pattern = sparse::make_uniform_pattern(32, 64, 8, 0.5, rng);
  SddmmConfig cfg;
  cfg.precision = precision::L8R8;
  cfg.mode = ExecMode::fast;
  const SddmmPlanHandle plan = build_sddmm_plan(pattern, 64, cfg);

  for (int round = 0; round < 3; ++round) {
    const auto a_vals = random_values(32, 64, Scalar::s8, rng);
    const auto b_vals = random_values(64, 64, Scalar::s8, rng);
    const auto a = prepare_dense(a_vals, Scalar::s8, true, 8);
    const auto b = prepare_dense(b_vals, Scalar::s8, false, 8);
    const SddmmResult got = sddmm(a, b, pattern, cfg, *plan);
    EXPECT_EQ(got.c.values,
              reference_sddmm(pattern, a_vals, b_vals).values)
        << round;
  }
}

TEST(SpmmPlan, RejectsStructurallyIncompatibleOperands) {
  Rng rng(125);
  const auto p1 = sparse::make_uniform_pattern(64, 96, 8, 0.5, rng);
  const auto p2 = sparse::make_uniform_pattern(64, 96, 8, 0.9, rng);
  SpmmConfig cfg;
  cfg.mode = ExecMode::fast;
  const auto a1 = prepare_spmm_lhs(p1, random_values(64, 96, Scalar::s8, rng),
                                   cfg.precision, needs_shuffle(cfg));
  const auto a2 = prepare_spmm_lhs(p2, random_values(64, 96, Scalar::s8, rng),
                                   cfg.precision, needs_shuffle(cfg));
  const auto b = prepare_spmm_rhs(random_values(96, 128, Scalar::s8, rng),
                                  cfg.precision);
  const SpmmPlanHandle plan = build_spmm_plan(a1, 128, cfg);
  EXPECT_NO_THROW(spmm(a1, b, cfg, *plan));
  EXPECT_THROW(spmm(a2, b, cfg, *plan), Error);  // different slot layout
  // Different N than planned.
  const auto b_wide = prepare_spmm_rhs(
      random_values(96, 256, Scalar::s8, rng), cfg.precision);
  EXPECT_THROW(spmm(a1, b_wide, cfg, *plan), Error);

  // Same vector count but different columns: the per-slot row-base check
  // must reject what the size proxies cannot distinguish.
  const auto p3 = shift_one_column(p1);
  const auto a3 = prepare_spmm_lhs(p3, random_values(64, 96, Scalar::s8, rng),
                                   cfg.precision, needs_shuffle(cfg));
  EXPECT_THROW(spmm(a3, b, cfg, *plan), Error);
}

TEST(SpmmPlan, RejectsSignednessMismatch) {
  // A plan built for a signed LHS bakes in the bias-correction schedule;
  // replaying it against an unsigned operand of the same plane count must
  // throw, not silently bias-correct unsigned data (v=2 stacks the two s16
  // planes, so bias_correct is armed).
  Rng rng(127);
  const auto pattern = sparse::make_uniform_pattern(8, 32, 2, 0.25, rng);
  SpmmConfig cfg;
  cfg.precision = PrecisionPair{Scalar::s16, Scalar::s8};
  cfg.mode = ExecMode::fast;
  const auto a_signed = prepare_spmm_lhs(
      pattern, random_values(8, 32, Scalar::s16, rng), cfg.precision,
      needs_shuffle(cfg));
  const SpmmPlanHandle plan = build_spmm_plan(a_signed, 64, cfg);

  SpmmConfig ucfg = cfg;
  ucfg.precision = PrecisionPair{Scalar::u16, Scalar::s8};
  const auto a_unsigned = prepare_spmm_lhs(
      pattern, random_values(8, 32, Scalar::u16, rng), ucfg.precision,
      needs_shuffle(ucfg));
  const auto b = prepare_spmm_rhs(random_values(32, 64, Scalar::s8, rng),
                                  cfg.precision);
  EXPECT_THROW(spmm(a_unsigned, b, ucfg, *plan), Error);
}

TEST(SddmmPlan, RejectsDifferentPatternOfSameVectorCount) {
  // Two patterns with identical vector counts but different columns: the
  // SDDMM plan's column-base validation must reject the mismatch.
  Rng rng(128);
  const auto p1 = sparse::make_uniform_pattern(32, 64, 8, 0.5, rng);
  const auto p2 = shift_one_column(p1);
  SddmmConfig cfg;
  cfg.mode = ExecMode::fast;
  const SddmmPlanHandle plan = build_sddmm_plan(p1, 64, cfg);
  const auto a = prepare_dense(random_values(32, 64, Scalar::s8, rng),
                               Scalar::s8, true, 8);
  const auto b = prepare_dense(random_values(64, 64, Scalar::s8, rng),
                               Scalar::s8, false, 8);
  EXPECT_NO_THROW(sddmm(a, b, p1, cfg, *plan));
  EXPECT_THROW(sddmm(a, b, p2, cfg, *plan), Error);
}

// ---- Panel-schedule reuse -------------------------------------------------

struct PanelReuseCase {
  PrecisionPair precision;
  int v;
};

std::string panel_reuse_name(
    const ::testing::TestParamInfo<PanelReuseCase>& info) {
  std::string s = to_string(info.param.precision) + "_v" +
                  std::to_string(info.param.v);
  for (auto& ch : s) {
    if (ch == '-') ch = '_';
  }
  return s;
}

/// One plan's panel schedule, many RHS value sets: mutate the RHS between
/// runs and assert the panel replay stays bit-exact and counter-exact
/// against a fresh ExecMode::simulate run for every precision pair,
/// including the stacked-plane bias-correction path (v < 8).
class SpmmPanelReuseTest : public ::testing::TestWithParam<PanelReuseCase> {};

TEST_P(SpmmPanelReuseTest, PanelReplayBitExactAcrossMutatedRhs) {
  const PanelReuseCase& tc = GetParam();
  Rng rng(0x7a9e1 + static_cast<std::uint64_t>(bits_of(tc.precision.lhs)) * 8 +
          static_cast<std::uint64_t>(bits_of(tc.precision.rhs)) +
          static_cast<std::uint64_t>(tc.v));
  const std::size_t rows = 8 * static_cast<std::size_t>(tc.v);
  constexpr std::size_t kK = 96, kN = 128;
  const auto pattern = sparse::make_uniform_pattern(rows, kK, tc.v, 0.6, rng);

  SpmmConfig cfg;
  cfg.precision = tc.precision;
  const auto a_vals = random_values(rows, kK, tc.precision.lhs, rng);
  const auto a = prepare_spmm_lhs(pattern, a_vals, cfg.precision,
                                  needs_shuffle(cfg));
  const SpmmPlanHandle plan = build_spmm_plan(a, kN, cfg);

  for (int round = 0; round < 3; ++round) {
    const auto b_vals = random_values(kK, kN, tc.precision.rhs, rng);
    const auto b = prepare_spmm_rhs(b_vals, cfg.precision);

    cfg.mode = ExecMode::simulate;
    const SpmmResult sim = spmm(a, b, cfg);
    cfg.mode = ExecMode::fast;
    const SpmmResult panel = spmm(a, b, cfg, *plan);

    EXPECT_EQ(panel.c, sim.c) << "round " << round;
    EXPECT_EQ(panel.run.counters, sim.run.counters) << "round " << round;
    EXPECT_EQ(panel.run.counters, plan->run.counters) << "round " << round;
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllPrecisionPairs, SpmmPanelReuseTest,
    ::testing::Values(PanelReuseCase{precision::L16R16, 8},
                      PanelReuseCase{precision::L16R8, 8},
                      PanelReuseCase{precision::L8R8, 8},
                      PanelReuseCase{precision::L16R4, 8},
                      PanelReuseCase{precision::L12R4, 8},
                      PanelReuseCase{precision::L8R4, 8},
                      PanelReuseCase{precision::L4R4, 8},
                      // Stacked planes + bias correction ride the panel's
                      // biased decode rows.
                      PanelReuseCase{precision::L16R8, 2},
                      PanelReuseCase{precision::L16R4, 2},
                      PanelReuseCase{precision::L4R4, 4}),
    panel_reuse_name);

class SddmmPanelReuseTest : public ::testing::TestWithParam<PanelReuseCase> {};

TEST_P(SddmmPanelReuseTest, PanelReplayBitExactAcrossMutatedRhs) {
  const PanelReuseCase& tc = GetParam();
  Rng rng(0x5dd7 + static_cast<std::uint64_t>(bits_of(tc.precision.lhs)) +
          static_cast<std::uint64_t>(tc.v));
  const std::size_t rows = 8 * static_cast<std::size_t>(tc.v);
  constexpr std::size_t kKDepth = 128, kNCols = 96;
  const auto pattern =
      sparse::make_uniform_pattern(rows, kNCols, tc.v, 0.5, rng);

  SddmmConfig cfg;
  cfg.precision = tc.precision;
  const int chunk = rhs_chunk_bits(tc.precision);
  const SddmmPlanHandle plan = build_sddmm_plan(pattern, kKDepth, cfg);
  const auto a_vals = random_values(rows, kKDepth, tc.precision.lhs, rng);
  const auto a = prepare_dense(a_vals, tc.precision.lhs, true, chunk);

  for (int round = 0; round < 3; ++round) {
    const auto b_vals = random_values(kKDepth, kNCols, tc.precision.rhs, rng);
    const auto b = prepare_dense(b_vals, tc.precision.rhs, false, chunk);

    cfg.mode = ExecMode::simulate;
    const SddmmResult sim = sddmm(a, b, pattern, cfg);
    cfg.mode = ExecMode::fast;
    const SddmmResult panel = sddmm(a, b, pattern, cfg, *plan);

    EXPECT_EQ(panel.c.values, sim.c.values) << "round " << round;
    EXPECT_EQ(panel.run.counters, sim.run.counters) << "round " << round;
  }
}

INSTANTIATE_TEST_SUITE_P(
    PrecisionSweep, SddmmPanelReuseTest,
    ::testing::Values(PanelReuseCase{precision::L8R8, 8},
                      PanelReuseCase{precision::L4R4, 8},
                      PanelReuseCase{precision::L16R16, 8},
                      PanelReuseCase{precision::L16R16, 4}),
    panel_reuse_name);

// ---- Pattern-only plan build ----------------------------------------------

TEST(SpmmPlan, PatternOnlyBuildMatchesOperandBackedBuild) {
  // The structure-only overload must yield a plan interchangeable with one
  // built from a prepared operand: same analytic run, replays bit-exact.
  Rng rng(0x9a77);
  const auto pattern = sparse::make_uniform_pattern(64, 96, 8, 0.6, rng);
  for (const PrecisionPair prec :
       {precision::L8R8, precision::L4R4, precision::L16R8}) {
    SpmmConfig cfg;
    cfg.precision = prec;
    cfg.mode = ExecMode::fast;
    const auto a_vals = random_values(64, 96, prec.lhs, rng);
    const auto b_vals = random_values(96, 128, prec.rhs, rng);
    const auto a = prepare_spmm_lhs(pattern, a_vals, prec,
                                    needs_shuffle(cfg));
    const auto b = prepare_spmm_rhs(b_vals, prec);

    const SpmmPlanHandle from_operand = build_spmm_plan(a, 128, cfg);
    const SpmmPlanHandle from_pattern = build_spmm_plan(pattern, 128, cfg);
    EXPECT_EQ(from_pattern->run.counters, from_operand->run.counters);
    EXPECT_EQ(from_pattern->rhs_row_base, from_operand->rhs_row_base);

    const SpmmResult got = spmm(a, b, cfg, *from_pattern);
    EXPECT_EQ(got.c, reference_spmm(pattern, a_vals, b_vals))
        << to_string(prec);
  }
}

// ---- Mode selection -------------------------------------------------------

TEST(ExecModeTest, DefaultSwitchRoundTrips) {
  const ExecMode original = default_exec_mode();
  set_default_exec_mode(ExecMode::simulate);
  EXPECT_EQ(default_exec_mode(), ExecMode::simulate);
  set_default_exec_mode(ExecMode::fast);
  EXPECT_EQ(default_exec_mode(), ExecMode::fast);
  set_default_exec_mode(original);
  EXPECT_STREQ(to_string(ExecMode::simulate), "simulate");
  EXPECT_STREQ(to_string(ExecMode::fast), "fast");
}

// ---- Row-slice plan equivalence (the multi-device sharding substrate) -----
//
// sparse::slice_vector_rows cuts on SR-BCRS block-row boundaries, so a plan
// built from the slice must be the corresponding rows of the full plan:
// identical geometry-only schedules, the matching slot range of the
// resolved RHS row bases, per-row counters that sum back to the full plan
// (DRAM excepted: each shard re-reads its own RHS working set), and
// replayed values equal to the full result's rows.

struct SliceCase {
  PrecisionPair precision;
  int v;
  double sparsity;
  std::size_t vr_begin, vr_end;
};

std::string slice_case_name(const ::testing::TestParamInfo<SliceCase>& info) {
  const auto& p = info.param;
  std::string s = to_string(p.precision) + "_v" + std::to_string(p.v) + "_s" +
                  std::to_string(static_cast<int>(p.sparsity * 100)) + "_r" +
                  std::to_string(p.vr_begin) + "_" + std::to_string(p.vr_end);
  for (auto& ch : s) {
    if (ch == '-' || ch == '+' || ch == '.') ch = '_';
  }
  return s;
}

class RowSlicePlanTest : public ::testing::TestWithParam<SliceCase> {};

TEST_P(RowSlicePlanTest, SlicePlanMatchesFullPlanRows) {
  const SliceCase& tc = GetParam();
  constexpr std::size_t kK = 72;  // not a stride multiple: padding slots
  constexpr std::size_t kN = 128;
  Rng rng(0x51c50 + static_cast<std::uint64_t>(tc.v) * 131 +
          static_cast<std::uint64_t>(bits_of(tc.precision.lhs)));
  const std::size_t vr_total = 6;
  const std::size_t rows = vr_total * static_cast<std::size_t>(tc.v);
  const auto pattern =
      sparse::make_uniform_pattern(rows, kK, tc.v, tc.sparsity, rng);

  SpmmConfig cfg;
  cfg.precision = tc.precision;
  const SpmmPlanHandle full = build_spmm_plan(pattern, kN, cfg);

  const auto sliced =
      sparse::slice_vector_rows(pattern, tc.vr_begin, tc.vr_end);
  sliced.validate();
  const SpmmPlanHandle slice = build_spmm_plan(sliced, kN, cfg);

  // Geometry-only schedules are identical: they depend on the precision
  // pair and kernel config, never on which rows the plan covers.
  ASSERT_EQ(slice->a_panel_src.size(), full->a_panel_src.size());
  for (std::size_t g = 0; g < full->a_panel_src.size(); ++g) {
    for (int rr = 0; rr < 8; ++rr) {
      const auto& a = slice->a_panel_src[g][static_cast<std::size_t>(rr)];
      const auto& b = full->a_panel_src[g][static_cast<std::size_t>(rr)];
      EXPECT_EQ(a.plane, b.plane);
      EXPECT_EQ(a.row, b.row);
      EXPECT_EQ(a.biased, b.biased);
    }
  }
  EXPECT_EQ(slice->panel_k_slot, full->panel_k_slot);

  // The slice's resolved RHS row bases are exactly the corresponding slot
  // range of the full plan (padded slots included).
  const std::size_t st = static_cast<std::size_t>(full->geom.stride);
  std::size_t slot_first = 0, slot_last = 0;
  for (std::size_t r = 0; r < tc.vr_end; ++r) {
    const std::size_t padded =
        (pattern.vectors_in_row(r) + st - 1) / st * st;
    if (r < tc.vr_begin) slot_first += padded;
    slot_last += padded;
  }
  ASSERT_EQ(slice->rhs_row_base.size(), slot_last - slot_first);
  for (std::size_t s = 0; s < slice->rhs_row_base.size(); ++s) {
    EXPECT_EQ(slice->rhs_row_base[s], full->rhs_row_base[slot_first + s]);
  }

  // Grid and counters: the slice's blocks are the full plan's blocks for
  // its rows; with the complement slice they sum back to the full plan
  // everywhere except compulsory DRAM (each shard re-reads its own share
  // of the RHS working set).
  const auto head = sparse::slice_vector_rows(pattern, 0, tc.vr_begin);
  const auto tail = sparse::slice_vector_rows(pattern, tc.vr_end, vr_total);
  const SpmmPlanHandle head_plan = build_spmm_plan(head, kN, cfg);
  const SpmmPlanHandle tail_plan = build_spmm_plan(tail, kN, cfg);
  EXPECT_EQ(head_plan->run.launch.grid_blocks +
                slice->run.launch.grid_blocks +
                tail_plan->run.launch.grid_blocks,
            full->run.launch.grid_blocks);
  EXPECT_EQ(head_plan->run.pipeline.total_steps +
                slice->run.pipeline.total_steps +
                tail_plan->run.pipeline.total_steps,
            full->run.pipeline.total_steps);
  simt::KernelCounters summed = head_plan->run.counters;
  summed += slice->run.counters;
  summed += tail_plan->run.counters;
  simt::KernelCounters full_counters = full->run.counters;
  EXPECT_GE(summed.dram_bytes, full_counters.dram_bytes);
  summed.dram_bytes = full_counters.dram_bytes;  // compared separately above
  EXPECT_EQ(summed, full_counters);

  // Replayed values: the slice plan over the slice's operand rows computes
  // exactly the corresponding rows of the full result.
  const auto a_vals = random_values(rows, kK, tc.precision.lhs, rng);
  const auto b_vals = random_values(kK, kN, tc.precision.rhs, rng);
  const auto a = prepare_spmm_lhs(pattern, a_vals, cfg.precision,
                                  needs_shuffle(cfg));
  const auto b = prepare_spmm_rhs(b_vals, cfg.precision);
  cfg.mode = ExecMode::fast;
  const SpmmResult whole = spmm(a, b, cfg, *full);

  const std::size_t v = static_cast<std::size_t>(tc.v);
  Matrix<std::int32_t> a_slice_vals(sliced.rows, kK);
  for (std::size_t r = 0; r < sliced.rows; ++r) {
    for (std::size_t c = 0; c < kK; ++c) {
      a_slice_vals(r, c) = a_vals(tc.vr_begin * v + r, c);
    }
  }
  const auto a_slice = prepare_spmm_lhs(sliced, a_slice_vals, cfg.precision,
                                        needs_shuffle(cfg));
  const SpmmResult part = spmm(a_slice, b, cfg, *slice);
  ASSERT_EQ(part.c.rows(), sliced.rows);
  for (std::size_t r = 0; r < part.c.rows(); ++r) {
    for (std::size_t c = 0; c < kN; ++c) {
      ASSERT_EQ(part.c(r, c), whole.c(tc.vr_begin * v + r, c))
          << "row " << r << " col " << c;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    SliceSweep, RowSlicePlanTest,
    ::testing::Values(
        SliceCase{precision::L8R8, 8, 0.7, 0, 3},
        SliceCase{precision::L8R8, 8, 0.7, 3, 6},
        SliceCase{precision::L8R8, 8, 0.7, 2, 4},
        // Stacked-plane pairs (v < 8 packs plane groups into one mma).
        SliceCase{precision::L16R8, 4, 0.7, 1, 5},
        SliceCase{precision::L16R16, 2, 0.6, 2, 6},
        SliceCase{precision::L12R4, 4, 0.8, 0, 4},
        // int4 datapath with index shuffling.
        SliceCase{precision::L4R4, 8, 0.7, 1, 4},
        SliceCase{precision::L8R4, 8, 0.8, 4, 6},
        // Whole-pattern "slice" and empty slices at both ends.
        SliceCase{precision::L8R8, 8, 0.7, 0, 6},
        SliceCase{precision::L8R8, 8, 0.7, 0, 0},
        SliceCase{precision::L16R8, 4, 0.7, 6, 6}),
    slice_case_name);

TEST(RowSlicePlanTest, EmptyRowsSliceBuildsAndReplaysZero) {
  // Rows with no vectors at all (sparsity 1.0) still slice, plan and
  // replay: zero-step blocks write zero rows.
  Rng rng(0xe31);
  const auto pattern = sparse::make_uniform_pattern(32, 64, 8, 1.0, rng);
  ASSERT_EQ(pattern.vector_count(), 0u);
  SpmmConfig cfg;
  cfg.mode = ExecMode::fast;
  const auto sliced = sparse::slice_vector_rows(pattern, 1, 3);
  const SpmmPlanHandle plan = build_spmm_plan(sliced, 64, cfg);
  EXPECT_EQ(plan->run.launch.grid_blocks, 2u * 1u);

  const auto a_vals = random_values(sliced.rows, 64, Scalar::s8, rng);
  const auto b_vals = random_values(64, 64, Scalar::s8, rng);
  const auto a = prepare_spmm_lhs(sliced, a_vals, cfg.precision,
                                  needs_shuffle(cfg));
  const auto b = prepare_spmm_rhs(b_vals, cfg.precision);
  const SpmmResult r = spmm(a, b, cfg, *plan);
  for (std::size_t i = 0; i < r.c.size(); ++i) {
    ASSERT_EQ(r.c.data()[i], 0);
  }
}

// ---- SDDMM row-slice plan equivalence -------------------------------------
//
// The SDDMM mirror of the suite above, backing the DevicePool's SDDMM
// row-sharding: a plan built from a vector-row slice must be the
// corresponding blocks of the full plan (identical geometry-only
// schedules, the matching slot range of the resolved RHS column bases, a
// block map that is the full map's rows shifted by the slice origin),
// counters that sum back to the full plan (compulsory DRAM and the
// slot-alignment-sensitive index-read sectors excepted), and
// replayed values equal to the full result's slots — the bit-exactness the
// BCRS concatenation merge relies on.

struct SddmmSliceCase {
  PrecisionPair precision;
  int v;
  double sparsity;
  std::size_t vr_begin, vr_end;
};

std::string sddmm_slice_case_name(
    const ::testing::TestParamInfo<SddmmSliceCase>& info) {
  const auto& p = info.param;
  std::string s = to_string(p.precision) + "_v" + std::to_string(p.v) + "_s" +
                  std::to_string(static_cast<int>(p.sparsity * 100)) + "_r" +
                  std::to_string(p.vr_begin) + "_" + std::to_string(p.vr_end);
  for (auto& ch : s) {
    if (ch == '-' || ch == '+' || ch == '.') ch = '_';
  }
  return s;
}

class SddmmRowSlicePlanTest
    : public ::testing::TestWithParam<SddmmSliceCase> {};

TEST_P(SddmmRowSlicePlanTest, SlicePlanMatchesFullPlanBlocks) {
  const SddmmSliceCase& tc = GetParam();
  constexpr std::size_t kK = 64;  // a multiple of every pair's mma k
  constexpr std::size_t kN = 96;
  Rng rng(0x5dd50 + static_cast<std::uint64_t>(tc.v) * 131 +
          static_cast<std::uint64_t>(bits_of(tc.precision.lhs)));
  const std::size_t vr_total = 6;
  const std::size_t rows = vr_total * static_cast<std::size_t>(tc.v);
  const auto pattern =
      sparse::make_uniform_pattern(rows, kN, tc.v, tc.sparsity, rng);

  SddmmConfig cfg;
  cfg.precision = tc.precision;
  const SddmmPlanHandle full = build_sddmm_plan(pattern, kK, cfg);

  const auto sliced =
      sparse::slice_vector_rows(pattern, tc.vr_begin, tc.vr_end);
  sliced.validate();
  const SddmmPlanHandle slice = build_sddmm_plan(sliced, kK, cfg);

  // Geometry-only schedules are identical: they depend on the precision
  // pair, K and the config, never on which rows the plan covers.
  EXPECT_EQ(slice->geom.stride, full->geom.stride);
  EXPECT_EQ(slice->geom.chunk, full->geom.chunk);
  EXPECT_EQ(slice->geom.epw, full->geom.epw);
  EXPECT_EQ(slice->geom.int4path, full->geom.int4path);
  EXPECT_EQ(slice->geom.v, full->geom.v);
  EXPECT_EQ(slice->geom.p, full->geom.p);
  EXPECT_EQ(slice->geom.q, full->geom.q);
  EXPECT_EQ(slice->geom.k, full->geom.k);
  EXPECT_EQ(slice->geom.steps, full->geom.steps);
  EXPECT_EQ(slice->geom.lhs_words_per_plane, full->geom.lhs_words_per_plane);
  EXPECT_EQ(slice->geom.smem_bytes, full->geom.smem_bytes);
  EXPECT_EQ(slice->a_panel_row_base, full->a_panel_row_base);

  // The slice's resolved RHS column bases are exactly the corresponding
  // slot range of the full plan (slots = pattern vectors for SDDMM — the
  // output mirrors the pattern, no padding in the vector indexing).
  const std::size_t slot_first = pattern.row_ptr[tc.vr_begin];
  const std::size_t slot_last = pattern.row_ptr[tc.vr_end];
  ASSERT_EQ(slice->rhs_col_base.size(), slot_last - slot_first);
  for (std::size_t s = 0; s < slice->rhs_col_base.size(); ++s) {
    EXPECT_EQ(slice->rhs_col_base[s], full->rhs_col_base[slot_first + s]);
  }

  // Block map: the slice's blocks are the full plan's blocks for its rows,
  // with row ids and slot bases shifted by the slice origin.
  const auto head = sparse::slice_vector_rows(pattern, 0, tc.vr_begin);
  const auto tail = sparse::slice_vector_rows(pattern, tc.vr_end, vr_total);
  const SddmmPlanHandle head_plan = build_sddmm_plan(head, kK, cfg);
  const SddmmPlanHandle tail_plan = build_sddmm_plan(tail, kK, cfg);
  const std::size_t head_blocks = head_plan->map.row.size();
  ASSERT_EQ(head_blocks + slice->map.row.size() + tail_plan->map.row.size(),
            full->map.row.size());
  for (std::size_t b = 0; b < slice->map.row.size(); ++b) {
    EXPECT_EQ(slice->map.row[b] + tc.vr_begin, full->map.row[head_blocks + b]);
    EXPECT_EQ(slice->map.slot_base[b] + slot_first,
              full->map.slot_base[head_blocks + b]);
    EXPECT_EQ(slice->map.valid[b], full->map.valid[head_blocks + b]);
  }

  // Grid and counters: with the complement slices they sum back to the
  // full plan everywhere except compulsory DRAM (each shard re-reads its
  // own share of the B working set).
  EXPECT_EQ(head_plan->run.launch.grid_blocks +
                slice->run.launch.grid_blocks +
                tail_plan->run.launch.grid_blocks,
            full->run.launch.grid_blocks);
  EXPECT_EQ(head_plan->run.pipeline.total_steps +
                slice->run.pipeline.total_steps +
                tail_plan->run.pipeline.total_steps,
            full->run.pipeline.total_steps);
  simt::KernelCounters summed = head_plan->run.counters;
  summed += slice->run.counters;
  summed += tail_plan->run.counters;
  simt::KernelCounters full_counters = full->run.counters;
  EXPECT_GE(summed.dram_bytes, full_counters.dram_bytes);
  summed.dram_bytes = full_counters.dram_bytes;  // compared separately above
  // Each block's index read starts at its slice-relative slot offset, so
  // its 32-byte-sector straddle can differ from the full plan's (globally
  // based) read by at most one sector per block in either direction.
  const std::uint64_t blocks = full->run.launch.grid_blocks;
  EXPECT_LE(summed.gmem_load_sectors, full_counters.gmem_load_sectors + blocks);
  EXPECT_GE(summed.gmem_load_sectors + blocks, full_counters.gmem_load_sectors);
  summed.gmem_load_sectors = full_counters.gmem_load_sectors;
  EXPECT_EQ(summed, full_counters);

  // Replayed values: the slice plan over the slice's A rows computes
  // exactly the corresponding slots of the full sampled output, and the
  // output encoding mirrors the slice pattern (the concat-merge premise).
  const auto a_vals = random_values(rows, kK, tc.precision.lhs, rng);
  const auto b_vals = random_values(kK, kN, tc.precision.rhs, rng);
  const int chunk = bits_of(tc.precision.rhs) <= 4 ? 4 : 8;
  const auto a = prepare_dense(a_vals, tc.precision.lhs, true, chunk);
  const auto b = prepare_dense(b_vals, tc.precision.rhs, false, chunk);
  cfg.mode = ExecMode::fast;
  const SddmmResult whole = sddmm(a, b, pattern, cfg, *full);

  const std::size_t v = static_cast<std::size_t>(tc.v);
  Matrix<std::int32_t> a_slice_vals(sliced.rows, kK);
  for (std::size_t r = 0; r < sliced.rows; ++r) {
    for (std::size_t c = 0; c < kK; ++c) {
      a_slice_vals(r, c) = a_vals(tc.vr_begin * v + r, c);
    }
  }
  const auto a_slice = prepare_dense(a_slice_vals, tc.precision.lhs, true,
                                     chunk);
  const SddmmResult part = sddmm(a_slice, b, sliced, cfg, *slice);
  ASSERT_EQ(part.c.col_idx.size(), slot_last - slot_first);
  for (std::size_t s = 0; s < part.c.col_idx.size(); ++s) {
    EXPECT_EQ(part.c.col_idx[s], pattern.col_idx[slot_first + s]);
  }
  ASSERT_EQ(part.c.values.size(), (slot_last - slot_first) * v);
  for (std::size_t i = 0; i < part.c.values.size(); ++i) {
    ASSERT_EQ(part.c.values[i], whole.c.values[slot_first * v + i])
        << "value " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(
    SddmmSliceSweep, SddmmRowSlicePlanTest,
    ::testing::Values(
        SddmmSliceCase{precision::L8R8, 8, 0.7, 0, 3},
        SddmmSliceCase{precision::L8R8, 8, 0.7, 3, 6},
        SddmmSliceCase{precision::L8R8, 8, 0.7, 2, 4},
        // Plane-emulated 16-bit pair and the int4 datapath.
        SddmmSliceCase{precision::L16R16, 8, 0.6, 1, 5},
        SddmmSliceCase{precision::L4R4, 8, 0.7, 1, 4},
        // Narrow vectors (V < 8 leaves inactive lanes in the schedule).
        SddmmSliceCase{precision::L8R8, 4, 0.6, 2, 6},
        // Whole-pattern "slice" and empty slices at both ends.
        SddmmSliceCase{precision::L8R8, 8, 0.7, 0, 6},
        SddmmSliceCase{precision::L8R8, 8, 0.7, 0, 0},
        SddmmSliceCase{precision::L4R4, 8, 0.7, 6, 6}),
    sddmm_slice_case_name);

TEST(ExecModeTest, ConfigModeOverridesProcessDefault) {
  // An explicit config mode wins over the process default in both
  // directions; results agree either way (sanity anchor).
  Rng rng(126);
  const auto pattern = sparse::make_uniform_pattern(32, 64, 8, 0.5, rng);
  const auto a_vals = random_values(32, 64, Scalar::s8, rng);
  const auto b_vals = random_values(64, 64, Scalar::s8, rng);
  SpmmConfig cfg;
  const auto a = prepare_spmm_lhs(pattern, a_vals, cfg.precision,
                                  needs_shuffle(cfg));
  const auto b = prepare_spmm_rhs(b_vals, cfg.precision);

  const ExecMode original = default_exec_mode();
  set_default_exec_mode(ExecMode::fast);
  cfg.mode = ExecMode::simulate;
  const SpmmResult sim = spmm(a, b, cfg);
  set_default_exec_mode(ExecMode::simulate);
  cfg.mode = ExecMode::fast;
  const SpmmResult fast = spmm(a, b, cfg);
  set_default_exec_mode(original);

  EXPECT_EQ(fast.c, sim.c);
  EXPECT_EQ(fast.run.counters, sim.run.counters);
}

// ---- bucketed replay: equivalence across pattern families ----------------
//
// Plans record the per-row / per-block kernel ids and the panel replay
// dispatches on them. The specialized bucket kernels must be bit-exact mod
// 2^32 with the lane-accurate simulation on every pattern family (uniform,
// banded, DLMC-style), and the analytic estimators must report the same
// bucket census the builder recorded (the SLA layer prices from either
// interchangeably).

enum class PatternFamilyCase { uniform, banded, dlmc };

struct BucketEquivCase {
  PatternFamilyCase family = PatternFamilyCase::uniform;
  PrecisionPair precision;
  int v = 8;
  double sparsity = 0.7;
};

std::string bucket_case_name(
    const ::testing::TestParamInfo<BucketEquivCase>& info) {
  const auto& p = info.param;
  const char* fam = p.family == PatternFamilyCase::uniform   ? "uniform"
                    : p.family == PatternFamilyCase::banded ? "banded"
                                                            : "dlmc";
  std::string s = std::string(fam) + "_" + to_string(p.precision) + "_v" +
                  std::to_string(p.v);
  for (auto& ch : s) {
    if (ch == '-' || ch == '+' || ch == '.') ch = '_';
  }
  return s;
}

sparse::BlockPattern bucket_case_pattern(const BucketEquivCase& tc,
                                         std::size_t rows, std::size_t cols,
                                         Rng& rng) {
  switch (tc.family) {
    case PatternFamilyCase::uniform:
      return sparse::make_uniform_pattern(rows, cols, tc.v, tc.sparsity, rng);
    case PatternFamilyCase::banded:
      return sparse::make_banded_pattern(rows, cols, tc.v, tc.sparsity, 0.15,
                                         rng);
    case PatternFamilyCase::dlmc: {
      dlmc::MatrixSpec spec;
      spec.rows = rows / static_cast<std::size_t>(tc.v);
      spec.cols = cols;
      spec.sparsity = tc.sparsity;
      spec.kind = dlmc::PatternKind::banded;
      spec.seed = rng.next_u64();
      return dlmc::instantiate(spec, tc.v);
    }
  }
  return sparse::make_uniform_pattern(rows, cols, tc.v, tc.sparsity, rng);
}

class BucketEquivalenceTest : public ::testing::TestWithParam<BucketEquivCase> {
};

TEST_P(BucketEquivalenceTest, SpmmToggleBitExactAndEstimatorCensusMatches) {
  const BucketEquivCase& tc = GetParam();
  constexpr std::size_t kK = 96;
  constexpr std::size_t kN = 128;  // bsn 64: two fixed-width column blocks
  Rng rng(0xb0c4e7 + static_cast<std::uint64_t>(tc.v) +
          static_cast<std::uint64_t>(bits_of(tc.precision.lhs)));
  const std::size_t rows = 6 * static_cast<std::size_t>(tc.v);
  const auto pattern = bucket_case_pattern(tc, rows, kK, rng);
  const auto a_vals = random_values(rows, kK, tc.precision.lhs, rng);
  const auto b_vals = random_values(kK, kN, tc.precision.rhs, rng);

  SpmmConfig cfg;
  cfg.precision = tc.precision;
  const auto a = prepare_spmm_lhs(pattern, a_vals, cfg.precision,
                                  needs_shuffle(cfg));
  const auto b = prepare_spmm_rhs(b_vals, cfg.precision);
  const SpmmPlanHandle plan = build_spmm_plan(a, kN, cfg);
  ASSERT_EQ(plan->row_kernel.size(), pattern.vector_rows());

  cfg.mode = ExecMode::simulate;
  const SpmmResult sim = spmm(a, b, cfg);
  cfg.mode = ExecMode::fast;
  const SpmmResult bucketed = spmm(a, b, cfg, *plan);
  EXPECT_EQ(bucketed.c, sim.c);

  // Estimator census == builder census, bucket by bucket.
  const simt::KernelRun est = spmm_estimate(pattern, kN, cfg);
  EXPECT_EQ(est.counters, plan->run.counters);
  const auto& buckets = plan->run.counters.spmm_bucket_blocks;
  std::uint64_t census = 0;
  for (const std::uint64_t c : buckets) census += c;
  EXPECT_EQ(census, plan->run.launch.grid_blocks);

  // A plane stacking whose last group is short (L12R4 at v = 4: p = 3,
  // s = 2) must reach the row-limited `stacked` kernel.
  const detail::SpmmGeom& g = plan->geom;
  if (g.s > 1 && g.group_size(g.g - 1) < g.s) {
    EXPECT_GT(buckets[static_cast<std::size_t>(PanelKernelId::stacked)], 0u);
  }
}

TEST_P(BucketEquivalenceTest, SddmmToggleBitExactAndEstimatorCensusMatches) {
  const BucketEquivCase& tc = GetParam();
  constexpr std::size_t kK = 64;
  constexpr std::size_t kNCols = 96;
  Rng rng(0x5ddb0c + static_cast<std::uint64_t>(tc.v) +
          static_cast<std::uint64_t>(bits_of(tc.precision.lhs)));
  const std::size_t rows = 6 * static_cast<std::size_t>(tc.v);
  const auto pattern = bucket_case_pattern(tc, rows, kNCols, rng);
  const auto a_vals = random_values(rows, kK, tc.precision.lhs, rng);
  const auto b_vals = random_values(kK, kNCols, tc.precision.rhs, rng);

  SddmmConfig cfg;
  cfg.precision = tc.precision;
  const int chunk = rhs_chunk_bits(cfg.precision);
  const auto a = prepare_dense(a_vals, cfg.precision.lhs, true, chunk);
  const auto b = prepare_dense(b_vals, cfg.precision.rhs, false, chunk);
  const SddmmPlanHandle plan = build_sddmm_plan(pattern, kK, cfg);
  ASSERT_EQ(plan->block_kernel.size(), plan->map.row.size());

  cfg.mode = ExecMode::simulate;
  const SddmmResult sim = sddmm(a, b, pattern, cfg);
  cfg.mode = ExecMode::fast;
  const SddmmResult bucketed = sddmm(a, b, pattern, cfg, *plan);
  EXPECT_EQ(bucketed.c.values, sim.c.values);

  const simt::KernelRun est = sddmm_estimate(pattern, kK, cfg);
  EXPECT_EQ(est.counters, plan->run.counters);
  std::uint64_t census = 0;
  for (const std::uint64_t c : plan->run.counters.sddmm_bucket_blocks) {
    census += c;
  }
  EXPECT_EQ(census, plan->run.launch.grid_blocks);
}

INSTANTIATE_TEST_SUITE_P(
    PatternFamilies, BucketEquivalenceTest,
    ::testing::Values(
        // uniform: every precision datapath, full and narrow vectors.
        BucketEquivCase{PatternFamilyCase::uniform, precision::L8R8, 8, 0.7},
        BucketEquivCase{PatternFamilyCase::uniform, precision::L4R4, 8, 0.7},
        BucketEquivCase{PatternFamilyCase::uniform, precision::L16R16, 8, 0.6},
        BucketEquivCase{PatternFamilyCase::uniform, precision::L16R4, 2, 0.8},
        BucketEquivCase{PatternFamilyCase::uniform, precision::L12R4, 8, 0.7},
        // p = 3 planes stacked s = 2 per mma: the last group is short.
        BucketEquivCase{PatternFamilyCase::uniform, precision::L12R4, 4, 0.7},
        // banded: clustered columns exercise tail/partial blocks.
        BucketEquivCase{PatternFamilyCase::banded, precision::L8R8, 8, 0.7},
        BucketEquivCase{PatternFamilyCase::banded, precision::L16R8, 4, 0.6},
        BucketEquivCase{PatternFamilyCase::banded, precision::L4R4, 8, 0.8},
        // DLMC-style dilated patterns (the Fig. 12 input family).
        BucketEquivCase{PatternFamilyCase::dlmc, precision::L8R8, 8, 0.7},
        BucketEquivCase{PatternFamilyCase::dlmc, precision::L8R4, 8, 0.8},
        BucketEquivCase{PatternFamilyCase::dlmc, precision::L16R16, 8, 0.5}),
    bucket_case_name);

// Dense/empty edges: sparsity 0 (every row full) and 1 (every row empty —
// the `empty` bucket) replay bit-exactly against the simulation.
TEST(BucketEquivalence, SparsityEdgesToggleBitExact) {
  for (const double sparsity : {0.0, 1.0}) {
    Rng rng(0xed9e + static_cast<std::uint64_t>(sparsity * 10));
    const auto pattern = sparse::make_uniform_pattern(32, 64, 8, sparsity, rng);
    const auto a_vals = random_values(32, 64, Scalar::s8, rng);
    const auto b_vals = random_values(64, 64, Scalar::s8, rng);
    SpmmConfig cfg;
    const auto a = prepare_spmm_lhs(pattern, a_vals, cfg.precision,
                                    needs_shuffle(cfg));
    const auto b = prepare_spmm_rhs(b_vals, cfg.precision);
    const SpmmPlanHandle plan = build_spmm_plan(a, 64, cfg);

    cfg.mode = ExecMode::simulate;
    const SpmmResult sim = spmm(a, b, cfg);
    cfg.mode = ExecMode::fast;
    const SpmmResult bucketed = spmm(a, b, cfg, *plan);
    EXPECT_EQ(bucketed.c, sim.c) << "sparsity " << sparsity;
  }
}

// Non-default column-block widths (bsn != 64) are rejected outright — the
// execution engines implement the 64-wide tile only (2 warps x 32 output
// columns); anything else used to overrun the C matrix silently.
TEST(BucketEquivalence, NonDefaultBsnRejected) {
  Rng rng(0xb539);
  const auto pattern = sparse::make_uniform_pattern(32, 64, 8, 0.6, rng);
  const auto a_vals = random_values(32, 64, Scalar::s8, rng);
  const auto b_vals = random_values(64, 64, Scalar::s8, rng);
  SpmmConfig cfg;
  cfg.bsn = 32;
  const auto a = prepare_spmm_lhs(pattern, a_vals, cfg.precision,
                                  needs_shuffle(cfg));
  const auto b = prepare_spmm_rhs(b_vals, cfg.precision);
  EXPECT_THROW(build_spmm_plan(a, 64, cfg), Error);
  EXPECT_THROW(spmm_estimate(pattern, 64, cfg), Error);
  cfg.mode = ExecMode::simulate;
  EXPECT_THROW(spmm(a, b, cfg), Error);
  cfg.mode = ExecMode::fast;
  EXPECT_THROW(spmm(a, b, cfg), Error);
}

// The classifier itself still demotes any future non-64 tile width to the
// runtime-width generic kernel — the fixed-width buckets never see it.
TEST(BucketEquivalence, NonDefaultBsnClassifiesGeneric) {
  detail::SpmmGeom g;  // defaults: g=1, q=1, no bias correction
  g.bsn = 64;
  EXPECT_EQ(detail::classify_spmm_row(g, 4), PanelKernelId::fused);
  g.bsn = 32;
  EXPECT_EQ(detail::classify_spmm_row(g, 4), PanelKernelId::generic);
  EXPECT_EQ(detail::classify_spmm_row(g, 0), PanelKernelId::empty);
  g.q = 2;
  g.bsn = 64;
  EXPECT_EQ(detail::classify_spmm_row(g, 4), PanelKernelId::fixed64);
  g.bsn = 128;
  EXPECT_EQ(detail::classify_spmm_row(g, 4), PanelKernelId::generic);
}

}  // namespace
}  // namespace magicube::core
