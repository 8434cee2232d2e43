// Plan/execute architecture: the PB plan-build/execute split, structural
// fingerprints, the sampled compression-factor estimator and the
// roofline-guided selection heuristic behind "auto".
#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>

#include "common/parallel.hpp"
#include "matrix/mstats.hpp"
#include "model/selection.hpp"
#include "pb/plan.hpp"
#include "spgemm/executor.hpp"
#include "spgemm/registry.hpp"
#include "spgemm/semiring.hpp"
#include "test_util.hpp"

namespace pbs {
namespace {

// ---- PB layer: pb_plan_build / pb_execute --------------------------------

TEST(PbPlan, ExecuteMatchesFreshPipelineAcrossSemirings) {
  const mtx::CsrMatrix a = testutil::exact_er(300, 300, 6.0, 11);
  const SpGemmProblem p = SpGemmProblem::square(a);
  const pb::PbConfig cfg;
  const pb::PbPlan plan = pb::pb_plan_build(p.a_csc, p.b_csr, cfg);

  for (const std::string& s : semiring_names()) {
    pb::PbWorkspace plan_ws;
    const pb::PbResult fresh =
        testutil::pb_plan_execute(p.a_csc, p.b_csr, cfg, s);
    const pb::PbResult planned =
        pb::pb_execute_named(s, p.a_csc, p.b_csr, plan, plan_ws);
    EXPECT_TRUE(mtx::equal_exact(fresh.c, planned.c)) << s;
    // Analysis was paid at build time, not at execute time.
    EXPECT_EQ(planned.stats.symbolic.seconds, 0.0) << s;
    EXPECT_EQ(planned.stats.flop, fresh.stats.flop) << s;
  }
  EXPECT_GT(plan.symbolic.seconds, 0.0);
}

TEST(PbPlan, ReexecutionSkipsAllocation) {
  const mtx::CsrMatrix a = testutil::exact_er(400, 400, 8.0, 12);
  const SpGemmProblem p = SpGemmProblem::square(a);
  const pb::PbPlan plan = pb::pb_plan_build(p.a_csc, p.b_csr, {});

  pb::PbWorkspace ws;
  const pb::PbResult first = pb::pb_execute<PlusTimes>(p.a_csc, p.b_csr, plan, ws);
  const pb::PbWorkspace::Stats after_first = ws.stats();
  EXPECT_EQ(after_first.allocations, 1u);
  EXPECT_GE(after_first.scratch_allocations, 1u);

  for (int i = 0; i < 4; ++i) {
    const pb::PbResult again =
        pb::pb_execute<PlusTimes>(p.a_csc, p.b_csr, plan, ws);
    EXPECT_TRUE(mtx::equal_exact(first.c, again.c));
  }
  const pb::PbWorkspace::Stats steady = ws.stats();
  // Steady state: every pool request is served from retained capacity.
  EXPECT_EQ(steady.allocations, after_first.allocations);
  EXPECT_EQ(steady.scratch_allocations, after_first.scratch_allocations);
  EXPECT_EQ(steady.reuses, after_first.reuses + 4);
  EXPECT_GT(steady.scratch_reuses, after_first.scratch_reuses);
}

TEST(PbPlan, MismatchedInnerDimensionsThrowBeforeAnyFlopPass) {
  // a.ncols != b.nrows must throw from every fingerprint/flop entry point
  // (regression: the flop pass walks b's rows by a's column index and
  // previously read past b.rowptr before pb_symbolic's check ran).
  const mtx::CsrMatrix a = testutil::exact_er(30, 50, 3.0, 27);
  const mtx::CsrMatrix b = testutil::exact_er(20, 30, 3.0, 28);
  const SpGemmProblem p = SpGemmProblem::multiply(a, b);  // 50 vs 20 inner
  EXPECT_THROW((void)pb::pb_count_flop(p.a_csc, p.b_csr),
               std::invalid_argument);
  EXPECT_THROW((void)pb::pb_estimate_nnz_c(p.a_csr, p.b_csr, {}),
               std::invalid_argument);
  EXPECT_THROW((void)pb::StructureFingerprint::of(p.a_csc, p.b_csr),
               std::invalid_argument);
  EXPECT_THROW(SpGemmExecutor().prepare(p), std::invalid_argument);
}

TEST(PbPlan, RejectsStructurallyDifferentOperands) {
  const mtx::CsrMatrix a = testutil::exact_er(200, 200, 5.0, 13);
  const mtx::CsrMatrix other = testutil::exact_er(150, 150, 5.0, 14);
  const SpGemmProblem pa = SpGemmProblem::square(a);
  const SpGemmProblem po = SpGemmProblem::square(other);
  const pb::PbPlan plan = pb::pb_plan_build(pa.a_csc, pa.b_csr, {});

  pb::PbWorkspace ws;
  EXPECT_THROW(
      (void)pb::pb_execute<PlusTimes>(po.a_csc, po.b_csr, plan, ws),
      std::invalid_argument);
  EXPECT_TRUE(plan.matches(pa.a_csc, pa.b_csr));
  EXPECT_FALSE(plan.matches(po.a_csc, po.b_csr));
}

TEST(PbPlan, FingerprintDistinguishesSameAggregateStructures) {
  // Two permutation matrices agree on every aggregate the fingerprint
  // held before the structural hash: same dims, nnz = n, and flop(P²) = n
  // for ANY permutation.  Only the sampled structure hash tells them
  // apart — without it the plan cache would serve the identity's plan for
  // the reversal's multiplication.
  constexpr index_t n = 512;
  const auto permutation = [](index_t size, bool reversed) {
    mtx::CsrMatrix m(size, size);
    for (index_t r = 0; r < size; ++r) {
      m.rowptr[static_cast<std::size_t>(r) + 1] = r + 1;
      m.colids.push_back(reversed ? size - 1 - r : r);
      m.vals.push_back(1.0);
    }
    return m;
  };
  const mtx::CsrMatrix ident = permutation(n, false);
  const mtx::CsrMatrix rev = permutation(n, true);
  const SpGemmProblem pi = SpGemmProblem::square(ident);
  const SpGemmProblem pr = SpGemmProblem::square(rev);
  const pb::StructureFingerprint fi =
      pb::StructureFingerprint::of(pi.a_csc, pi.b_csr);
  const pb::StructureFingerprint fr =
      pb::StructureFingerprint::of(pr.a_csc, pr.b_csr);
  EXPECT_EQ(fi.a_nnz, fr.a_nnz);
  EXPECT_EQ(fi.flop, fr.flop);
  EXPECT_NE(fi.structure_hash, fr.structure_hash);
  EXPECT_FALSE(fi == fr);

  // Value updates keep the hash (it samples pointers and indices, never
  // values): fingerprint-verified re-execution still matches.
  mtx::CsrMatrix scaled = ident;
  for (value_t& v : scaled.vals) v *= 3.0;
  const SpGemmProblem ps = SpGemmProblem::square(scaled);
  EXPECT_TRUE(fi == pb::StructureFingerprint::of(ps.a_csc, ps.b_csr));
}

// ---- compression-factor estimator ----------------------------------------

pb::NnzEstimate estimate_square(const mtx::CsrMatrix& a) {
  const SpGemmProblem p = SpGemmProblem::square(a);
  return pb::pb_estimate_nnz_c(p.a_csr, p.b_csr,
                               pb::pb_row_flops(p.a_csc, p.b_csr));
}

// The `cant` recipe of matrix/surrogates at a small n: at n 1000 the flop
// is 4.1M, so the estimator samples every 32nd row.  The square compresses
// about 17×; a model of each row's flop landing uniformly over all columns
// overestimates its nnz 4× (12× at n 7806).
mtx::CsrMatrix cant_like(index_t n) {
  return mtx::coo_to_csr(mtx::generate_banded(n, 64.17, 67, 91));
}

double rel_error(nnz_t est, nnz_t actual) {
  return std::abs(static_cast<double>(est) / static_cast<double>(actual) - 1.0);
}

TEST(Estimator, WithinTenPercentOnABandedSquare) {
  const mtx::CsrMatrix a = cant_like(1000);
  ASSERT_GT(mtx::count_flops(a, a), nnz_t{32} << 16);  // sampled, not exact
  const nnz_t actual = mtx::symbolic_nnz(a, a);
  EXPECT_LT(rel_error(estimate_square(a).nnz, actual), 0.10);
}

TEST(Estimator, WithinFivePercentOnEr) {
  const mtx::CsrMatrix a = testutil::exact_er(20000, 20000, 8.0, 15);
  ASSERT_GT(mtx::count_flops(a, a), nnz_t{1} << 16);  // sampled, not exact
  const nnz_t actual = mtx::symbolic_nnz(a, a);
  EXPECT_LT(rel_error(estimate_square(a).nnz, actual), 0.05);
}

TEST(Estimator, ExactWhenFlopFitsTheBudget) {
  const mtx::CsrMatrix a = testutil::exact_er(500, 500, 8.0, 16);
  ASSERT_LE(mtx::count_flops(a, a), nnz_t{1} << 16);
  EXPECT_EQ(estimate_square(a).nnz, mtx::symbolic_nnz(a, a));
}

TEST(Estimator, IdenticalAtOneAndFourThreads) {
  for (const mtx::CsrMatrix& a :
       {cant_like(1000), testutil::exact_er(20000, 20000, 8.0, 17)}) {
    nnz_t one = 0;
    nnz_t four = 0;
    {
      const ThreadCountGuard g(1);
      one = estimate_square(a).nnz;
    }
    {
      const ThreadCountGuard g(4);
      four = estimate_square(a).nnz;
    }
    EXPECT_EQ(one, four);
  }
}

TEST(Estimator, RejectsMisshapenInputs) {
  const mtx::CsrMatrix a = testutil::exact_er(40, 40, 3.0, 20);
  const SpGemmProblem p = SpGemmProblem::square(a);
  const std::vector<nnz_t> rf = pb::pb_row_flops(p.a_csc, p.b_csr);
  const std::vector<nnz_t> short_rf(rf.begin(), rf.end() - 1);
  EXPECT_THROW((void)pb::pb_estimate_nnz_c(p.a_csr, p.b_csr, short_rf),
               std::invalid_argument);
  const mtx::CsrMatrix wrong = testutil::exact_er(30, 40, 2.0, 21);
  EXPECT_THROW((void)pb::pb_estimate_nnz_c(p.a_csr, p.b_csr, rf, &wrong),
               std::invalid_argument);
}

// ---- selection heuristic --------------------------------------------------

TEST(Selection, LowCompressionPicksPb) {
  const model::AlgoChoice c = model::select_algorithm(1.0, 1 << 20, true);
  EXPECT_EQ(c.algo, "pb");
  EXPECT_FALSE(c.rationale.empty());
  EXPECT_GT(c.pb_mflops, c.column_mflops);
}

TEST(Selection, HighCompressionPicksHash) {
  const model::AlgoChoice c = model::select_algorithm(32.0, 1 << 20, true);
  EXPECT_EQ(c.algo, "hash");
  EXPECT_GT(c.column_mflops, c.pb_mflops);
}

TEST(Selection, HighCompressionWithoutHashFallsToHeap) {
  // Non-numeric semirings rule hash out; the column family is heap.
  const model::AlgoChoice c = model::select_algorithm(32.0, 1 << 20, false);
  EXPECT_EQ(c.algo, "heap");
}

TEST(Selection, TinyProblemsPickHeap) {
  const model::AlgoChoice c = model::select_algorithm(1.0, 100, true);
  EXPECT_EQ(c.algo, "heap");
}

TEST(Selection, CrossoverIsMonotoneInCf) {
  // Scanning cf upward flips the decision exactly once (pb -> column).
  bool seen_column = false;
  for (double cf = 1.0; cf <= 64.0; cf *= 1.5) {
    const model::AlgoChoice c = model::select_algorithm(cf, 1 << 20, true);
    if (c.algo != "pb") seen_column = true;
    if (seen_column) EXPECT_NE(c.algo, "pb") << "cf " << cf;
  }
  EXPECT_TRUE(seen_column);
}

TEST(Selection, DefaultCrossoversPerTupleWidth) {
  // The documented default crossovers, one set for every team size:
  // cf ≈ 2.4 at 16 B tuples, 3.5 at 12 B and 12.2 at 8 B.
  struct Crossover {
    double tuple_bytes, pb_at, hash_at;
  };
  for (const Crossover& x : {Crossover{16, 2.3, 2.5}, Crossover{12, 3.4, 3.6},
                             Crossover{8, 12.0, 12.5}}) {
    model::SelectionModel m;
    m.pb_tuple_bytes = x.tuple_bytes;
    EXPECT_EQ(model::select_algorithm(x.pb_at, 1 << 20, true, m).algo, "pb")
        << x.tuple_bytes << " B at cf " << x.pb_at;
    EXPECT_EQ(model::select_algorithm(x.hash_at, 1 << 20, true, m).algo,
              "hash")
        << x.tuple_bytes << " B at cf " << x.hash_at;
  }
}

TEST(Selection, KeyOnlyStreamShiftsCrossoverTowardPb) {
  // The byte model charges Eq. 4's Cˆ term the bytes the plan's tuple
  // stream actually moves (executor wiring: m.pb_tuple_bytes =
  // bytes_per_tuple(predict_tuple_format(...))).  A boolean workload
  // predicts the 8 B key-only stream, a numeric one the 12 B narrow
  // stream — same geometry, same flop.  With defaults the pb/hash
  // crossover sits at cf ≈ 3.5 for 12 B and cf ≈ 12.2 for 8 B, so at
  // cf = 4 the valued plan rules pb out while the boolean plan keeps it.
  const index_t n = 1 << 16;  // narrow fits: local_row_bits + col_bits ≤ 32
  const nnz_t flop = 1 << 20;

  pb::PbConfig boolean_cfg;
  boolean_cfg.value_free = true;  // what the executor sets for bool_or_and
  const pb::PbConfig valued_cfg;
  const pb::TupleFormat boolean_fmt =
      pb::predict_tuple_format(n, n, flop, boolean_cfg);
  const pb::TupleFormat valued_fmt =
      pb::predict_tuple_format(n, n, flop, valued_cfg);
  ASSERT_EQ(boolean_fmt, pb::TupleFormat::kKeyOnly);
  ASSERT_EQ(valued_fmt, pb::TupleFormat::kNarrow);

  model::SelectionModel m;
  m.pb_tuple_bytes = static_cast<double>(pb::bytes_per_tuple(valued_fmt));
  const model::AlgoChoice valued = model::select_algorithm(4.0, flop, true, m);
  EXPECT_EQ(valued.algo, "hash");

  m.pb_tuple_bytes = static_cast<double>(pb::bytes_per_tuple(boolean_fmt));
  const model::AlgoChoice boolean = model::select_algorithm(4.0, flop, true, m);
  EXPECT_EQ(boolean.algo, "pb");
  EXPECT_GT(boolean.ai_outer, valued.ai_outer);
}

}  // namespace
}  // namespace pbs
