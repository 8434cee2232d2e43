// The typed operation descriptor (SpGemmOp), the runtime SemiringRegistry,
// and the descriptor-driven executor path: custom-semiring registration
// round-trips through SpGemmExecutor (algo = "auto"), masks fuse into every
// kernel family, and accumulate combines with the semiring add.
#include <gtest/gtest.h>

#include <cmath>
#include <map>
#include <limits>
#include <stdexcept>
#include <string>

#include "matrix/ops.hpp"
#include "spgemm/executor.hpp"
#include "spgemm/op.hpp"
#include "spgemm/registry.hpp"
#include "spgemm/semiring.hpp"
#include "test_util.hpp"

namespace pbs {
namespace {

// The running custom-semiring example: (max, +) — longest-path relaxation,
// the tropical dual of min_plus.  Registered once per process (gtest runs
// all tests in one binary; double registration throws by design).
const char* kPlusMax = "plus_max";

const RuntimeSemiring& plus_max() {
  SemiringRegistry& reg = SemiringRegistry::instance();
  if (!reg.contains(kPlusMax)) {
    RuntimeSemiring rs;
    rs.name = kPlusMax;
    rs.zero = -std::numeric_limits<value_t>::infinity();
    rs.add = [](value_t a, value_t b) { return std::max(a, b); };
    rs.mul = [](value_t a, value_t b) { return a + b; };
    reg.register_semiring(rs);
  }
  return reg.at(kPlusMax);
}

// Serial oracle for plus_max (mirrors reference_spgemm_semiring's rules:
// first contribution stored as-is, exact zeros stay structural).  Written
// out locally because the library template is instantiated only for the
// built-ins + the runtime bridge.
mtx::CsrMatrix plus_max_oracle(const SpGemmProblem& p) {
  const mtx::CsrMatrix& a = p.a_csr;
  const mtx::CsrMatrix& b = p.b_csr;
  mtx::CsrMatrix out(a.nrows, b.ncols);
  std::map<index_t, value_t> acc;
  for (index_t r = 0; r < a.nrows; ++r) {
    acc.clear();
    for (nnz_t i = a.rowptr[r]; i < a.rowptr[static_cast<std::size_t>(r) + 1]; ++i) {
      const index_t k = a.colids[i];
      for (nnz_t j = b.rowptr[k]; j < b.rowptr[static_cast<std::size_t>(k) + 1]; ++j) {
        const value_t product = a.vals[i] + b.vals[j];
        const auto [it, inserted] = acc.try_emplace(b.colids[j], product);
        if (!inserted) it->second = std::max(it->second, product);
      }
    }
    out.rowptr[static_cast<std::size_t>(r) + 1] =
        out.rowptr[r] + static_cast<nnz_t>(acc.size());
    for (const auto& [c, v] : acc) {
      out.colids.push_back(c);
      out.vals.push_back(v);
    }
  }
  return out;
}

// ---- SemiringRegistry -----------------------------------------------------

TEST(SemiringRegistryTest, BuiltinsPreRegisteredAndClosuresWork) {
  SemiringRegistry& reg = SemiringRegistry::instance();
  for (const std::string& s : semiring_names()) {
    const RuntimeSemiring* rs = reg.find(s);
    ASSERT_NE(rs, nullptr) << s;
    EXPECT_TRUE(rs->builtin);
  }
  const RuntimeSemiring& mp = reg.at(MinPlus::name);
  EXPECT_EQ(mp.zero, MinPlus::zero());
  EXPECT_EQ(mp.add(3.0, 5.0), 3.0);
  EXPECT_EQ(mp.mul(3.0, 5.0), 8.0);
}

TEST(SemiringRegistryTest, RejectsDuplicatesEmptyNamesAndMissingOps) {
  (void)plus_max();
  SemiringRegistry& reg = SemiringRegistry::instance();
  RuntimeSemiring dup;
  dup.name = kPlusMax;
  dup.add = [](value_t a, value_t b) { return a + b; };
  dup.mul = [](value_t a, value_t b) { return a * b; };
  EXPECT_THROW(reg.register_semiring(dup), std::invalid_argument);
  RuntimeSemiring anon = dup;
  anon.name = "";
  EXPECT_THROW(reg.register_semiring(anon), std::invalid_argument);
  RuntimeSemiring half;
  half.name = "half_defined";
  half.add = dup.add;
  EXPECT_THROW(reg.register_semiring(half), std::invalid_argument);
  // A user registration can never claim the built-in fast path.
  EXPECT_FALSE(reg.at(kPlusMax).builtin);
}

TEST(SemiringRegistryTest, UnknownSemiringErrorsListRegisteredNames) {
  (void)plus_max();
  try {
    semiring_algorithm("pb", "no_such_semiring");
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find(kPlusMax), std::string::npos)
        << "registered custom names should be listed: " << msg;
  }
}

// ---- custom semiring end-to-end -------------------------------------------

TEST(CustomSemiring, EveryGeneralizedAlgorithmMatchesOracle) {
  (void)plus_max();
  const mtx::CsrMatrix a = testutil::exact_er(120, 120, 4.0, 91);
  const SpGemmProblem p = SpGemmProblem::square(a);
  const mtx::CsrMatrix expected =
      plus_max_oracle(p);
  for (const char* algo : {"pb", "heap", "hash", "spa", "reference"}) {
    const mtx::CsrMatrix c = semiring_algorithm(algo, kPlusMax)(p);
    EXPECT_TRUE(mtx::equal_exact(c, expected)) << algo;
  }
}

TEST(CustomSemiring, NumericCloneMatchesNumericKernelsExactly) {
  // A runtime re-statement of (+, ×) must reproduce the compiled numeric
  // kernels bit for bit — the DynSemiring bridge adds indirection, not
  // arithmetic.
  SemiringRegistry& reg = SemiringRegistry::instance();
  if (!reg.contains("plus_times_rt")) {
    RuntimeSemiring rs;
    rs.name = "plus_times_rt";
    rs.zero = 0.0;
    rs.add = [](value_t x, value_t y) { return x + y; };
    rs.mul = [](value_t x, value_t y) { return x * y; };
    reg.register_semiring(rs);
  }
  const mtx::CsrMatrix a = testutil::exact_er(150, 150, 5.0, 92);
  const SpGemmProblem p = SpGemmProblem::square(a);
  const mtx::CsrMatrix expected = reference_spgemm(p);
  for (const char* algo : {"pb", "heap", "hash", "spa"}) {
    EXPECT_TRUE(mtx::equal_exact(semiring_algorithm(algo, "plus_times_rt")(p),
                                 expected))
        << algo;
  }
}

TEST(CustomSemiring, RoundTripsThroughMakePlanWithAutoSelection) {
  // The acceptance path: a runtime-registered semiring executes end-to-end
  // through SpGemmExecutor::run with algo = "auto", planning once.
  (void)plus_max();
  const mtx::CsrMatrix a = testutil::exact_er(300, 300, 6.0, 93);
  const SpGemmProblem p = SpGemmProblem::square(a);
  SpGemmOp op;
  op.semiring = kPlusMax;  // algo stays "auto"
  SpGemmExecutor exec;
  RunInfo info;
  const mtx::CsrMatrix c = exec.run(p, op, &info);
  EXPECT_FALSE(info.choice.rationale.empty());
  const mtx::CsrMatrix again = exec.run(p, op, &info);
  EXPECT_TRUE(info.cache_hit);
  EXPECT_TRUE(mtx::equal_exact(c, again));
  EXPECT_EQ(exec.stats().cache_misses, 1u);
  EXPECT_TRUE(mtx::equal_exact(c, plus_max_oracle(p)));
}

TEST(CustomSemiring, WorksThroughPbSpgemmNamedWithTelemetry) {
  // pb over a runtime semiring, with the pipeline's telemetry.
  (void)plus_max();
  const mtx::CsrMatrix a = testutil::exact_er(200, 200, 5.0, 94);
  const SpGemmProblem p = SpGemmProblem::square(a);
  RunInfo info;
  const mtx::CsrMatrix c = testutil::pb_product(p, kPlusMax, {}, &info);
  EXPECT_TRUE(mtx::equal_exact(c, plus_max_oracle(p)));
  EXPECT_TRUE(info.used_pb);
  EXPECT_GT(info.pb_stats.flop, 0);
}

// ---- masked descriptor path -----------------------------------------------

TEST(SpGemmOpMask, DescriptorMatchesOracleAcrossAlgorithms) {
  const mtx::CsrMatrix a = testutil::exact_er(130, 130, 5.0, 95);
  const mtx::CsrMatrix mask = testutil::exact_er(130, 130, 7.0, 96);
  const SpGemmProblem p = SpGemmProblem::square(a);
  const mtx::CsrMatrix full = reference_spgemm(p);
  for (const bool complement : {false, true}) {
    const mtx::CsrMatrix expected =
        mtx::pattern_filter(full, mask, complement);
    for (const char* algo : {"pb", "heap", "hash", "spa"}) {
      SpGemmOp op;
      op.algo = algo;
      op.mask = &mask;
      op.complement = complement;
      EXPECT_TRUE(mtx::equal_exact(SpGemmExecutor().run(p, op), expected))
          << algo << " complement=" << complement;
    }
  }
}

TEST(SpGemmOpMask, AutoSelectionIsMaskAwareAndCorrect) {
  const mtx::CsrMatrix a = testutil::exact_er(400, 400, 6.0, 97);
  const mtx::CsrMatrix mask = testutil::exact_er(400, 400, 3.0, 98);
  const SpGemmProblem p = SpGemmProblem::square(a);
  SpGemmOp op;
  op.mask = &mask;  // algo stays "auto"
  RunInfo info;
  const mtx::CsrMatrix c = SpGemmExecutor().run(p, op, &info);
  // The mask-density term must be visible in the recorded decision.
  EXPECT_GE(info.choice.cf_out, info.choice.cf);
  EXPECT_TRUE(mtx::equal_exact(
      c, mtx::pattern_filter(reference_spgemm(p), mask, false)));
}

TEST(SpGemmOpMask, PbRecordsDroppedTuplesInTelemetry) {
  const mtx::CsrMatrix a = testutil::exact_er(250, 250, 6.0, 99);
  const mtx::CsrMatrix mask = testutil::exact_er(250, 250, 4.0, 100);
  const SpGemmProblem p = SpGemmProblem::square(a);
  SpGemmOp op;
  op.algo = "pb";
  op.mask = &mask;
  // Pin the compress-stage drop path: this mask is sparse enough that the
  // default threshold would otherwise engage the expand mask and leave
  // nothing to drop.
  op.pb.expand_mask_max_density = -1.0;
  RunInfo info;
  const mtx::CsrMatrix c = SpGemmExecutor().run(p, op, &info);
  const pb::PbTelemetry& tm = info.pb_stats;
  EXPECT_EQ(tm.nnz_c, c.nnz());
  EXPECT_FALSE(tm.expand_masked);
  EXPECT_EQ(tm.mask_skipped_expand, 0);
  EXPECT_GT(tm.mask_dropped, 0);
  // Survivors + dropped = the unmasked product's nonzeros.
  EXPECT_EQ(tm.nnz_c + tm.mask_dropped, reference_spgemm(p).nnz());
}

TEST(SpGemmOpMask, PbRecordsExpandSkippedTuplesInTelemetry) {
  // The same sparse mask under the fused expand path: tuples for
  // masked-out outputs are never generated, so the drop count moves from
  // mask_dropped to mask_skipped_expand and flop = generated + skipped.
  const mtx::CsrMatrix a = testutil::exact_er(250, 250, 6.0, 99);
  const mtx::CsrMatrix mask = testutil::exact_er(250, 250, 4.0, 100);
  const SpGemmProblem p = SpGemmProblem::square(a);
  SpGemmOp op;
  op.algo = "pb";
  op.mask = &mask;
  op.pb.expand_mask_max_density = 1.0;
  RunInfo info;
  const mtx::CsrMatrix c = SpGemmExecutor().run(p, op, &info);
  const pb::PbTelemetry& tm = info.pb_stats;
  EXPECT_EQ(tm.nnz_c, c.nnz());
  EXPECT_TRUE(tm.expand_masked);
  EXPECT_GT(tm.mask_skipped_expand, 0);
  EXPECT_EQ(tm.mask_dropped, 0);
  EXPECT_TRUE(mtx::equal_exact(
      c, mtx::pattern_filter(reference_spgemm(p), mask, false)));
}

TEST(SpGemmOpMask, MaskedAcrossSemiringsAndFormats) {
  // pb masked × every built-in semiring × wide/narrow streams against the
  // semiring oracle filtered by the mask.
  const mtx::CsrMatrix a = testutil::exact_er(150, 150, 5.0, 101);
  const mtx::CsrMatrix mask = testutil::exact_er(150, 150, 6.0, 102);
  const SpGemmProblem p = SpGemmProblem::square(a);
  for (const std::string& s : semiring_names()) {
    const mtx::CsrMatrix expected = dispatch_semiring(s, [&]<typename S>() {
      return mtx::pattern_filter(reference_spgemm_semiring<S>(p), mask,
                                 false);
    });
    for (const pb::FormatPolicy format :
         {pb::FormatPolicy::kWide, pb::FormatPolicy::kNarrow}) {
      SpGemmOp op;
      op.algo = "pb";
      op.semiring = s;
      op.mask = &mask;
      op.pb.format = format;
      EXPECT_TRUE(mtx::equal_exact(SpGemmExecutor().run(p, op), expected))
          << s << " format=" << static_cast<int>(format);
    }
  }
}

TEST(SpGemmOpMask, UnfusedBaselinesFallBackToFilteredProduct) {
  const mtx::CsrMatrix a = testutil::exact_er(90, 90, 4.0, 103);
  const mtx::CsrMatrix mask = testutil::exact_er(90, 90, 5.0, 104);
  const SpGemmProblem p = SpGemmProblem::square(a);
  const mtx::CsrMatrix expected =
      mtx::pattern_filter(reference_spgemm(p), mask, false);
  for (const char* algo : {"esc", "hashvec", "reference"}) {
    SpGemmOp op;
    op.algo = algo;
    op.mask = &mask;
    EXPECT_TRUE(mtx::equal_exact(SpGemmExecutor().run(p, op), expected))
        << algo;
  }
}

TEST(SpGemmOpMask, CustomSemiringOnUnfusedGeneralizedAlgorithm) {
  // Regression: a masked plan over a runtime semiring on a generalized
  // algorithm without a fused masked form (reference) must resolve the
  // real kernel — not re-look-up the DynSemiring sentinel name.
  (void)plus_max();
  const mtx::CsrMatrix a = testutil::exact_er(80, 80, 4.0, 122);
  const mtx::CsrMatrix mask = testutil::exact_er(80, 80, 5.0, 123);
  const SpGemmProblem p = SpGemmProblem::square(a);
  SpGemmOp op;
  op.algo = "reference";
  op.semiring = kPlusMax;
  op.mask = &mask;
  EXPECT_TRUE(mtx::equal_exact(SpGemmExecutor().run(p, op),
                               mtx::pattern_filter(plus_max_oracle(p), mask)));
}

TEST(SpGemmOpMask, MaskShapeMismatchThrowsAtPlanTime) {
  const mtx::CsrMatrix a = testutil::exact_er(50, 50, 3.0, 105);
  const mtx::CsrMatrix bad = testutil::exact_er(50, 51, 3.0, 106);
  SpGemmOp op;
  op.mask = &bad;
  SpGemmExecutor exec;
  EXPECT_THROW(exec.prepare(SpGemmProblem::square(a), op),
               std::invalid_argument);
}

TEST(SpGemmOpMask, MaskPatternMayChangeBetweenExecutes) {
  // Only the mask's shape is pinned at plan time; its pattern is read per
  // execute, so iterative applications can mutate the mask in place.
  const mtx::CsrMatrix a = testutil::exact_er(140, 140, 5.0, 107);
  const SpGemmProblem p = SpGemmProblem::square(a);
  mtx::CsrMatrix mask = testutil::exact_er(140, 140, 6.0, 108);
  SpGemmOp op;
  op.algo = "pb";
  op.mask = &mask;
  SpGemmExecutor exec;
  const mtx::CsrMatrix full = reference_spgemm(p);
  EXPECT_TRUE(
      mtx::equal_exact(exec.run(p, op), mtx::pattern_filter(full, mask)));
  mask = testutil::exact_er(140, 140, 2.0, 109);  // new pattern, same shape
  EXPECT_TRUE(
      mtx::equal_exact(exec.run(p, op), mtx::pattern_filter(full, mask)));
  EXPECT_EQ(exec.stats().cache_misses, 1u);
}

// ---- accumulate -----------------------------------------------------------

TEST(SpGemmOpAccumulate, PlusTimesAccumulateIsMatrixAdd) {
  const mtx::CsrMatrix a = testutil::exact_er(100, 100, 4.0, 110);
  const mtx::CsrMatrix c0 = testutil::exact_er(100, 100, 5.0, 111);
  const SpGemmProblem p = SpGemmProblem::square(a);
  SpGemmOp op;
  op.algo = "pb";
  op.accumulate = true;
  SpGemmExecutor exec;
  EXPECT_THROW((void)exec.run(p, op), std::logic_error);
  const mtx::CsrMatrix c = exec.run(p, op, c0);
  EXPECT_TRUE(mtx::equal_exact(c, mtx::add(c0, reference_spgemm(p))));
}

TEST(SpGemmOpAccumulate, MinPlusAccumulateTakesElementwiseMin) {
  const mtx::CsrMatrix a = testutil::exact_er(80, 80, 4.0, 112);
  const mtx::CsrMatrix c0 = testutil::exact_er(80, 80, 5.0, 113);
  const SpGemmProblem p = SpGemmProblem::square(a);
  SpGemmOp op;
  op.algo = "heap";
  op.semiring = MinPlus::name;
  op.accumulate = true;
  const mtx::CsrMatrix product = reference_spgemm_semiring<MinPlus>(p);
  const mtx::CsrMatrix c = SpGemmExecutor().run(p, op, c0);
  EXPECT_TRUE(
      mtx::equal_exact(c, semiring_ewise_add(MinPlus::name, c0, product)));
  // Spot-check the union-merge semantics directly.
  const mtx::CsrMatrix expected = semiring_ewise_add(MinPlus::name, c0, product);
  EXPECT_EQ(expected.nnz(),
            mtx::add(mtx::to_pattern(c0), mtx::to_pattern(product)).nnz());
}

TEST(SemiringEwiseAdd, MatchesMatrixAddForPlusTimes) {
  const mtx::CsrMatrix x = testutil::exact_er(60, 70, 3.0, 114);
  const mtx::CsrMatrix y = testutil::exact_er(60, 70, 4.0, 115);
  EXPECT_TRUE(mtx::equal_exact(semiring_ewise_add(PlusTimes::name, x, y),
                               mtx::add(x, y)));
  const mtx::CsrMatrix bad = testutil::exact_er(60, 71, 3.0, 116);
  EXPECT_THROW((void)semiring_ewise_add(PlusTimes::name, x, bad),
               std::invalid_argument);
}

// ---- pattern_filter (the oracle primitive) --------------------------------

TEST(PatternFilter, KeepsAndComplementsPartitionTheMatrix) {
  const mtx::CsrMatrix a = testutil::exact_er(70, 70, 4.0, 117);
  const mtx::CsrMatrix mask = testutil::exact_er(70, 70, 5.0, 118);
  const mtx::CsrMatrix in = mtx::pattern_filter(a, mask, false);
  const mtx::CsrMatrix out = mtx::pattern_filter(a, mask, true);
  EXPECT_EQ(in.nnz() + out.nnz(), a.nnz());
  EXPECT_TRUE(mtx::equal_exact(mtx::add(in, out), a));
  EXPECT_TRUE(mtx::equal_exact(mtx::pattern_filter(a, a), a));
}

}  // namespace
}  // namespace pbs
