// Cross-validation of the semiring-generalized PB pipeline and the
// unified (algorithm × semiring) registry.
//
// The PB pipeline over S (an executor run with algo = "pb") shares no
// accumulation machinery with spgemm_semiring<S> (outer-product
// expand/sort/compress vs row-wise dense accumulator), so
// agreement over random ER/RMAT inputs for every built-in semiring is a
// strong property check.  Values are small integers (see test_util.hpp),
// so plus_times sums are exact in any accumulation order; min/max/bool
// semirings are order-independent by construction.
#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "matrix/mstats.hpp"
#include "matrix/ops.hpp"
#include "pb/plan.hpp"
#include "spgemm/registry.hpp"
#include "spgemm/semiring.hpp"
#include "test_util.hpp"

namespace pbs {
namespace {

using testutil::from_triplets;

// ---- pb over S vs spgemm_semiring<S> vs reference over random inputs ----

struct SemiringCase {
  const char* semiring;
  const char* family;  // "er" or "rmat"
  std::uint64_t seed;
};

void PrintTo(const SemiringCase& c, std::ostream* os) {
  *os << c.semiring << "_" << c.family << "_" << c.seed;
}

mtx::CsrMatrix build_input(const SemiringCase& c) {
  return std::string(c.family) == "er" ? testutil::exact_er(300, 300, 6.0, c.seed)
                                       : testutil::exact_rmat(9, 6.0, c.seed);
}

template <typename S>
void expect_pb_matches_fallback(const mtx::CsrMatrix& a) {
  const SpGemmProblem p = SpGemmProblem::square(a);
  const mtx::CsrMatrix expected = spgemm_semiring<S>(a, a);
  RunInfo info;
  const mtx::CsrMatrix c = testutil::pb_product(p, S::name, {}, &info);
  ASSERT_TRUE(c.valid());
  ASSERT_TRUE(info.used_pb);
  EXPECT_TRUE(equal_exact(c, expected))
      << "pb over " << S::name << " diverges from spgemm_semiring";
  EXPECT_EQ(info.pb_stats.nnz_c, expected.nnz());
}

class PbSemiring : public ::testing::TestWithParam<SemiringCase> {};

TEST_P(PbSemiring, MatchesDenseAccumulatorFallback) {
  const SemiringCase& c = GetParam();
  const mtx::CsrMatrix a = build_input(c);
  dispatch_semiring(c.semiring, [&]<typename S>() {
    expect_pb_matches_fallback<S>(a);
  });
}

TEST_P(PbSemiring, HeapMatchesDenseAccumulatorFallback) {
  const SemiringCase& c = GetParam();
  const mtx::CsrMatrix a = build_input(c);
  const SpGemmProblem p = SpGemmProblem::square(a);
  dispatch_semiring(c.semiring, [&]<typename S>() {
    EXPECT_TRUE(equal_exact(heap_spgemm_semiring<S>(p),
                            spgemm_semiring<S>(a, a)))
        << "heap_spgemm_semiring<" << S::name << "> diverges";
  });
}

std::vector<SemiringCase> make_cases() {
  std::vector<SemiringCase> cases;
  for (const std::string& s : semiring_names()) {
    for (const char* family : {"er", "rmat"}) {
      for (std::uint64_t seed : {21ull, 22ull}) {
        cases.push_back({s.c_str(), family, seed});
      }
    }
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(Sweep, PbSemiring, ::testing::ValuesIn(make_cases()));

TEST(PbSemiring, PlusTimesMatchesReference) {
  const mtx::CsrMatrix a = testutil::exact_er(250, 250, 5.0, 31);
  const SpGemmProblem p = SpGemmProblem::square(a);
  EXPECT_TRUE(equal_exact(testutil::pb_product(p), reference_spgemm(p)));
}

TEST(PbSemiring, PatternIsSemiringAndAlgorithmIndependent) {
  const mtx::CsrMatrix a = testutil::exact_rmat(8, 5.0, 33);
  const SpGemmProblem p = SpGemmProblem::square(a);
  const mtx::CsrMatrix base = testutil::pb_product(p);
  for (const std::string& s : semiring_names()) {
    const mtx::CsrMatrix c = testutil::pb_product(p, s);
    EXPECT_EQ(base.rowptr, c.rowptr) << s;
    EXPECT_EQ(base.colids, c.colids) << s;
  }
}

// ---- exact cancellation: zero-valued results stay structural -------------

TEST(PbSemiringCancellation, PlusTimesExactCancellationKeptStructurally) {
  // A = [1 -1], B = [1; 1]: C(0,0) = 1·1 + (-1)·1 = 0 exactly — the entry
  // must stay stored with value 0, matching spgemm_semiring and reference.
  const mtx::CsrMatrix a = from_triplets(1, 2, {{0, 0, 1.0}, {0, 1, -1.0}});
  const mtx::CsrMatrix b = from_triplets(2, 1, {{0, 0, 1.0}, {1, 0, 1.0}});
  const SpGemmProblem p = SpGemmProblem::multiply(a, b);
  const mtx::CsrMatrix c = testutil::pb_product(p);
  ASSERT_EQ(c.nnz(), 1);
  EXPECT_EQ(c.colids[0], 0);
  EXPECT_EQ(c.vals[0], 0.0);
  EXPECT_TRUE(equal_exact(c, spgemm_semiring<PlusTimes>(a, b)));
  EXPECT_TRUE(equal_exact(c, reference_spgemm(p)));
}

TEST(PbSemiringCancellation, RandomCancellationHeavyInputs) {
  // ±1-valued random matrices produce many exact zero accumulations; the
  // pattern (and the zero values) must agree with the fallback kernel.
  for (std::uint64_t seed : {41ull, 42ull, 43ull}) {
    mtx::CooMatrix coo = mtx::generate_er(160, 160, 6.0, seed);
    for (nnz_t i = 0; i < coo.nnz(); ++i) {
      // Position-hashed ±1 (deterministic, order-independent): term signs
      // within one output entry are effectively independent coin flips, so
      // two-term entries cancel about half the time.
      const auto h =
          static_cast<std::uint64_t>(coo.row[i]) * 0x9E3779B97F4A7C15ull +
          static_cast<std::uint64_t>(coo.col[i]) * 0xC2B2AE3D27D4EB4Full;
      coo.val[i] = ((h >> 32) & 1) != 0 ? 1.0 : -1.0;
    }
    const mtx::CsrMatrix a = mtx::coo_to_csr(coo);
    const SpGemmProblem p = SpGemmProblem::square(a);
    const mtx::CsrMatrix c = testutil::pb_product(p);
    const mtx::CsrMatrix expected = spgemm_semiring<PlusTimes>(a, a);
    ASSERT_TRUE(equal_exact(c, expected)) << "seed " << seed;
    bool has_stored_zero = false;
    for (const value_t v : c.vals) has_stored_zero |= (v == 0.0);
    EXPECT_TRUE(has_stored_zero) << "cancellation input produced no zeros";
    // Structural nnz equals the symbolic count — nothing was dropped.
    EXPECT_EQ(c.nnz(), mtx::symbolic_nnz(a, a));
  }
}

TEST(PbSemiringCancellation, BoolOrAndZeroOperandsStayStructural) {
  // A stored 0.0 is bool-false: 0 ∧ 1 = 0 = BoolOrAnd::zero(), yet the
  // output entry must stay stored (structure is value-independent).
  const mtx::CsrMatrix a = from_triplets(1, 1, {{0, 0, 0.0}});
  const mtx::CsrMatrix b = from_triplets(1, 1, {{0, 0, 1.0}});
  const SpGemmProblem p = SpGemmProblem::multiply(a, b);
  const mtx::CsrMatrix c = testutil::pb_product(p, BoolOrAnd::name);
  ASSERT_EQ(c.nnz(), 1);
  EXPECT_EQ(c.vals[0], 0.0);
  EXPECT_TRUE(equal_exact(c, spgemm_semiring<BoolOrAnd>(a, b)));
}

// ---- named dispatch and registry -----------------------------------------

TEST(PbSemiringDispatch, NamedPipelineMatchesTemplate) {
  const mtx::CsrMatrix a = testutil::exact_er(120, 120, 4.0, 51);
  const SpGemmProblem p = SpGemmProblem::square(a);
  const pb::PbPlan plan = pb::pb_plan_build(p.a_csc, p.b_csr);
  pb::PbWorkspace ws;
  for (const std::string& s : semiring_names()) {
    const pb::PbResult named =
        pb::pb_execute_named(s, p.a_csc, p.b_csr, plan, ws);
    const mtx::CsrMatrix expected =
        dispatch_semiring(s, [&]<typename S>() {
          return pb::pb_execute<S>(p.a_csc, p.b_csr, plan, ws).c;
        });
    EXPECT_TRUE(equal_exact(named.c, expected)) << s;
  }
  EXPECT_THROW(pb::pb_execute_named("nope", p.a_csc, p.b_csr, plan, ws),
               std::invalid_argument);
}

TEST(RegistrySemiring, PbEntryRunsThePbPipeline) {
  // `pb` × every semiring through the registry equals an executor's pb run
  // — the registry's pb kernel is a one-shot executor running the actual
  // propagation-blocking pipeline, not the row-wise fallback pretending to
  // be it (they agree on values, so the check is that the function
  // resolves and matches; the distinct-machinery guarantee is the
  // PbSemiring sweep above).
  const mtx::CsrMatrix a = testutil::exact_er(150, 150, 5.0, 52);
  const SpGemmProblem p = SpGemmProblem::square(a);
  for (const std::string& s : semiring_names()) {
    const mtx::CsrMatrix via_registry = semiring_algorithm("pb", s)(p);
    EXPECT_TRUE(equal_exact(via_registry, testutil::pb_product(p, s))) << s;
  }
}

TEST(RegistrySemiring, EveryAdvertisedPairResolvesAndAgrees) {
  const mtx::CsrMatrix a = testutil::exact_er(100, 100, 4.0, 53);
  const SpGemmProblem p = SpGemmProblem::square(a);
  for (const AlgoInfo& info : algorithms()) {
    for (const std::string& s : info.semirings) {
      const mtx::CsrMatrix c = semiring_algorithm(info.name, s)(p);
      const mtx::CsrMatrix expected = semiring_algorithm("spa", s)(p);
      EXPECT_TRUE(equal_exact(c, expected)) << info.name << " x " << s;
    }
  }
}

TEST(RegistrySemiring, UnsupportedPairFailsWithCombinationList) {
  try {
    semiring_algorithm("hashvec", "min_plus");
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("hashvec"), std::string::npos);
    EXPECT_NE(msg.find("plus_times-only"), std::string::npos);
    // The error lists the full support matrix.
    EXPECT_NE(msg.find("pb: plus_times min_plus max_min bool_or_and"),
              std::string::npos);
  }
}

TEST(RegistrySemiring, UnknownNamesFail) {
  EXPECT_THROW(semiring_algorithm("pb", "tropical"), std::invalid_argument);
  EXPECT_THROW(semiring_algorithm("nope", "plus_times"),
               std::invalid_argument);
  try {
    semiring_algorithm("pb", "tropical");
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("supported (algorithm, semiring)"),
              std::string::npos);
  }
}

TEST(RegistrySemiring, PlusTimesRoutesToRegisteredNumericKernel) {
  // The plus_times column must compute what each algorithm's numeric
  // (+, ×) entry point does — the kernels the paper's figures name.
  const mtx::CsrMatrix a = testutil::exact_er(80, 80, 4.0, 54);
  const SpGemmProblem p = SpGemmProblem::square(a);
  const std::vector<std::pair<std::string, SpGemmFn>> numeric = {
      {"pb", [](const SpGemmProblem& q) { return testutil::pb_product(q); }},
      {"heap", heap_spgemm},
      {"hash", hash_spgemm},
      {"hashvec", [](const SpGemmProblem& q) { return hashvec_spgemm(q); }},
      {"spa",
       [](const SpGemmProblem& q) {
         return spgemm_semiring<PlusTimes>(q.a_csr, q.b_csr);
       }},
      {"esc", esc_column_spgemm},
      {"outer_heap", outer_heap_spgemm},
      {"reference", reference_spgemm}};
  ASSERT_EQ(numeric.size(), algorithms().size());
  for (const auto& [name, fn] : numeric) {
    EXPECT_TRUE(equal_exact(semiring_algorithm(name, "plus_times")(p), fn(p)))
        << name;
  }
}

}  // namespace
}  // namespace pbs
