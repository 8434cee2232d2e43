// Property-based cross-validation: every algorithm must produce the exact
// same matrix as the serial reference over a randomized family of inputs.
//
// Values are small integers (see test_util.hpp), so floating-point sums are
// exact in any accumulation order and equality can be bitwise.
#include <gtest/gtest.h>

#include "matrix/mstats.hpp"
#include "spgemm/registry.hpp"
#include "test_util.hpp"

namespace pbs {
namespace {

struct PropertyCase {
  const char* algo;
  const char* family;  // "er", "rmat", "banded", "rect"
  int size_class;      // 0 = small, 1 = medium
  std::uint64_t seed;
};

void PrintTo(const PropertyCase& p, std::ostream* os) {
  *os << p.algo << "_" << p.family << "_s" << p.size_class << "_" << p.seed;
}

mtx::CsrMatrix build_input(const PropertyCase& p) {
  const index_t n = p.size_class == 0 ? 200 : 1200;
  if (std::string(p.family) == "er") {
    return testutil::exact_er(n, n, 6.0, p.seed);
  }
  if (std::string(p.family) == "rmat") {
    return testutil::exact_rmat(p.size_class == 0 ? 8 : 10, 6.0, p.seed);
  }
  // banded: high compression factor regime
  mtx::CooMatrix coo = mtx::generate_banded(n, 8.0, 6, p.seed);
  mtx::make_values_exact(coo);
  return mtx::coo_to_csr(coo);
}

class SpGemmProperty : public ::testing::TestWithParam<PropertyCase> {};

TEST_P(SpGemmProperty, SquareMatchesReference) {
  const PropertyCase& p = GetParam();
  const mtx::CsrMatrix a = build_input(p);
  const SpGemmProblem problem = SpGemmProblem::square(a);
  const mtx::CsrMatrix expected = reference_spgemm(problem);
  const mtx::CsrMatrix actual =
      semiring_algorithm(p.algo, PlusTimes::name)(problem);
  ASSERT_TRUE(actual.valid());
  EXPECT_TRUE(equal_exact(actual, expected))
      << p.algo << " diverges from reference on " << p.family;
}

TEST_P(SpGemmProperty, OutputNnzMatchesSymbolic) {
  const PropertyCase& p = GetParam();
  const mtx::CsrMatrix a = build_input(p);
  const SpGemmProblem problem = SpGemmProblem::square(a);
  const mtx::CsrMatrix c = semiring_algorithm(p.algo, PlusTimes::name)(problem);
  EXPECT_EQ(c.nnz(), mtx::symbolic_nnz(a, a));
}

std::vector<PropertyCase> make_cases() {
  std::vector<PropertyCase> cases;
  for (const char* algo :
       {"pb", "heap", "hash", "hashvec", "spa", "esc", "outer_heap"}) {
    for (const char* family : {"er", "rmat", "banded"}) {
      for (int size_class : {0, 1}) {
        // outer_heap is O(k · nnz): keep it on small inputs.
        if (std::string(algo) == "outer_heap" && size_class > 0) continue;
        for (std::uint64_t seed : {1ull, 2ull}) {
          cases.push_back({algo, family, size_class, seed});
        }
      }
    }
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(Sweep, SpGemmProperty,
                         ::testing::ValuesIn(make_cases()));

// ---- algebraic properties, checked through the PB algorithm ----

TEST(SpGemmAlgebra, AssociativityOnExactValues) {
  const mtx::CsrMatrix a = testutil::exact_er(150, 150, 4.0, 5);
  const mtx::CsrMatrix b = testutil::exact_er(150, 150, 4.0, 6);
  const mtx::CsrMatrix c = testutil::exact_er(150, 150, 4.0, 7);
  const SpGemmFn pb = semiring_algorithm("pb", PlusTimes::name);
  const auto ab_c = pb(SpGemmProblem::multiply(
      pb(SpGemmProblem::multiply(a, b)), c));
  const auto a_bc = pb(SpGemmProblem::multiply(
      a, pb(SpGemmProblem::multiply(b, c))));
  EXPECT_TRUE(equal_exact(ab_c, a_bc));
}

TEST(SpGemmAlgebra, TransposeOfProduct) {
  // (AB)ᵀ == Bᵀ Aᵀ
  const mtx::CsrMatrix a = testutil::exact_er(120, 80, 4.0, 8);
  const mtx::CsrMatrix b = testutil::exact_er(80, 100, 4.0, 9);
  const SpGemmFn pb = semiring_algorithm("pb", PlusTimes::name);
  const auto abt = mtx::transpose(pb(SpGemmProblem::multiply(a, b)));
  const auto btat = pb(SpGemmProblem::multiply(mtx::transpose(b), mtx::transpose(a)));
  EXPECT_TRUE(equal_exact(abt, btat));
}

TEST(SpGemmAlgebra, DiagonalScalingCommutesThroughProduct) {
  // (D A) B == D (A B) for diagonal D.
  const mtx::CsrMatrix a = testutil::exact_er(100, 100, 4.0, 10);
  const mtx::CsrMatrix b = testutil::exact_er(100, 100, 4.0, 11);
  std::vector<value_t> dvals(100);
  for (std::size_t i = 0; i < 100; ++i) dvals[i] = static_cast<value_t>(1 + i % 4);
  const auto d = mtx::CsrMatrix::diagonal(dvals);
  const SpGemmFn pb = semiring_algorithm("pb", PlusTimes::name);
  const auto lhs = pb(SpGemmProblem::multiply(pb(SpGemmProblem::multiply(d, a)), b));
  const auto rhs = pb(SpGemmProblem::multiply(d, pb(SpGemmProblem::multiply(a, b))));
  EXPECT_TRUE(equal_exact(lhs, rhs));
}

TEST(SpGemmAlgebra, FlopConservation) {
  // Every algorithm's output nnz is bounded by flop and by n².
  const mtx::CsrMatrix a = testutil::exact_rmat(9, 8.0, 12);
  const auto problem = SpGemmProblem::square(a);
  const nnz_t flop = mtx::count_flops(a, a);
  for (const char* algo : {"pb", "heap", "hash"}) {
    const auto c = semiring_algorithm(algo, PlusTimes::name)(problem);
    EXPECT_LE(c.nnz(), flop);
    EXPECT_LE(c.nnz(), static_cast<nnz_t>(a.nrows) * a.nrows);
    EXPECT_GE(static_cast<double>(flop) / static_cast<double>(c.nnz()), 1.0);
  }
}

}  // namespace
}  // namespace pbs
