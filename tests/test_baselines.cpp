// Per-algorithm unit tests on hand-checkable inputs.  The heavy randomized
// cross-validation lives in test_property_spgemm.cpp.
#include <gtest/gtest.h>

#include "spgemm/registry.hpp"
#include "spgemm/spgemm.hpp"
#include "test_util.hpp"

namespace pbs {
namespace {

using testutil::from_triplets;

class EveryAlgorithm : public ::testing::TestWithParam<const char*> {
 protected:
  SpGemmFn fn() const {
    return semiring_algorithm(GetParam(), PlusTimes::name);
  }
};

TEST_P(EveryAlgorithm, IdentitySquare) {
  // Every row's upper bound is 1, so hashvec's table is one 8-slot group:
  // its Fibonacci hash shifts by 61 (a shift taken from the group count
  // would be 64, which UBSan aborts on).
  const auto i = mtx::CsrMatrix::identity(17);
  EXPECT_TRUE(equal_exact(fn()(SpGemmProblem::square(i)), i));
}

TEST_P(EveryAlgorithm, KnownTwoByTwo) {
  const auto a = from_triplets(2, 2, {{0, 0, 1.}, {0, 1, 2.}, {1, 0, 3.}, {1, 1, 4.}});
  const auto b = from_triplets(2, 2, {{0, 0, 5.}, {0, 1, 6.}, {1, 0, 7.}, {1, 1, 8.}});
  const auto expected =
      from_triplets(2, 2, {{0, 0, 19.}, {0, 1, 22.}, {1, 0, 43.}, {1, 1, 50.}});
  EXPECT_TRUE(equal_exact(fn()(SpGemmProblem::multiply(a, b)), expected));
}

TEST_P(EveryAlgorithm, EmptyResult) {
  // A's columns never hit B's nonzero rows: C is empty.
  const auto a = from_triplets(3, 3, {{0, 0, 1.0}, {2, 1, 1.0}});
  const auto b = from_triplets(3, 3, {{2, 2, 1.0}});
  const auto c = fn()(SpGemmProblem::multiply(a, b));
  EXPECT_EQ(c.nnz(), 0);
  EXPECT_TRUE(c.valid());
}

TEST_P(EveryAlgorithm, EmptyOperands) {
  mtx::CooMatrix empty(9, 9);
  const auto e = mtx::coo_to_csr(empty);
  const auto c = fn()(SpGemmProblem::square(e));
  EXPECT_EQ(c.nnz(), 0);
  EXPECT_EQ(c.nrows, 9);
  EXPECT_EQ(c.ncols, 9);
  EXPECT_TRUE(c.valid());
}

TEST_P(EveryAlgorithm, RectangularChain) {
  const mtx::CsrMatrix a = testutil::exact_er(30, 50, 3.0, 11);
  const mtx::CsrMatrix b = testutil::exact_er(50, 20, 3.0, 12);
  const auto expected = reference_spgemm(SpGemmProblem::multiply(a, b));
  const auto c = fn()(SpGemmProblem::multiply(a, b));
  EXPECT_TRUE(equal_exact(c, expected));
}

TEST_P(EveryAlgorithm, SingleDenseRow) {
  // One row of A selects every row of B: stresses per-row accumulator sizing.
  mtx::CooMatrix acoo(8, 64);
  for (index_t j = 0; j < 64; ++j) acoo.add(0, j, 1.0);
  acoo.canonicalize();
  const auto a = mtx::coo_to_csr(acoo);
  const mtx::CsrMatrix b = testutil::exact_er(64, 64, 4.0, 13);
  const auto expected = reference_spgemm(SpGemmProblem::multiply(a, b));
  EXPECT_TRUE(equal_exact(fn()(SpGemmProblem::multiply(a, b)), expected));
}

TEST_P(EveryAlgorithm, SingleDenseColumn) {
  // Every row of A hits row 0 of B — duplicate-heavy accumulation.
  mtx::CooMatrix acoo(64, 8);
  for (index_t i = 0; i < 64; ++i) acoo.add(i, 0, 2.0);
  acoo.canonicalize();
  const auto a = mtx::coo_to_csr(acoo);
  const mtx::CsrMatrix b = testutil::exact_er(8, 64, 6.0, 14);
  const auto expected = reference_spgemm(SpGemmProblem::multiply(a, b));
  EXPECT_TRUE(equal_exact(fn()(SpGemmProblem::multiply(a, b)), expected));
}

TEST_P(EveryAlgorithm, PermutationMatrixProduct) {
  // Reverse permutation squared = identity.
  mtx::CooMatrix pcoo(32, 32);
  for (index_t i = 0; i < 32; ++i) pcoo.add(i, 31 - i, 1.0);
  pcoo.canonicalize();
  const auto perm = mtx::coo_to_csr(pcoo);
  EXPECT_TRUE(equal_exact(fn()(SpGemmProblem::square(perm)),
                          mtx::CsrMatrix::identity(32)));
}

TEST_P(EveryAlgorithm, CancellationKeepsExplicitZero) {
  const auto a = from_triplets(1, 2, {{0, 0, 1.0}, {0, 1, 1.0}});
  const auto b = from_triplets(2, 1, {{0, 0, 1.0}, {1, 0, -1.0}});
  const auto c = fn()(SpGemmProblem::multiply(a, b));
  ASSERT_EQ(c.nnz(), 1);
  EXPECT_EQ(c.vals[0], 0.0);
}

TEST_P(EveryAlgorithm, OutputIsCanonicalOnSkewedInput) {
  const mtx::CsrMatrix a = testutil::exact_rmat(8, 8.0, 15);
  const auto c = fn()(SpGemmProblem::square(a));
  EXPECT_TRUE(c.valid()) << "rows must be sorted and in-range";
}

INSTANTIATE_TEST_SUITE_P(Algos, EveryAlgorithm,
                         ::testing::Values("pb", "heap", "hash", "hashvec",
                                           "spa", "esc", "outer_heap"));

TEST(Registry, KnowsAllAlgorithms) {
  EXPECT_EQ(algorithms().size(), 8u);
  EXPECT_EQ(algorithm("pb").name, "pb");
  EXPECT_THROW(algorithm("bogus"), std::invalid_argument);
}

TEST(Registry, PaperComparisonSetIsTheFigureLineup) {
  const auto set = paper_comparison_set();
  ASSERT_EQ(set.size(), 4u);
  EXPECT_EQ(set[0].name, "pb");
  EXPECT_EQ(set[1].name, "heap");
  EXPECT_EQ(set[2].name, "hash");
  EXPECT_EQ(set[3].name, "hashvec");
}

TEST(Registry, ScalabilityFlags) {
  EXPECT_TRUE(algorithm("pb").scales_to_large);
  EXPECT_FALSE(algorithm("reference").scales_to_large);
  EXPECT_FALSE(algorithm("outer_heap").scales_to_large);
}

}  // namespace
}  // namespace pbs
