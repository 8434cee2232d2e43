#include "spgemm/semiring.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "matrix/ops.hpp"
#include "spgemm/registry.hpp"
#include "test_util.hpp"

namespace pbs {
namespace {

using testutil::from_triplets;

TEST(Semiring, PlusTimesMatchesNumericSpGemm) {
  const mtx::CsrMatrix a = testutil::exact_er(200, 200, 5.0, 61);
  const SpGemmProblem p = SpGemmProblem::square(a);
  EXPECT_TRUE(equal_exact(spgemm_semiring<PlusTimes>(a, a),
                          reference_spgemm(p)));
}

TEST(Semiring, MinPlusComputesTwoHopDistances) {
  // Weighted digraph: 0 -(3)-> 1 -(4)-> 2 and 0 -(10)-> 2 directly.
  // Two-hop relaxation: (A ⊗ A)(0,2) = min(3+4) = 7.
  const mtx::CsrMatrix a = from_triplets(
      3, 3, {{0, 1, 3.0}, {1, 2, 4.0}, {0, 2, 10.0}});
  const mtx::CsrMatrix d2 = spgemm_semiring<MinPlus>(a, a);
  bool found = false;
  for (nnz_t i = d2.rowptr[0]; i < d2.rowptr[1]; ++i) {
    if (d2.colids[i] == 2) {
      EXPECT_DOUBLE_EQ(d2.vals[i], 7.0);
      found = true;
    }
  }
  EXPECT_TRUE(found);
}

TEST(Semiring, MinPlusClosureEqualsFloydWarshall) {
  // Random weighted digraph with self-loops of weight 0; repeated min-plus
  // squaring must converge to the Floyd–Warshall distances on the
  // reachable pairs.
  const index_t n = 24;
  mtx::CooMatrix coo(n, n);
  mtx::SplitMix64 rng(7);
  for (index_t i = 0; i < n; ++i) coo.add(i, i, 0.0);  // d(i,i) = 0
  for (int e = 0; e < 4 * n; ++e) {
    const auto u = static_cast<index_t>(rng.next_below(n));
    const auto v = static_cast<index_t>(rng.next_below(n));
    coo.add(u, v, static_cast<value_t>(1 + rng.next_below(9)));
  }
  // Duplicate edges must combine by min, not +: canonicalize would sum, so
  // build distances dense first and rebuild the matrix.
  std::vector<std::vector<value_t>> w(
      n, std::vector<value_t>(n, std::numeric_limits<value_t>::infinity()));
  for (nnz_t i = 0; i < coo.nnz(); ++i) {
    w[coo.row[i]][coo.col[i]] = std::min(w[coo.row[i]][coo.col[i]], coo.val[i]);
  }
  mtx::CooMatrix clean(n, n);
  for (index_t i = 0; i < n; ++i) {
    for (index_t j = 0; j < n; ++j) {
      if (std::isfinite(w[i][j])) clean.add(i, j, w[i][j]);
    }
  }
  clean.canonicalize();
  mtx::CsrMatrix dist = mtx::coo_to_csr(clean);

  // Floyd–Warshall on the dense copy.
  auto fw = w;
  for (index_t k = 0; k < n; ++k) {
    for (index_t i = 0; i < n; ++i) {
      for (index_t j = 0; j < n; ++j) {
        fw[i][j] = std::min(fw[i][j], fw[i][k] + fw[k][j]);
      }
    }
  }

  // Min-plus squaring log2(n) times reaches the closure.
  for (int step = 0; step < 6; ++step) {
    dist = spgemm_semiring<MinPlus>(dist, dist);
  }

  for (index_t i = 0; i < n; ++i) {
    std::vector<value_t> row(n, std::numeric_limits<value_t>::infinity());
    for (nnz_t p = dist.rowptr[i]; p < dist.rowptr[static_cast<std::size_t>(i) + 1]; ++p) {
      row[dist.colids[p]] = dist.vals[p];
    }
    for (index_t j = 0; j < n; ++j) {
      if (std::isfinite(fw[i][j])) {
        EXPECT_DOUBLE_EQ(row[j], fw[i][j]) << i << "," << j;
      } else {
        EXPECT_FALSE(std::isfinite(row[j])) << i << "," << j;
      }
    }
  }
}

TEST(Semiring, BoolOrAndIsReachability) {
  // Chain 0 -> 1 -> 2: A² over bool semiring has exactly 0 -> 2.
  const mtx::CsrMatrix a = from_triplets(3, 3, {{0, 1, 1.0}, {1, 2, 1.0}});
  const mtx::CsrMatrix a2 = spgemm_semiring<BoolOrAnd>(a, a);
  EXPECT_EQ(a2.nnz(), 1);
  EXPECT_EQ(a2.colids[0], 2);
  EXPECT_EQ(a2.vals[0], 1.0);
}

TEST(Semiring, BoolValuesStayBoolean) {
  const mtx::CsrMatrix a =
      mtx::to_pattern(testutil::exact_rmat(7, 6.0, 62));
  const mtx::CsrMatrix a2 = spgemm_semiring<BoolOrAnd>(a, a);
  for (const value_t v : a2.vals) EXPECT_EQ(v, 1.0);
}

TEST(Semiring, MaxMinWidestPath) {
  // Two 2-hop routes 0->1->3 (capacities 5, 2) and 0->2->3 (3, 3):
  // widest 2-hop capacity is max(min(5,2), min(3,3)) = 3.
  const mtx::CsrMatrix a = from_triplets(
      4, 4, {{0, 1, 5.0}, {1, 3, 2.0}, {0, 2, 3.0}, {2, 3, 3.0}});
  const mtx::CsrMatrix c = spgemm_semiring<MaxMin>(a, a);
  bool found = false;
  for (nnz_t i = c.rowptr[0]; i < c.rowptr[1]; ++i) {
    if (c.colids[i] == 3) {
      EXPECT_DOUBLE_EQ(c.vals[i], 3.0);
      found = true;
    }
  }
  EXPECT_TRUE(found);
}

TEST(Semiring, NamedDispatch) {
  const mtx::CsrMatrix a = testutil::exact_er(50, 50, 3.0, 63);
  const SpGemmProblem p = SpGemmProblem::square(a);
  EXPECT_TRUE(equal_exact(semiring_algorithm("spa", "plus_times")(p),
                          spgemm_semiring<PlusTimes>(a, a)));
  EXPECT_TRUE(equal_exact(semiring_algorithm("spa", "min_plus")(p),
                          spgemm_semiring<MinPlus>(a, a)));
  EXPECT_THROW(semiring_algorithm("spa", "nope"), std::invalid_argument);
}

TEST(Semiring, DimensionMismatchThrows) {
  const mtx::CsrMatrix a = testutil::exact_er(10, 20, 2.0, 64);
  const mtx::CsrMatrix b = testutil::exact_er(30, 10, 2.0, 65);
  EXPECT_THROW(spgemm_semiring<PlusTimes>(a, b), std::invalid_argument);
}

TEST(Semiring, PatternIsSemiringIndependent) {
  // The structural pattern of A ⊗ B is the same for every semiring (no
  // semiring here produces structural zeros).
  const mtx::CsrMatrix a = testutil::exact_er(120, 120, 4.0, 66);
  const mtx::CsrMatrix p1 = spgemm_semiring<PlusTimes>(a, a);
  const mtx::CsrMatrix p2 = spgemm_semiring<MinPlus>(a, a);
  const mtx::CsrMatrix p3 = spgemm_semiring<BoolOrAnd>(a, a);
  EXPECT_EQ(p1.rowptr, p2.rowptr);
  EXPECT_EQ(p1.colids, p2.colids);
  EXPECT_EQ(p1.rowptr, p3.rowptr);
  EXPECT_EQ(p1.colids, p3.colids);
}

}  // namespace
}  // namespace pbs
