// Integration tests mirroring the example applications: each drives several
// library subsystems (generators, SpGEMM, element-wise ops) through a real
// workload with an independently checkable answer.
#include <gtest/gtest.h>

#include <cmath>

#include "matrix/convert.hpp"
#include "matrix/generate.hpp"
#include "matrix/ops.hpp"
#include "spgemm/registry.hpp"
#include "test_util.hpp"

namespace pbs {
namespace {

// Triangle counting via L·L masked by L (L = strictly lower adjacency):
// Σ (L·L .* L) counts each triangle exactly once.
value_t count_triangles(const mtx::CsrMatrix& adj) {
  const mtx::CsrMatrix lower = mtx::to_pattern(mtx::tril(adj));
  const SpGemmProblem p = SpGemmProblem::square(lower);
  const mtx::CsrMatrix ll = testutil::pb_product(p);
  return mtx::value_sum(mtx::hadamard(ll, lower));
}

mtx::CsrMatrix complete_graph(index_t n) {
  mtx::CooMatrix coo(n, n);
  for (index_t i = 0; i < n; ++i) {
    for (index_t j = 0; j < n; ++j) {
      if (i != j) coo.add(i, j, 1.0);
    }
  }
  coo.canonicalize();
  return mtx::coo_to_csr(coo);
}

TEST(TriangleCounting, CompleteGraphHasNChoose3) {
  for (const index_t n : {4, 5, 8, 12}) {
    const value_t expected = static_cast<value_t>(n * (n - 1) * (n - 2) / 6);
    EXPECT_DOUBLE_EQ(count_triangles(complete_graph(n)), expected) << "K" << n;
  }
}

TEST(TriangleCounting, TreeHasNoTriangles) {
  // A path graph: 0-1-2-...-63.
  mtx::CooMatrix coo(64, 64);
  for (index_t i = 0; i + 1 < 64; ++i) {
    coo.add(i, i + 1, 1.0);
    coo.add(i + 1, i, 1.0);
  }
  coo.canonicalize();
  EXPECT_DOUBLE_EQ(count_triangles(mtx::coo_to_csr(coo)), 0.0);
}

TEST(TriangleCounting, SingleTriangleWithPendantEdge) {
  mtx::CooMatrix coo(5, 5);
  auto edge = [&coo](index_t u, index_t v) {
    coo.add(u, v, 1.0);
    coo.add(v, u, 1.0);
  };
  edge(0, 1);
  edge(1, 2);
  edge(0, 2);
  edge(2, 3);  // pendant
  coo.canonicalize();
  EXPECT_DOUBLE_EQ(count_triangles(mtx::coo_to_csr(coo)), 1.0);
}

TEST(TriangleCounting, AgreesAcrossAlgorithms) {
  const mtx::CsrMatrix adj =
      mtx::symmetrize(testutil::exact_er(300, 300, 6.0, 41));
  const mtx::CsrMatrix lower = mtx::to_pattern(mtx::tril(adj));
  const SpGemmProblem p = SpGemmProblem::square(lower);
  const value_t via_pb = mtx::value_sum(
      mtx::hadamard(semiring_algorithm("pb", PlusTimes::name)(p), lower));
  const value_t via_hash = mtx::value_sum(
      mtx::hadamard(semiring_algorithm("hash", PlusTimes::name)(p), lower));
  EXPECT_DOUBLE_EQ(via_pb, via_hash);
}

// One Markov-clustering (MCL) iteration: expand (A²), inflate (Hadamard
// power), prune, re-normalize.  The invariant: columns stay stochastic.
TEST(MarkovClustering, IterationPreservesColumnStochasticity) {
  const mtx::CsrMatrix raw = mtx::coo_to_csr(mtx::generate_er(200, 200, 5.0, 42));
  mtx::CsrMatrix m = mtx::normalize_columns(
      mtx::add(raw, mtx::CsrMatrix::identity(200)));  // self-loops, as MCL does

  for (int iter = 0; iter < 3; ++iter) {
    const SpGemmProblem p = SpGemmProblem::square(m);
    m = testutil::pb_product(p);           // expansion
    m = mtx::element_power(m, 2.0);        // inflation r=2
    m = mtx::prune(m, 1e-6);
    m = mtx::normalize_columns(m);
    const std::vector<value_t> sums = mtx::col_sums(m);
    for (index_t c = 0; c < m.ncols; ++c) {
      ASSERT_NEAR(sums[c], 1.0, 1e-9) << "iter " << iter << " col " << c;
    }
  }
}

TEST(MarkovClustering, DisconnectedCliquesConvergeToAttractors) {
  // Two disjoint 4-cliques: MCL must never mix their columns.
  mtx::CooMatrix coo(8, 8);
  for (index_t base : {0, 4}) {
    for (index_t i = 0; i < 4; ++i) {
      for (index_t j = 0; j < 4; ++j) coo.add(base + i, base + j, 1.0);
    }
  }
  coo.canonicalize();
  mtx::CsrMatrix m = mtx::normalize_columns(mtx::coo_to_csr(coo));
  for (int iter = 0; iter < 8; ++iter) {
    const SpGemmProblem p = SpGemmProblem::square(m);
    m = mtx::normalize_columns(
        mtx::prune(mtx::element_power(testutil::pb_product(p), 2.0),
                   1e-9));
  }
  // No entry may cross the block boundary.
  for (index_t r = 0; r < 8; ++r) {
    for (const index_t c : m.row_cols(r)) {
      EXPECT_EQ(r / 4, c / 4) << "clusters mixed";
    }
  }
}

// Multi-source BFS: frontier expansion F' = Aᵀ·F on indicator matrices.
TEST(MultiSourceBfs, ReachesExactlyTheReachableSet) {
  // Directed chain 0->1->2->3 plus isolated vertex 4.
  mtx::CooMatrix coo(5, 5);
  coo.add(0, 1, 1.0);
  coo.add(1, 2, 1.0);
  coo.add(2, 3, 1.0);
  coo.canonicalize();
  const mtx::CsrMatrix at = mtx::transpose(mtx::coo_to_csr(coo));

  // Frontier: one source column starting at vertex 0.
  mtx::CooMatrix fcoo(5, 1);
  fcoo.add(0, 0, 1.0);
  fcoo.canonicalize();
  mtx::CsrMatrix frontier = mtx::coo_to_csr(fcoo);

  std::vector<bool> visited(5, false);
  visited[0] = true;
  for (int level = 0; level < 5 && frontier.nnz() > 0; ++level) {
    const SpGemmProblem p = SpGemmProblem::multiply(at, frontier);
    frontier = mtx::to_pattern(testutil::pb_product(p));
    // Mask out already-visited vertices.
    mtx::CooMatrix next(5, 1);
    for (index_t r = 0; r < 5; ++r) {
      if (frontier.row_nnz(r) > 0 && !visited[r]) {
        visited[r] = true;
        next.add(r, 0, 1.0);
      }
    }
    next.canonicalize();
    frontier = mtx::coo_to_csr(next);
  }
  EXPECT_TRUE(visited[0] && visited[1] && visited[2] && visited[3]);
  EXPECT_FALSE(visited[4]);
}

// Galerkin triple product R·A·P for a 1-D two-level multigrid hierarchy.
TEST(AmgGalerkin, CoarseOperatorOfLaplacianIsLaplacianLike) {
  // 1-D Poisson matrix: tridiag(-1, 2, -1), n = 64.
  const index_t n = 64;
  mtx::CooMatrix acoo(n, n);
  for (index_t i = 0; i < n; ++i) {
    acoo.add(i, i, 2.0);
    if (i > 0) acoo.add(i, i - 1, -1.0);
    if (i + 1 < n) acoo.add(i, i + 1, -1.0);
  }
  acoo.canonicalize();
  const mtx::CsrMatrix a = mtx::coo_to_csr(acoo);

  // Linear interpolation P (n x n/2), R = Pᵀ.
  const index_t nc = n / 2;
  mtx::CooMatrix pcoo(n, nc);
  for (index_t j = 0; j < nc; ++j) {
    const index_t fine = 2 * j + 1;
    pcoo.add(fine, j, 1.0);
    if (fine > 0) pcoo.add(fine - 1, j, 0.5);
    if (fine + 1 < n) pcoo.add(fine + 1, j, 0.5);
  }
  pcoo.canonicalize();
  const mtx::CsrMatrix prolong = mtx::coo_to_csr(pcoo);
  const mtx::CsrMatrix restrict_op = mtx::transpose(prolong);

  const SpGemmFn pb = semiring_algorithm("pb", PlusTimes::name);
  const mtx::CsrMatrix ap = pb(SpGemmProblem::multiply(a, prolong));
  const mtx::CsrMatrix coarse = pb(SpGemmProblem::multiply(restrict_op, ap));

  ASSERT_EQ(coarse.nrows, nc);
  ASSERT_EQ(coarse.ncols, nc);
  // Galerkin coarse Laplacian: tridiagonal, rows sum to ~0 in the interior,
  // symmetric positive diagonal.
  EXPECT_TRUE(equal_approx(coarse, mtx::transpose(coarse), 1e-12, 1e-12));
  for (index_t i = 1; i + 1 < nc; ++i) {
    value_t row_sum = 0;
    for (const value_t v : coarse.row_vals(i)) row_sum += v;
    EXPECT_NEAR(row_sum, 0.0, 1e-12) << "row " << i;
    EXPECT_LE(coarse.row_nnz(i), 3);
  }
}

}  // namespace
}  // namespace pbs
