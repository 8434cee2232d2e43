// Shared helpers for the test suite.
//
// Property tests compare floating-point matrix products across algorithms
// whose accumulation *order* differs: PB and hash add each duplicate sum
// in Gustavson's k order at any team size, but heap, ESC and the other
// kernels merge in their own orders.  To make equality exact rather than
// tolerance-based, random test matrices use small-integer values
// (mtx::make_values_exact): all intermediate sums then stay well inside
// the 2^53 exactly-representable range, so any order of additions yields
// bit-identical results.
#pragma once

#include <cstdint>
#include <string>

#include "matrix/convert.hpp"
#include "matrix/coo.hpp"
#include "matrix/csr.hpp"
#include "matrix/generate.hpp"
#include "pb/plan.hpp"
#include "spgemm/executor.hpp"

namespace pbs::testutil {

/// ER matrix with exact-integer values.
inline mtx::CsrMatrix exact_er(index_t nrows, index_t ncols, double d,
                               std::uint64_t seed) {
  mtx::CooMatrix coo = mtx::generate_er(nrows, ncols, d, seed);
  mtx::make_values_exact(coo);
  return mtx::coo_to_csr(coo);
}

/// R-MAT matrix with exact-integer values.
inline mtx::CsrMatrix exact_rmat(int scale, double edge_factor,
                                 std::uint64_t seed) {
  mtx::RmatParams p;
  p.scale = scale;
  p.edge_factor = edge_factor;
  p.seed = seed;
  mtx::CooMatrix coo = mtx::generate_rmat(p);
  mtx::make_values_exact(coo);
  return mtx::coo_to_csr(coo);
}

/// Small dense-ish matrix from an explicit triplet list.
inline mtx::CsrMatrix from_triplets(
    index_t nrows, index_t ncols,
    std::initializer_list<std::tuple<index_t, index_t, value_t>> entries) {
  mtx::CooMatrix coo(nrows, ncols);
  for (const auto& [r, c, v] : entries) coo.add(r, c, v);
  coo.canonicalize();
  return mtx::coo_to_csr(coo);
}

/// One PB product through the two calls the executor makes: pb_plan_build,
/// then pb_execute over `semiring` through `ws`.  Like the executor, it
/// marks the config value-free when the semiring is; unlike it, it reports
/// the plan's cost as the symbolic phase, so total_seconds() is
/// symbolic + numeric wall.
inline pb::PbResult pb_plan_execute(const mtx::CscMatrix& a,
                                    const mtx::CsrMatrix& b,
                                    pb::PbConfig cfg, pb::PbWorkspace& ws,
                                    const std::string& semiring =
                                        PlusTimes::name) {
  if (!cfg.value_free) cfg.value_free = semiring_value_free(semiring);
  const pb::PbPlan plan = pb::pb_plan_build(a, b, cfg);
  pb::PbResult r = pb::pb_execute_named(semiring, a, b, plan, ws,
                                        /*check_fingerprint=*/false);
  r.stats.symbolic = plan.symbolic;
  return r;
}

/// pb_plan_execute on a workspace of its own.
inline pb::PbResult pb_plan_execute(const mtx::CscMatrix& a,
                                    const mtx::CsrMatrix& b,
                                    const pb::PbConfig& cfg = {},
                                    const std::string& semiring =
                                        PlusTimes::name) {
  pb::PbWorkspace ws;
  return pb_plan_execute(a, b, cfg, ws, semiring);
}

/// A ⊗ B with the PB pipeline, end to end: one run of a fresh
/// SpGemmExecutor with op.algo = "pb", that semiring and that config.
inline mtx::CsrMatrix pb_product(const SpGemmProblem& p,
                                 const std::string& semiring = PlusTimes::name,
                                 const pb::PbConfig& cfg = {},
                                 RunInfo* info = nullptr) {
  SpGemmOp op;
  op.algo = "pb";
  op.semiring = semiring;
  op.pb = cfg;
  return SpGemmExecutor().run(p, op, info);
}

/// Two products with equal dims and nnz but different structure, for
/// callers who claim an unchanged structure: B's row 0 is dense and every
/// other row holds its diagonal entry; A is the diagonal without (0, 0),
/// plus (1, 0); A2 has A's dims and nnz with every entry in column 0.  So
/// A·B expands 2n − 1 tuples and A2·B expands n².
struct ChangedStructure {
  mtx::CsrMatrix a, a2, b;
};

inline ChangedStructure changed_structure(index_t n) {
  mtx::CooMatrix a(n, n), a2(n, n), b(n, n);
  a.add(1, 0, 2.0);
  for (index_t j = 0; j < n; ++j) b.add(0, j, static_cast<value_t>(1 + j % 3));
  for (index_t i = 1; i < n; ++i) {
    a.add(i, i, 1.0);
    b.add(i, i, 3.0);
  }
  for (index_t r = 0; r < n; ++r) a2.add(r, 0, static_cast<value_t>(1 + r % 5));
  for (mtx::CooMatrix* m : {&a, &a2, &b}) m->canonicalize();
  return {mtx::coo_to_csr(a), mtx::coo_to_csr(a2), mtx::coo_to_csr(b)};
}

}  // namespace pbs::testutil
