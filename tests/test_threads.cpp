// Thread-count invariance: results must be identical (bitwise, on exact
// integer values) no matter how many OpenMP threads run the algorithms.
#include <gtest/gtest.h>

#include "common/parallel.hpp"
#include "spgemm/registry.hpp"
#include "test_util.hpp"

namespace pbs {
namespace {

class ThreadSweep : public ::testing::TestWithParam<const char*> {};

TEST_P(ThreadSweep, ResultIndependentOfThreadCount) {
  const mtx::CsrMatrix a = testutil::exact_rmat(9, 6.0, 51);
  const SpGemmProblem p = SpGemmProblem::square(a);
  const SpGemmFn fn = semiring_algorithm(GetParam(), PlusTimes::name);

  mtx::CsrMatrix serial;
  {
    ThreadCountGuard guard(1);
    serial = fn(p);
  }
  for (const int threads : {2, 3, max_threads() + 2}) {
    ThreadCountGuard guard(threads);
    const mtx::CsrMatrix parallel = fn(p);
    EXPECT_TRUE(equal_exact(serial, parallel))
        << GetParam() << " diverges at " << threads << " threads";
  }
}

INSTANTIATE_TEST_SUITE_P(Algos, ThreadSweep,
                         ::testing::Values("pb", "heap", "hash", "hashvec",
                                           "spa", "esc"));

TEST(ThreadSweep, PbTelemetryConsistentAcrossThreadCounts) {
  const mtx::CsrMatrix a = testutil::exact_er(600, 600, 6.0, 52);
  const SpGemmProblem p = SpGemmProblem::square(a);
  RunInfo r1, r4;
  mtx::CsrMatrix c1, c4;
  {
    ThreadCountGuard guard(1);
    c1 = testutil::pb_product(p, PlusTimes::name, {}, &r1);
  }
  {
    ThreadCountGuard guard(4);
    c4 = testutil::pb_product(p, PlusTimes::name, {}, &r4);
  }
  // Work metrics are structural, not timing-dependent.
  EXPECT_EQ(r1.pb_stats.flop, r4.pb_stats.flop);
  EXPECT_EQ(r1.pb_stats.nnz_c, r4.pb_stats.nnz_c);
  EXPECT_EQ(r1.pb_stats.nbins, r4.pb_stats.nbins);
  EXPECT_TRUE(equal_exact(c1, c4));
}

TEST(ThreadSweep, OversubscriptionIsSafe) {
  // More threads than rows/bins: degenerate schedules must still be correct.
  const mtx::CsrMatrix a = testutil::exact_er(40, 40, 3.0, 53);
  const SpGemmProblem p = SpGemmProblem::square(a);
  ThreadCountGuard guard(16);
  const mtx::CsrMatrix c = semiring_algorithm("pb", PlusTimes::name)(p);
  EXPECT_TRUE(equal_exact(c, reference_spgemm(p)));
}

}  // namespace
}  // namespace pbs
