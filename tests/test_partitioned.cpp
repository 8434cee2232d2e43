// The paper's Sec. V-D row-partitioned variant: an R×1 ShardRouter splits
// A into R row blocks, each multiplied with the whole B by its own
// executor.  Checked against the serial reference (not just against a
// single executor, which the shard test does across semirings), with the
// block count, flop aggregation and per-block plan reuse.
#include <gtest/gtest.h>

#include "serve/shard.hpp"
#include "spgemm/spgemm.hpp"
#include "test_util.hpp"

namespace pbs {
namespace {

serve::ShardRouter row_router(int nparts) {
  serve::ShardOptions so;
  so.rows = nparts;
  so.cols = 1;
  so.pin_numa = false;
  return serve::ShardRouter(so);
}

SpGemmOp pb_op() {
  SpGemmOp op;
  op.algo = "pb";
  return op;
}

class Partitioned : public ::testing::TestWithParam<int> {};

TEST_P(Partitioned, MatchesUnpartitionedOnEr) {
  const int nparts = GetParam();
  const mtx::CsrMatrix a = testutil::exact_er(500, 500, 5.0, 81);
  const SpGemmProblem p = SpGemmProblem::square(a);
  const mtx::CsrMatrix expected = reference_spgemm(p);
  serve::ShardRouter router = row_router(nparts);
  const mtx::CsrMatrix c = router.run(p, pb_op());
  ASSERT_TRUE(c.valid());
  EXPECT_TRUE(mtx::equal_exact(c, expected));
  EXPECT_EQ(router.nshards(), nparts);
  EXPECT_EQ(router.shard_stats().size(), static_cast<std::size_t>(nparts));
}

TEST_P(Partitioned, MatchesUnpartitionedOnSkewedRmat) {
  const int nparts = GetParam();
  const mtx::CsrMatrix a = testutil::exact_rmat(8, 8.0, 82);
  const SpGemmProblem p = SpGemmProblem::square(a);
  serve::ShardRouter router = row_router(nparts);
  EXPECT_TRUE(mtx::equal_exact(router.run(p, pb_op()), reference_spgemm(p)));
}

INSTANTIATE_TEST_SUITE_P(Parts, Partitioned, ::testing::Values(1, 2, 3, 7, 16));

TEST(PartitionedEdge, SinglePartEqualsPlainPb) {
  const mtx::CsrMatrix a = testutil::exact_er(300, 300, 4.0, 83);
  const SpGemmProblem p = SpGemmProblem::square(a);
  serve::ShardRouter router = row_router(1);
  RunInfo part;
  const mtx::CsrMatrix c = router.run(p, pb_op(), {}, &part);
  RunInfo plain;
  const mtx::CsrMatrix expected = testutil::pb_product(p, PlusTimes::name,
                                                       {}, &plain);
  EXPECT_TRUE(mtx::equal_exact(c, expected));
  EXPECT_TRUE(part.used_pb);
  EXPECT_EQ(part.pb_stats.flop, plain.pb_stats.flop);
}

TEST(PartitionedEdge, PartFlopsSumToTotal) {
  const mtx::CsrMatrix a = testutil::exact_er(400, 400, 6.0, 84);
  const SpGemmProblem p = SpGemmProblem::square(a);
  RunInfo plain;
  const mtx::CsrMatrix expected = testutil::pb_product(p, PlusTimes::name,
                                                       {}, &plain);
  serve::ShardRouter router = row_router(4);
  RunInfo parts;
  const mtx::CsrMatrix c = router.run(p, pb_op(), {}, &parts);
  // The router's flop is the sum over the row blocks; B is never split,
  // so every flop lands in exactly one block.
  EXPECT_EQ(parts.flop, plain.flop);
  EXPECT_EQ(c.nnz(), expected.nnz());
}

TEST(PartitionedEdge, MorePartsThanRows) {
  const mtx::CsrMatrix a = testutil::exact_er(5, 5, 2.0, 85);
  const SpGemmProblem p = SpGemmProblem::square(a);
  serve::ShardRouter router = row_router(64);
  EXPECT_TRUE(mtx::equal_exact(router.run(p, pb_op()), reference_spgemm(p)));
}

TEST(PartitionedEdge, RectangularOperands) {
  const mtx::CsrMatrix a = testutil::exact_er(120, 60, 3.0, 86);
  const mtx::CsrMatrix b = testutil::exact_er(60, 90, 3.0, 87);
  const SpGemmProblem p = SpGemmProblem::multiply(a, b);
  serve::ShardRouter router = row_router(3);
  EXPECT_TRUE(mtx::equal_exact(router.run(p, pb_op()), reference_spgemm(p)));
}

TEST(PartitionedEdge, EmptyMatrix) {
  mtx::CooMatrix empty(40, 40);
  const mtx::CsrMatrix e = mtx::coo_to_csr(empty);
  const SpGemmProblem p = SpGemmProblem::square(e);
  serve::ShardRouter router = row_router(4);
  const mtx::CsrMatrix c = router.run(p, pb_op());
  EXPECT_EQ(c.nnz(), 0);
  EXPECT_TRUE(c.valid());
}

TEST(PartitionedPlanTest, RepeatedExecutionMatchesFusedPath) {
  const mtx::CsrMatrix a = testutil::exact_er(300, 300, 6.0, 26);
  const SpGemmProblem p = SpGemmProblem::square(a);
  const mtx::CsrMatrix expected = reference_spgemm(p);

  serve::ShardRouter router = row_router(4);
  EXPECT_EQ(router.nshards(), 4);

  RunInfo first;
  const mtx::CsrMatrix c1 = router.run(p, pb_op(), {}, &first);
  RunInfo second;
  const mtx::CsrMatrix c2 = router.run(p, pb_op(), {}, &second);
  EXPECT_TRUE(mtx::equal_exact(c1, expected));
  EXPECT_TRUE(mtx::equal_exact(c2, expected));
  EXPECT_GT(first.plan_seconds, 0.0);
  // Row blocks are short, so the blocks' plans pack the narrow format,
  // and the first block's telemetry reports it.
  EXPECT_EQ(first.pb_stats.format, pb::TupleFormat::kNarrow);
  EXPECT_EQ(first.pb_stats.tuple_bytes(), 12.0);

  // The second run reuses every block's cached plan.
  EXPECT_FALSE(first.cache_hit);
  EXPECT_TRUE(second.cache_hit);
  for (const ExecutorStats& s : router.shard_stats()) {
    EXPECT_EQ(s.cache_misses, 1u);
    EXPECT_EQ(s.cache_hits, 1u);
  }

  // The same product through one executor agrees bit for bit.
  EXPECT_TRUE(mtx::equal_exact(c1, testutil::pb_product(p)));
}

}  // namespace
}  // namespace pbs
