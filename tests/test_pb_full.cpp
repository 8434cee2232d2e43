// End-to-end PB-SpGEMM: correctness across configurations and telemetry
// invariants (Table III byte accounting).
#include "pb/plan.hpp"

#include <gtest/gtest.h>

#include <string>

#include "common/parallel.hpp"
#include "matrix/convert.hpp"
#include "matrix/mstats.hpp"
#include "spgemm/spgemm.hpp"
#include "test_util.hpp"

namespace pbs::pb {
namespace {

struct FullCase {
  int nbins;            // 0 = auto
  int local_bin_bytes;
};

void PrintTo(const FullCase& c, std::ostream* os) {
  *os << "range_nb" << c.nbins << "_lb" << c.local_bin_bytes;
}

class PbFull : public ::testing::TestWithParam<FullCase> {};

TEST_P(PbFull, MatchesReferenceOnEr) {
  const FullCase& fc = GetParam();
  const mtx::CsrMatrix a = testutil::exact_er(600, 600, 5.0, 21);
  const SpGemmProblem p = SpGemmProblem::square(a);

  PbConfig cfg;
  cfg.nbins = fc.nbins;
  cfg.local_bin_bytes = fc.local_bin_bytes;

  const PbResult r = testutil::pb_plan_execute(p.a_csc, p.b_csr, cfg);
  ASSERT_TRUE(r.c.valid());
  EXPECT_TRUE(equal_exact(r.c, reference_spgemm(p)));
}

TEST_P(PbFull, MatchesReferenceOnSkewedRmat) {
  const FullCase& fc = GetParam();
  const mtx::CsrMatrix a = testutil::exact_rmat(9, 8.0, 22);
  const SpGemmProblem p = SpGemmProblem::square(a);

  PbConfig cfg;
  cfg.nbins = fc.nbins;
  cfg.local_bin_bytes = fc.local_bin_bytes;

  const PbResult r = testutil::pb_plan_execute(p.a_csc, p.b_csr, cfg);
  EXPECT_TRUE(equal_exact(r.c, reference_spgemm(p)));
}

INSTANTIATE_TEST_SUITE_P(
    Configs, PbFull,
    ::testing::Values(FullCase{0, 512}, FullCase{1, 512}, FullCase{64, 512},
                      FullCase{16, 16}, FullCase{16, 4096}, FullCase{32, 512},
                      FullCase{32, 128}));

TEST(PbTelemetry, FlopAndNnzMatchIndependentCounts) {
  const mtx::CsrMatrix a = testutil::exact_er(800, 800, 6.0, 23);
  const SpGemmProblem p = SpGemmProblem::square(a);
  const PbResult r = testutil::pb_plan_execute(p.a_csc, p.b_csr);
  EXPECT_EQ(r.stats.flop, mtx::count_flops(a, a));
  EXPECT_EQ(r.stats.nnz_c, mtx::symbolic_nnz(a, a));
  EXPECT_EQ(r.stats.nnz_c, r.c.nnz());
  EXPECT_NEAR(r.stats.cf(),
              static_cast<double>(r.stats.flop) / static_cast<double>(r.c.nnz()),
              1e-12);
}

// The phase seconds are walls: expand up to the barrier, the bin loop split
// among sort, compress and convert, and the tail in convert.  They sum to
// the numeric wall, at one lane as at full width.
TEST(PbTelemetry, PhaseTimesPositiveAndSumToTotal) {
  const mtx::CsrMatrix a = testutil::exact_er(1000, 1000, 8.0, 24);
  const SpGemmProblem p = SpGemmProblem::square(a);
  for (const int threads : {1, max_threads()}) {
    const ThreadCountGuard lanes(threads);
    SCOPED_TRACE(std::to_string(threads) + " thread(s)");
    const PbResult r = testutil::pb_plan_execute(p.a_csc, p.b_csr);
    const PbTelemetry& t = r.stats;
    EXPECT_EQ(t.schedule, PbSchedule::kPipeline);
    EXPECT_GT(t.symbolic.seconds, 0.0);
    EXPECT_GT(t.expand.seconds, 0.0);
    EXPECT_GE(t.sort.seconds, 0.0);
    EXPECT_GE(t.compress.seconds, 0.0);
    EXPECT_GT(t.convert.seconds, 0.0);
    EXPECT_GT(t.wall_seconds, 0.0);
    EXPECT_NEAR(t.expand.seconds + t.sort.seconds + t.compress.seconds +
                    t.convert.seconds,
                t.wall_seconds, 1e-9);
    EXPECT_NEAR(t.total_seconds(), t.symbolic.seconds + t.wall_seconds,
                1e-12);
    EXPECT_GT(t.mflops(), 0.0);
  }
}

TEST(PbTelemetry, ByteModelFollowsTableIIIPerFormat) {
  const mtx::CsrMatrix a = testutil::exact_er(500, 500, 4.0, 25);
  const SpGemmProblem p = SpGemmProblem::square(a);
  for (const FormatPolicy format : {FormatPolicy::kWide, FormatPolicy::kNarrow}) {
    PbConfig cfg;
    cfg.format = format;
    const PbResult r = testutil::pb_plan_execute(p.a_csc, p.b_csr, cfg);
    const PbTelemetry& t = r.stats;
    // Inputs are charged at the paper's COO cost; the tuple stream at the
    // format's actual bytes per tuple (16 wide, 12 narrow).
    const double b = kBytesPerTuple;
    const double bpt = t.tuple_bytes();
    EXPECT_EQ(bpt, format == FormatPolicy::kNarrow ? 12.0 : 16.0);
    EXPECT_DOUBLE_EQ(t.expand.bytes,
                     b * 2.0 * static_cast<double>(a.nnz()) +
                         bpt * static_cast<double>(t.flop));
    EXPECT_DOUBLE_EQ(t.sort.bytes, bpt * static_cast<double>(t.flop));
    EXPECT_DOUBLE_EQ(t.compress.bytes, bpt * static_cast<double>(t.nnz_c));
  }
}

// The fields the benchmark harness still reads: one schedule, no stealing
// and no overlap, since the phases are walls that meet at one barrier.
TEST(PbTelemetry, ScheduleReportedWithoutStealingOrOverlap) {
  const mtx::CsrMatrix a = testutil::exact_er(600, 600, 6.0, 29);
  const SpGemmProblem p = SpGemmProblem::square(a);

  const auto run = [&](int threads) {
    const ThreadCountGuard lanes(threads);
    return testutil::pb_plan_execute(p.a_csc, p.b_csr);
  };
  const PbResult one = run(1);
  const PbResult full = run(max_threads());
  EXPECT_TRUE(mtx::equal_exact(one.c, full.c));
  for (const PbResult* r : {&one, &full}) {
    const PbTelemetry& t = r->stats;
    EXPECT_EQ(t.schedule, PbSchedule::kPipeline);
    EXPECT_GT(t.wall_seconds, 0.0);
    EXPECT_EQ(t.bins_stolen, 0);
    EXPECT_GE(t.bin_wait_seconds, 0.0);
    EXPECT_NEAR(t.overlap_seconds(), 0.0, 1e-9);
  }
  // Byte models are team-size-independent (Table III counts traffic, not
  // scheduling).
  EXPECT_DOUBLE_EQ(one.stats.expand.bytes, full.stats.expand.bytes);
  EXPECT_DOUBLE_EQ(one.stats.sort.bytes, full.stats.sort.bytes);
  EXPECT_DOUBLE_EQ(one.stats.compress.bytes, full.stats.compress.bytes);
}

TEST(PbTelemetry, NbinsReported) {
  const mtx::CsrMatrix a = testutil::exact_er(256, 256, 4.0, 26);
  const SpGemmProblem p = SpGemmProblem::square(a);
  PbConfig cfg;
  cfg.nbins = 8;
  const PbResult r = testutil::pb_plan_execute(p.a_csc, p.b_csr, cfg);
  EXPECT_GE(r.stats.nbins, 1);
  EXPECT_LE(r.stats.nbins, 8);
  EXPECT_GT(r.stats.rows_per_bin, 0);
}

TEST(PbEdgeCases, EmptyTimesEmpty) {
  mtx::CooMatrix empty(50, 50);
  const mtx::CsrMatrix e = mtx::coo_to_csr(empty);
  const PbResult r = testutil::pb_plan_execute(mtx::csr_to_csc(e), e);
  EXPECT_EQ(r.c.nnz(), 0);
  EXPECT_TRUE(r.c.valid());
  EXPECT_EQ(r.stats.flop, 0);
}

TEST(PbEdgeCases, OneByOne) {
  mtx::CooMatrix coo(1, 1);
  coo.add(0, 0, 3.0);
  coo.canonicalize();
  const mtx::CsrMatrix a = mtx::coo_to_csr(coo);
  const PbResult r = testutil::pb_plan_execute(mtx::csr_to_csc(a), a);
  ASSERT_EQ(r.c.nnz(), 1);
  EXPECT_EQ(r.c.vals[0], 9.0);
}

TEST(PbEdgeCases, RectangularProduct) {
  const mtx::CsrMatrix a = testutil::exact_er(64, 128, 4.0, 27);
  const mtx::CsrMatrix b = testutil::exact_er(128, 32, 4.0, 28);
  const SpGemmProblem p = SpGemmProblem::multiply(a, b);
  const PbResult r = testutil::pb_plan_execute(p.a_csc, p.b_csr);
  EXPECT_EQ(r.c.nrows, 64);
  EXPECT_EQ(r.c.ncols, 32);
  EXPECT_TRUE(equal_exact(r.c, reference_spgemm(p)));
}

TEST(PbEdgeCases, MismatchedDimensionsThrow) {
  const mtx::CsrMatrix a = testutil::exact_er(10, 20, 2.0, 29);
  const mtx::CsrMatrix b = testutil::exact_er(30, 10, 2.0, 30);
  EXPECT_THROW(testutil::pb_plan_execute(mtx::csr_to_csc(a), b),
               std::invalid_argument);
}

TEST(PbEdgeCases, HubRowAndColumn) {
  // Row 0 and column 0 fully dense: the single-bin-overload stress case.
  mtx::CooMatrix coo(256, 256);
  for (index_t i = 0; i < 256; ++i) {
    coo.add(0, i, 1.0);
    coo.add(i, 0, 1.0);
  }
  coo.canonicalize();
  const mtx::CsrMatrix a = mtx::coo_to_csr(coo);
  const SpGemmProblem p = SpGemmProblem::square(a);
  PbConfig cfg;
  cfg.nbins = 8;
  const PbResult r = testutil::pb_plan_execute(p.a_csc, p.b_csr, cfg);
  EXPECT_TRUE(equal_exact(r.c, reference_spgemm(p)));
}

TEST(PbDeterminism, FloatProductIsIndependentOfTeamSize) {
  // Floating-point values, not make_values_exact: every bin holds its
  // tuples in A-column order whatever chunks the plan has, and the stable
  // sort keeps that order, so each duplicate sum is added in Gustavson's
  // k order at any team size — plain, expand-masked or complemented.
  mtx::RmatParams rp;
  rp.scale = 10;
  rp.edge_factor = 16;
  rp.seed = 21;
  const mtx::CsrMatrix a = mtx::coo_to_csr(mtx::generate_rmat(rp));
  const SpGemmProblem p = SpGemmProblem::square(a);
  auto run = [&](int lanes, const std::string& algo, bool masked,
                 bool complement) {
    const ThreadCountGuard team(lanes);
    SpGemmOp op;
    op.algo = algo;
    if (masked) {
      op.mask = &a;
      op.complement = complement;
      op.pb.expand_mask_max_density = 1.0;
    }
    SpGemmExecutor exec;
    RunInfo info;
    mtx::CsrMatrix c = exec.run(p, op, &info);
    EXPECT_EQ(info.used_pb, algo == "pb");
    if (info.used_pb) EXPECT_EQ(info.pb_stats.expand_masked, masked);
    return c;
  };
  const int team = max_threads();
  for (const bool masked : {false, true}) {
    for (const bool complement : {false, true}) {
      if (complement && !masked) continue;
      const mtx::CsrMatrix one = run(1, "pb", masked, complement);
      EXPECT_TRUE(equal_exact(one, run(team, "pb", masked, complement)))
          << "masked " << masked << " complement " << complement;
      if (!masked) EXPECT_TRUE(equal_exact(one, run(team, "hash", false, false)));
    }
  }
}

}  // namespace
}  // namespace pbs::pb
