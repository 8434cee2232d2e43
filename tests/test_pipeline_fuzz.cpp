// Randomized pipeline fuzzing: chains of library operations (SpGEMM over a
// random (algorithm × semiring) pair + element-wise ops + conversions)
// applied to random matrices of random shape/density, mirrored
// step-by-step against a dense implementation.  SpGEMM steps alternate
// randomly between fresh multiplies and one executor running the product
// twice (plan once, outputs must be identical); fresh steps through the
// PB pipeline additionally randomize the PbConfig (bin count, local-bin
// width, format, streaming stores), so expand's always-on slice checks run
// under fuzzed layouts.  Catches
// interaction bugs that single-op tests cannot (pattern/value coupling,
// empty intermediate results, shape propagation, semiring/config
// coupling).
#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "common/parallel.hpp"
#include "matrix/convert.hpp"
#include "matrix/generate.hpp"
#include "matrix/ops.hpp"
#include "spgemm/executor.hpp"
#include "spgemm/masked.hpp"
#include "spgemm/registry.hpp"
#include "spgemm/semiring.hpp"
#include "test_util.hpp"

namespace pbs {
namespace {

using Dense = std::vector<std::vector<value_t>>;

Dense to_dense(const mtx::CsrMatrix& a) {
  Dense d(static_cast<std::size_t>(a.nrows),
          std::vector<value_t>(static_cast<std::size_t>(a.ncols), 0.0));
  for (index_t r = 0; r < a.nrows; ++r) {
    for (nnz_t i = a.rowptr[r]; i < a.rowptr[static_cast<std::size_t>(r) + 1]; ++i)
      d[r][a.colids[i]] = a.vals[i];
  }
  return d;
}

// Dense mirror of the sparse semiring product.  0.0 means "absent" here:
// the fuzz chain keeps every stored value strictly positive (small
// integers, re-normalized after each multiply), so structural presence and
// a nonzero dense cell coincide and S-accumulation over present operands
// mirrors the sparse kernels exactly.
template <typename S>
Dense dense_mult(const Dense& a, const Dense& b) {
  Dense c(a.size(), std::vector<value_t>(b[0].size(), 0.0));
  for (std::size_t i = 0; i < a.size(); ++i) {
    for (std::size_t j = 0; j < b[0].size(); ++j) {
      bool any = false;
      value_t acc = S::zero();
      for (std::size_t k = 0; k < b.size(); ++k) {
        if (a[i][k] == 0.0 || b[k][j] == 0.0) continue;
        const value_t product = S::mul(a[i][k], b[k][j]);
        acc = any ? S::add(acc, product) : product;
        any = true;
      }
      if (any) c[i][j] = acc;
    }
  }
  return c;
}

void expect_dense_eq(const mtx::CsrMatrix& sparse, const Dense& dense,
                     int step) {
  ASSERT_TRUE(sparse.valid()) << "step " << step;
  const Dense got = to_dense(sparse);
  for (std::size_t r = 0; r < dense.size(); ++r) {
    for (std::size_t c = 0; c < dense[r].size(); ++c) {
      ASSERT_NEAR(got[r][c], dense[r][c], 1e-9 * (1.0 + std::abs(dense[r][c])))
          << "step " << step << " at (" << r << "," << c << ")";
    }
  }
}

// A random PbConfig: bin count, local-bin width, format and store path all
// vary.
pb::PbConfig random_pb_config(mtx::SplitMix64& rng) {
  pb::PbConfig cfg;
  const int nbins_choices[] = {0, 1, 2, 8, 64};
  cfg.nbins = nbins_choices[rng.next_below(5)];
  const int width_choices[] = {16, 64, 512};
  cfg.local_bin_bytes = width_choices[rng.next_below(3)];
  // kKeyOnly is legal here for every semiring: requests are preferences,
  // so valued semirings fall back to the auto choice.
  const pb::FormatPolicy formats[] = {
      pb::FormatPolicy::kAuto, pb::FormatPolicy::kWide,
      pb::FormatPolicy::kNarrow, pb::FormatPolicy::kKeyOnly};
  cfg.format = formats[rng.next_below(4)];
  cfg.streaming_stores = rng.next_below(2) == 0;
  return cfg;
}

class PipelineFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(PipelineFuzz, RandomOpChainMatchesDenseMirror) {
  mtx::SplitMix64 rng(GetParam());
  // Shape and density are themselves fuzzed.
  const auto n = static_cast<index_t>(24 + rng.next_below(40));
  const double density = 2.0 + static_cast<double>(rng.next_below(5));

  mtx::CsrMatrix m = testutil::exact_er(n, n, density, GetParam() + 1000);
  Dense d = to_dense(m);

  const std::vector<const char*> algos{"pb", "heap", "hash", "spa", "esc"};
  for (int step = 0; step < 12; ++step) {
    switch (rng.next_below(8)) {
      case 0: {  // SpGEMM square: random algorithm × random semiring
        const char* algo = algos[rng.next_below(algos.size())];
        // Only pb/heap/spa register non-numeric semirings (see registry).
        const bool generalized = algorithm(algo).semirings.size() > 1;
        const std::string semiring =
            generalized ? semiring_names()[rng.next_below(
                              semiring_names().size())]
                        : PlusTimes::name;
        const SpGemmProblem problem = SpGemmProblem::square(m);
        // Half the steps go through a fresh multiply, half through one
        // executor running the product twice (the second run reuses
        // analysis + workspace and must be identical).
        const bool via_plan = rng.next_below(2) == 0;
        dispatch_semiring(semiring, [&]<typename S>() {
          if (via_plan) {
            SpGemmOp op;
            op.algo = algo;
            op.semiring = semiring;
            SpGemmExecutor exec;
            const mtx::CsrMatrix once = exec.run(problem, op);
            m = exec.run(problem, op);
            ASSERT_TRUE(mtx::equal_exact(once, m))
                << "plan re-execution diverged at step " << step;
            ASSERT_LE(exec.stats().cache_misses, 1u);
          } else if (std::string(algo) == "pb") {
            // Fuzz the PbConfig too.
            m = testutil::pb_product(problem, semiring,
                                     random_pb_config(rng));
          } else {
            m = semiring_algorithm(algo, semiring)(problem);
          }
          d = dense_mult<S>(d, d);
        });
        // The semiring product itself must match before re-normalization.
        expect_dense_eq(m, d, step);
        // Keep magnitudes bounded so the dense mirror stays comparable:
        // re-normalize to the pattern (element_power(x, 0) maps every
        // stored value, including stored zeros, to 1 — mirror by taking
        // the pattern of the normalized matrix, not by mapping d's cells).
        if (mtx::value_sum(mtx::to_pattern(m)) > 0) {
          m = mtx::element_power(m, 0.0);  // all stored values -> 1
          d = to_dense(mtx::to_pattern(m));
        }
        break;
      }
      case 1: {  // transpose
        m = mtx::transpose(m);
        Dense t(d[0].size(), std::vector<value_t>(d.size(), 0.0));
        for (std::size_t r = 0; r < d.size(); ++r) {
          for (std::size_t c = 0; c < d[r].size(); ++c) t[c][r] = d[r][c];
        }
        d = std::move(t);
        break;
      }
      case 2: {  // add a fresh random matrix
        const mtx::CsrMatrix other = testutil::exact_er(
            m.nrows, m.ncols, 3.0, GetParam() + 2000 + step);
        const Dense od = to_dense(other);
        m = mtx::add(m, other);
        for (std::size_t r = 0; r < d.size(); ++r) {
          for (std::size_t c = 0; c < d[r].size(); ++c) d[r][c] += od[r][c];
        }
        break;
      }
      case 3: {  // hadamard with a fresh random matrix
        const mtx::CsrMatrix other = testutil::exact_er(
            m.nrows, m.ncols, 6.0, GetParam() + 3000 + step);
        const Dense od = to_dense(other);
        m = mtx::hadamard(m, other);
        for (std::size_t r = 0; r < d.size(); ++r) {
          for (std::size_t c = 0; c < d[r].size(); ++c) d[r][c] *= od[r][c];
        }
        break;
      }
      case 4: {  // prune small values
        m = mtx::prune(m, 2.0);
        for (auto& row : d) {
          for (auto& v : row) {
            if (std::abs(v) < 2.0) v = 0.0;
          }
        }
        break;
      }
      case 5: {  // drop diagonal (square only)
        if (m.nrows == m.ncols) {
          m = mtx::drop_diagonal(m);
          for (std::size_t i = 0; i < d.size(); ++i) d[i][i] = 0.0;
        }
        break;
      }
      case 6: {  // round-trip through COO + CSC (must be lossless)
        m = mtx::csc_to_csr(mtx::csr_to_csc(m));
        break;
      }
      case 7: {  // masked SpGEMM square through the descriptor path
        if (m.nrows != m.ncols) break;
        const char* masked_algos[] = {"pb", "heap", "hash", "spa"};
        const char* algo = masked_algos[rng.next_below(4)];
        const std::string semiring =
            semiring_names()[rng.next_below(semiring_names().size())];
        const bool complement = rng.next_below(2) == 0;
        const mtx::CsrMatrix mask = testutil::exact_er(
            m.nrows, m.ncols, 1.0 + static_cast<double>(rng.next_below(6)),
            GetParam() + 4000 + static_cast<std::uint64_t>(step));
        const SpGemmProblem problem = SpGemmProblem::square(m);
        SpGemmOp op;
        op.algo = algo;
        op.semiring = semiring;
        op.mask = &mask;
        op.complement = complement;
        m = SpGemmExecutor().run(problem, op);
        dispatch_semiring(semiring,
                          [&]<typename S>() { d = dense_mult<S>(d, d); });
        // Mirror the mask: zero every dense cell whose membership in the
        // mask pattern does not match the polarity.
        for (index_t r = 0; r < mask.nrows; ++r) {
          std::vector<bool> in_row(static_cast<std::size_t>(mask.ncols), false);
          for (const index_t c : mask.row_cols(r)) in_row[c] = true;
          for (index_t c = 0; c < mask.ncols; ++c) {
            if (in_row[c] == complement) d[r][c] = 0.0;
          }
        }
        expect_dense_eq(m, d, step);
        // Re-normalize to the pattern (same bounding trick as case 0).
        if (mtx::value_sum(mtx::to_pattern(m)) > 0) {
          m = mtx::element_power(m, 0.0);
          d = to_dense(mtx::to_pattern(m));
        }
        break;
      }
    }
    expect_dense_eq(m, d, step);
    if (m.nnz() == 0) break;  // chain died out; nothing left to fuzz
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PipelineFuzz,
                         ::testing::Range<std::uint64_t>(1, 13));

// --- Pipeline against a row-wise kernel ----------------------------------
//
// pb_execute runs every bin through sort → compress → filter → post-op
// → count, then scatter, on whichever thread the bin loop hands it to, so
// its output must not depend on the team size.  It must also be bit-identical — not approximately equal:
// same rowptr, same colids, same vals — to a row-wise kernel (hash, or
// heap where hash lacks the semiring) for every semiring, every tuple
// format, several bin counts and every descriptor variant (plain, masked,
// complemented mask, accumulate, and for valued semirings a fused
// scale/prune/top-k post-op).  The layouts target 2, 8, 17 and 64 bins —
// from two wide bins to one or two rows per bin, with the last bin
// partial wherever the width does not divide n — and every run must
// really plan more than one bin, so the per-bin row decode of every
// format is exercised across bins.
// Values are small exact integers (exact_er), so even floating semiring
// adds are exact and any divergence is a kernel or scheduling bug, not
// roundoff.  Each seed runs at one OpenMP lane (the serving configuration)
// and at full width.
class ScheduleFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ScheduleFuzz, PipelineBitIdenticalToRowwiseAcrossDescriptors) {
  mtx::SplitMix64 rng(GetParam());
  const auto n = static_cast<index_t>(48 + rng.next_below(64));
  const double density = 3.0 + static_cast<double>(rng.next_below(4));
  const mtx::CsrMatrix a = testutil::exact_er(n, n, density, GetParam() + 500);
  const mtx::CsrMatrix mask = testutil::exact_er(n, n, 2.0, GetParam() + 600);
  const mtx::CsrMatrix acc = testutil::exact_er(n, n, 2.0, GetParam() + 700);
  const SpGemmProblem problem = SpGemmProblem::square(a);

  // All three stream formats: keyonly engages for bool_or_and (valued
  // semirings fall back to the auto choice — still a pipeline check).
  const pb::FormatPolicy formats[] = {pb::FormatPolicy::kWide,
                                      pb::FormatPolicy::kNarrow,
                                      pb::FormatPolicy::kKeyOnly};
  enum Variant {
    kPlain, kMasked, kComplement, kAccumulate, kPostOp, kVariants
  };
  PostOp post;
  post.scale = 0.5;
  post.prune_threshold = 2.0;
  post.top_k = 3;
  // Runs one descriptor variant; reports the PB bin count it ran with.
  const auto run = [&](const SpGemmOp& base, int variant, int* nbins) {
    SpGemmOp op = base;
    if (variant == kMasked || variant == kComplement) {
      op.mask = &mask;
      op.complement = variant == kComplement;
    }
    op.accumulate = variant == kAccumulate;
    if (variant == kPostOp) op.post_op = post;
    SpGemmExecutor exec;
    RunInfo info;
    mtx::CsrMatrix c = variant == kAccumulate
                           ? exec.run(problem, op, acc, &info)
                           : exec.run(problem, op, &info);
    if (nbins != nullptr) *nbins = info.pb_stats.nbins;
    return c;
  };
  for (const int threads : {1, max_threads()}) {
    const ThreadCountGuard lanes(threads);
    for (const std::string& semiring : semiring_names()) {
      SpGemmOp rowwise;
      rowwise.algo =
          algorithm("hash").supports_semiring(semiring) ? "hash" : "heap";
      rowwise.semiring = semiring;
      for (int variant = 0; variant < kVariants; ++variant) {
        // Post-ops need values: value-free semirings reject them.
        if (variant == kPostOp && semiring_value_free(semiring)) continue;
        const mtx::CsrMatrix want = run(rowwise, variant, nullptr);
        for (const pb::FormatPolicy fmt : formats) {
          for (const int nbins : {2, 8, 17, 64}) {
            SpGemmOp op;
            op.algo = "pb";
            op.semiring = semiring;
            op.pb.format = fmt;
            op.pb.nbins = nbins;
            int planned = 0;
            const mtx::CsrMatrix got = run(op, variant, &planned);
            ASSERT_TRUE(got.valid());
            const std::string where =
                "semiring " + semiring + ", format " + pb::to_string(fmt) +
                ", nbins " + std::to_string(nbins) + ", variant " +
                std::to_string(variant) + ", " + std::to_string(threads) +
                " thread(s)";
            ASSERT_GT(planned, 1) << where;
            ASSERT_TRUE(mtx::equal_exact(want, got))
                << "pb diverged from " << rowwise.algo << ": " << where;
          }
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ScheduleFuzz,
                         ::testing::Range<std::uint64_t>(1, 7));

}  // namespace
}  // namespace pbs
