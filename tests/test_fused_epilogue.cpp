// Fused epilogues (PR 10): bit-identity of the in-kernel paths against
// their unfused two-pass formulations, across the full variant matrix —
// fused accumulate vs semiring_ewise_add post-pass, expand-stage masking
// vs compress-stage filtering, and the fused elementwise post-op
// (scale/prune/top-k) vs the separate mtx:: passes — over
// {plus_times, min_plus, max_min, bool_or_and} x
// {wide, narrow, key-only} x {one OpenMP lane, full width} x
// {mask, complemented mask}; the hash family's in-kernel post-op (one
// pass when it drops entries) vs the executor's apply_post_op post-pass,
// degraded runs included; plus the PostOp spec parser and the
// descriptor-layer validation rules (post-op x accumulate, post-op on a
// value-free semiring).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <functional>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "common/fault.hpp"
#include "common/parallel.hpp"
#include "matrix/ops.hpp"
#include "spgemm/epilogue.hpp"
#include "spgemm/executor.hpp"
#include "spgemm/op.hpp"
#include "spgemm/spgemm.hpp"
#include "test_util.hpp"

namespace pbs {
namespace {

/// One (semiring, tuple format) point of the variant matrix.  Key-only
/// needs a value-free semiring, so bool_or_and covers it; the valued
/// semirings each run wide and narrow.
struct Variant {
  const char* semiring;
  pb::FormatPolicy format;
  const char* format_name;
};

std::vector<Variant> variant_matrix() {
  std::vector<Variant> v;
  for (const char* s : {"plus_times", "min_plus", "max_min"}) {
    v.push_back({s, pb::FormatPolicy::kWide, "wide"});
    v.push_back({s, pb::FormatPolicy::kNarrow, "narrow"});
  }
  v.push_back({"bool_or_and", pb::FormatPolicy::kWide, "wide"});
  v.push_back({"bool_or_and", pb::FormatPolicy::kKeyOnly, "keyonly"});
  return v;
}

/// mtx::keep_top_k_per_row selects the same entries as the fused top-k
/// but appends ties after the strictly-above-cutoff entries, so a tied
/// row can come out of ascending column order; the fused epilogue always
/// emits column-ordered rows.  Canonicalize before bitwise comparison.
mtx::CsrMatrix sorted_rows(mtx::CsrMatrix m) {
  std::vector<std::pair<index_t, value_t>> row;
  for (index_t r = 0; r < m.nrows; ++r) {
    const nnz_t lo = m.rowptr[r];
    const nnz_t hi = m.rowptr[static_cast<std::size_t>(r) + 1];
    row.clear();
    for (nnz_t i = lo; i < hi; ++i) row.emplace_back(m.colids[i], m.vals[i]);
    std::sort(row.begin(), row.end());
    for (nnz_t i = lo; i < hi; ++i) {
      m.colids[i] = row[static_cast<std::size_t>(i - lo)].first;
      m.vals[i] = row[static_cast<std::size_t>(i - lo)].second;
    }
  }
  return m;
}

std::string trace(const Variant& v, int threads) {
  return std::string(v.semiring) + "/" + v.format_name + "/" +
         std::to_string(threads) + " thread(s)";
}

SpGemmOp pb_op(const Variant& v) {
  SpGemmOp op;
  op.algo = "pb";
  op.semiring = v.semiring;
  op.pb.format = v.format;
  return op;
}

// ---- fused accumulate -----------------------------------------------------

// The tentpole claim: run(p, op, c_old) merges C during CSR conversion,
// and the result is bit-identical to the explicit two-pass
// semiring_ewise_add(c_old, product) it replaced — for every semiring,
// tuple format and team size.
TEST(FusedEpilogue, AccumulateMatchesThePostPassAcrossTheVariantMatrix) {
  const mtx::CsrMatrix a = testutil::exact_er(220, 200, 5.0, 501);
  const mtx::CsrMatrix b = testutil::exact_er(200, 180, 5.0, 502);
  const mtx::CsrMatrix c_old = testutil::exact_er(220, 180, 3.0, 503);
  const SpGemmProblem p = SpGemmProblem::multiply(a, b);
  SpGemmExecutor exec;

  for (const Variant& v : variant_matrix()) {
    for (const int threads : {1, max_threads()}) {
      const ThreadCountGuard lanes(threads);
      SCOPED_TRACE(trace(v, threads));
      const SpGemmOp op = pb_op(v);
      const mtx::CsrMatrix product = exec.run(p, op);
      const mtx::CsrMatrix expected =
          semiring_ewise_add(op.semiring, c_old, product);
      RunInfo info;
      const mtx::CsrMatrix fused = exec.run(p, op, c_old, &info);
      EXPECT_TRUE(info.used_pb);
      EXPECT_TRUE(mtx::equal_exact(fused, expected));
    }
  }
}

// An accumulating run shares its cached plan with the plain product of
// the same op: accumulate is a per-call argument, not part of the key.
TEST(FusedEpilogue, AccumulatingRunSharesThePlanWithThePlainProduct) {
  const mtx::CsrMatrix a = testutil::exact_er(160, 160, 4.0, 504);
  const mtx::CsrMatrix c_old = testutil::exact_er(160, 160, 3.0, 505);
  const SpGemmProblem p = SpGemmProblem::multiply(a, a);
  SpGemmExecutor exec;
  SpGemmOp op;
  op.algo = "pb";

  RunInfo first, second;
  (void)exec.run(p, op, &first);
  (void)exec.run(p, op, c_old, &second);
  EXPECT_FALSE(first.cache_hit);
  EXPECT_TRUE(second.cache_hit);
}

// Accumulating into an empty (all-zero-rows) C must degenerate to the
// plain product, and a product accumulated into itself doubles under
// plus_times — two easy algebraic gold checks on the fused path.
TEST(FusedEpilogue, AccumulateAlgebraicIdentities) {
  const mtx::CsrMatrix a = testutil::exact_er(150, 150, 4.0, 506);
  const SpGemmProblem p = SpGemmProblem::multiply(a, a);
  SpGemmExecutor exec;
  SpGemmOp op;
  op.algo = "pb";

  const mtx::CsrMatrix product = exec.run(p, op);
  mtx::CsrMatrix empty;
  empty.nrows = product.nrows;
  empty.ncols = product.ncols;
  empty.rowptr.assign(static_cast<std::size_t>(product.nrows) + 1, 0);
  EXPECT_TRUE(mtx::equal_exact(exec.run(p, op, empty), product));

  const mtx::CsrMatrix doubled = exec.run(p, op, product);
  EXPECT_TRUE(mtx::equal_exact(doubled, mtx::add(product, product)));
}

// ---- expand-stage masking -------------------------------------------------

// Masking in the expand scatter loop (threshold 1.0) must produce the
// same C as filtering at compress (threshold -1.0), for both mask
// polarities, every format
// and both team sizes — and when the expand mask runs, the compress
// filter has nothing left to drop.
TEST(FusedEpilogue, ExpandMaskingMatchesCompressFilteringAcrossTheMatrix) {
  const mtx::CsrMatrix a = testutil::exact_er(200, 200, 5.0, 507);
  const mtx::CsrMatrix mask = testutil::exact_er(200, 200, 2.0, 508);
  const SpGemmProblem p = SpGemmProblem::multiply(a, a);
  SpGemmExecutor exec;

  for (const Variant& v : variant_matrix()) {
    for (const int threads : {1, max_threads()}) {
      const ThreadCountGuard lanes(threads);
      for (const bool complement : {false, true}) {
        SCOPED_TRACE(trace(v, threads) +
                     (complement ? "/complement" : "/mask"));
        SpGemmOp op = pb_op(v);
        op.mask = &mask;
        op.complement = complement;

        op.pb.expand_mask_max_density = -1.0;
        const mtx::CsrMatrix filtered = exec.run(p, op);

        op.pb.expand_mask_max_density = 1.0;
        RunInfo info;
        const mtx::CsrMatrix skipped = exec.run(p, op, &info);

        EXPECT_TRUE(mtx::equal_exact(skipped, filtered));
        EXPECT_TRUE(info.pb_stats.expand_masked);
        EXPECT_EQ(info.pb_stats.mask_dropped, 0);
        if (!complement) EXPECT_GT(info.pb_stats.mask_skipped_expand, 0);
      }
    }
  }
}

// The expand-masked product against the serial oracle: masked SpGEMM is
// pattern_filter(reference product, mask).
TEST(FusedEpilogue, ExpandMaskedProductMatchesTheSerialOracle) {
  const mtx::CsrMatrix a = testutil::exact_er(180, 180, 5.0, 509);
  const mtx::CsrMatrix mask = testutil::exact_er(180, 180, 2.0, 510);
  const SpGemmProblem p = SpGemmProblem::multiply(a, a);
  const mtx::CsrMatrix ref = reference_spgemm(p);
  SpGemmExecutor exec;

  for (const bool complement : {false, true}) {
    SpGemmOp op;
    op.algo = "pb";
    op.mask = &mask;
    op.complement = complement;
    op.pb.expand_mask_max_density = 1.0;
    EXPECT_TRUE(mtx::equal_exact(exec.run(p, op),
                                 mtx::pattern_filter(ref, mask, complement)))
        << (complement ? "complement" : "mask");
  }
}

// ---- fused elementwise post-ops -------------------------------------------

// The fused scale/prune/top-k must equal the separate passes the
// workloads used to run: scale, then mtx::prune, then
// mtx::keep_top_k_per_row on the unpruned product.
TEST(FusedEpilogue, PostOpMatchesTheSeparatePassesAcrossTheMatrix) {
  const mtx::CsrMatrix a = testutil::exact_er(220, 200, 5.0, 511);
  const mtx::CsrMatrix b = testutil::exact_er(200, 180, 5.0, 512);
  const SpGemmProblem p = SpGemmProblem::multiply(a, b);
  PostOp post;
  post.scale = 0.5;  // exact in binary: fused-vs-separate stays bitwise
  post.prune_threshold = 3.0;
  post.top_k = 4;
  SpGemmExecutor exec;

  for (const Variant& v : variant_matrix()) {
    if (std::string(v.semiring) == "bool_or_and") continue;  // value-free
    for (const int threads : {1, max_threads()}) {
      const ThreadCountGuard lanes(threads);
      SCOPED_TRACE(trace(v, threads));
      SpGemmOp plain = pb_op(v);
      const mtx::CsrMatrix product = exec.run(p, plain);

      mtx::CsrMatrix gold = product;
      for (value_t& val : gold.vals) val *= post.scale;
      gold = sorted_rows(mtx::keep_top_k_per_row(
          mtx::prune(gold, post.prune_threshold), post.top_k));

      SpGemmOp op = plain;
      op.post_op = post;
      RunInfo info;
      const mtx::CsrMatrix fused = exec.run(p, op, &info);
      EXPECT_TRUE(info.used_pb);
      EXPECT_TRUE(mtx::equal_exact(fused, gold));
      EXPECT_EQ(info.pb_stats.post_dropped,
                static_cast<nnz_t>(product.vals.size() - gold.vals.size()));
    }
  }
}

// apply_post_op (the unfused helper the row-wise and fallback paths use)
// agrees with the same separate-pass gold, knob by knob.
TEST(FusedEpilogue, ApplyPostOpMatchesTheSeparatePasses) {
  const mtx::CsrMatrix a = testutil::exact_er(200, 200, 6.0, 513);
  const SpGemmProblem p = SpGemmProblem::multiply(a, a);
  const mtx::CsrMatrix product = reference_spgemm(p);

  {
    PostOp scale_only;
    scale_only.scale = 0.25;
    mtx::CsrMatrix c = product;
    apply_post_op(c, scale_only);
    mtx::CsrMatrix gold = product;
    for (value_t& val : gold.vals) val *= 0.25;
    EXPECT_TRUE(mtx::equal_exact(c, gold));
  }
  {
    PostOp prune_only;
    prune_only.prune_threshold = 10.0;
    mtx::CsrMatrix c = product;
    apply_post_op(c, prune_only);
    EXPECT_TRUE(mtx::equal_exact(c, mtx::prune(product, 10.0)));
  }
  {
    PostOp topk_only;
    topk_only.top_k = 3;
    mtx::CsrMatrix c = product;
    apply_post_op(c, topk_only);
    EXPECT_TRUE(
        mtx::equal_exact(c, sorted_rows(mtx::keep_top_k_per_row(product, 3))));
  }
}

// The same post-op descriptor through a row-wise algorithm (heap) must
// match the PB-fused result: the epilogue is a property of the op, not
// of the kernel that happens to run it.
TEST(FusedEpilogue, PostOpIsKernelIndependent) {
  const mtx::CsrMatrix a = testutil::exact_er(180, 180, 5.0, 514);
  const SpGemmProblem p = SpGemmProblem::multiply(a, a);
  PostOp post;
  post.prune_threshold = 5.0;
  post.top_k = 6;
  SpGemmExecutor exec;

  SpGemmOp op;
  op.algo = "pb";
  op.post_op = post;
  const mtx::CsrMatrix via_pb = exec.run(p, op);

  op.algo = "heap";
  RunInfo info;
  const mtx::CsrMatrix via_heap = exec.run(p, op, &info);
  EXPECT_FALSE(info.used_pb);
  EXPECT_TRUE(mtx::equal_exact(via_heap, via_pb));
}

// Post-op composes with a mask: the mask restricts the pattern first,
// then prune/top-k act on the survivors.
TEST(FusedEpilogue, PostOpComposesWithTheMask) {
  const mtx::CsrMatrix a = testutil::exact_er(180, 180, 5.0, 515);
  const mtx::CsrMatrix mask = testutil::exact_er(180, 180, 3.0, 516);
  const SpGemmProblem p = SpGemmProblem::multiply(a, a);
  PostOp post;
  post.top_k = 2;
  SpGemmExecutor exec;

  SpGemmOp masked;
  masked.algo = "pb";
  masked.mask = &mask;
  const mtx::CsrMatrix gold =
      sorted_rows(mtx::keep_top_k_per_row(exec.run(p, masked), post.top_k));

  SpGemmOp op = masked;
  op.post_op = post;
  EXPECT_TRUE(mtx::equal_exact(exec.run(p, op), gold));
}

// Differing post-ops are distinct cache keys: the cached entry's op copy
// carries the post-op into every execution, so two ops that differ only
// in post_op must not share an entry.
TEST(FusedEpilogue, PostOpIsPartOfThePlanCacheKey) {
  const mtx::CsrMatrix a = testutil::exact_er(150, 150, 4.0, 517);
  const SpGemmProblem p = SpGemmProblem::multiply(a, a);
  SpGemmExecutor exec;

  SpGemmOp op;
  op.algo = "pb";
  op.post_op.prune_threshold = 2.0;
  const mtx::CsrMatrix pruned_2 = exec.run(p, op);

  op.post_op.prune_threshold = 50.0;
  RunInfo info;
  const mtx::CsrMatrix pruned_50 = exec.run(p, op, &info);
  EXPECT_FALSE(info.cache_hit);
  EXPECT_LT(pruned_50.vals.size(), pruned_2.vals.size());
  EXPECT_TRUE(mtx::equal_exact(pruned_50, mtx::prune(pruned_2, 50.0)));
}

// ---- the hash family's fused post-op --------------------------------------

/// The post-ops the hash family is checked under: each dropping knob
/// alone, both, both after a 0.5 scale (exact in binary, and a second
/// application would halve the values again), and a scale alone, which
/// keeps the two-phase path.
std::vector<std::pair<std::string, PostOp>> hash_post_ops(double prune) {
  PostOp prune_only;
  prune_only.prune_threshold = prune;
  PostOp topk_only;
  topk_only.top_k = 5;
  PostOp both = prune_only;
  both.top_k = 5;
  PostOp scaled = both;
  scaled.scale = 0.5;
  scaled.prune_threshold = prune / 2;
  PostOp scale_only;
  scale_only.scale = 0.5;
  return {{"prune", prune_only},
          {"topk", topk_only},
          {"prune+topk", both},
          {"scale+prune+topk", scaled},
          {"scale", scale_only}};
}

/// What a product offers the checks: rows longer than the sort's
/// insertion cutoff, rows `post` empties, and rows whose top-k cut falls
/// inside a run of equal |v| — where only the column tie-break decides.
struct Coverage {
  int long_rows = 0;
  int emptied_rows = 0;
  int tied_cuts = 0;
};

Coverage coverage(const mtx::CsrMatrix& product, const PostOp& post) {
  mtx::CsrMatrix shaped = product;
  apply_post_op(shaped, post);
  Coverage cov;
  std::vector<double> mags;
  for (index_t r = 0; r < product.nrows; ++r) {
    const nnz_t lo = product.rowptr[r];
    const nnz_t hi = product.rowptr[static_cast<std::size_t>(r) + 1];
    if (hi - lo > 32) ++cov.long_rows;
    if (hi > lo && shaped.row_nnz(r) == 0) ++cov.emptied_rows;
    mags.clear();
    for (nnz_t i = lo; i < hi; ++i) {
      const double v = std::abs(product.vals[i] * post.scale);
      if (!(post.prune_threshold > 0 && v < post.prune_threshold)) {
        mags.push_back(v);
      }
    }
    const auto k = static_cast<std::size_t>(post.top_k);
    if (k > 0 && mags.size() > k) {
      std::sort(mags.begin(), mags.end(), std::greater<>());
      if (mags[k - 1] == mags[k]) ++cov.tied_cuts;
    }
  }
  return cov;
}

// hash (every valued built-in semiring) and hashvec (plus_times), each
// unmasked, masked and complemented, apply the mask and the post-op
// inside the kernel.  Whatever path runs, the executor's result
// must equal the same op without the post-op followed by apply_post_op,
// byte for byte, at one lane and full width — and under plus_times also
// pb's fused result.  Integer-valued operands make |v| ties common, so a
// top-k cut that broke ties by insertion order instead of column order
// shows.
TEST(FusedEpilogue, HashFamilyPostOpMatchesThePostPass) {
  const mtx::CsrMatrix a = testutil::exact_rmat(8, 8.0, 531);
  const mtx::CsrMatrix mask = testutil::exact_er(256, 256, 30.0, 532);
  const SpGemmProblem p = SpGemmProblem::square(a);
  SpGemmExecutor exec;

  struct Case {
    const char* algo;
    const char* semiring;
    double prune;  ///< empties some rows of this semiring's product
    bool masked;
    bool complement;
  };
  std::vector<Case> cases;
  for (const auto& [semiring, prune] :
       {std::pair{"plus_times", 40.0}, std::pair{"min_plus", 10.0},
        std::pair{"max_min", 5.0}}) {
    cases.push_back({"hash", semiring, prune, false, false});
    cases.push_back({"hash", semiring, prune, true, false});
    cases.push_back({"hash", semiring, prune, true, true});
  }
  cases.push_back({"hashvec", "plus_times", 40.0, false, false});
  cases.push_back({"hashvec", "plus_times", 40.0, true, false});
  cases.push_back({"hashvec", "plus_times", 40.0, true, true});

  for (const Case& cs : cases) {
    SpGemmOp plain;
    plain.algo = cs.algo;
    plain.semiring = cs.semiring;
    plain.mask = cs.masked ? &mask : nullptr;
    plain.complement = cs.complement;
    const std::string where = std::string(cs.algo) + "/" + cs.semiring +
                              (cs.masked ? (cs.complement ? "/complement"
                                                          : "/mask")
                                         : "");
    for (const auto& [name, post] : hash_post_ops(cs.prune)) {
      if (!cs.masked) {
        const Coverage cov = coverage(exec.run(p, plain), post);
        EXPECT_GT(cov.long_rows, 0) << where;
        if (post.prune_threshold > 0) EXPECT_GT(cov.emptied_rows, 0) << where;
        if (post.top_k > 0) EXPECT_GT(cov.tied_cuts, 0) << where << " " << name;
      }
      for (const int threads : {1, max_threads()}) {
        const ThreadCountGuard lanes(threads);
        SCOPED_TRACE(where + " " + name + " " + std::to_string(threads) +
                     " thread(s)");
        mtx::CsrMatrix gold = exec.run(p, plain);
        apply_post_op(gold, post);

        SpGemmOp op = plain;
        op.post_op = post;
        RunInfo info;
        const mtx::CsrMatrix fused = exec.run(p, op, &info);
        EXPECT_EQ(info.algo, cs.algo);
        EXPECT_TRUE(mtx::equal_exact(fused, gold));
        if (std::string(cs.semiring) == "plus_times") {
          op.algo = "pb";
          EXPECT_TRUE(mtx::equal_exact(fused, exec.run(p, op)));
        }
      }
    }
  }
}

// A run that degrades to the row-wise fallback — at plan time, because
// pb's stream cannot fit the memory budget, or mid-run, because an
// allocation fails — resolves to hash, which fuses the post-op: it must
// apply it exactly once (the 0.5 scale would show a second application)
// and return pb's fused result.
TEST(FusedEpilogue, DegradedRunsApplyThePostOpOnce) {
  const mtx::CsrMatrix a = testutil::exact_er(400, 400, 6.0, 533);
  const SpGemmProblem p = SpGemmProblem::square(a);
  SpGemmOp op;
  op.algo = "pb";
  op.post_op.scale = 0.5;
  op.post_op.prune_threshold = 4.0;
  op.post_op.top_k = 6;
  const mtx::CsrMatrix gold = SpGemmExecutor().run(p, op);

  {
    ExecutorOptions eo;
    eo.mem_budget_bytes = 64 * 1024;  // far below the expand stream
    SpGemmExecutor exec(eo);
    RunInfo info;
    EXPECT_TRUE(mtx::equal_exact(exec.run(p, op, &info), gold));
    EXPECT_EQ(info.degrade_reason, "budget");
    EXPECT_EQ(info.algo, "hash");
  }
  {
    FaultInjector::reset();
    SpGemmExecutor exec;
    FaultInjector::fail_alloc_after(0);
    RunInfo info;
    const mtx::CsrMatrix c = exec.run(p, op, &info);
    FaultInjector::reset();
    EXPECT_TRUE(mtx::equal_exact(c, gold));
    EXPECT_EQ(info.degrade_reason, "oom");
    EXPECT_EQ(info.algo, "hash");
  }
}

// ---- descriptor validation ------------------------------------------------

TEST(FusedEpilogue, PostOpOnAValueFreeSemiringThrows) {
  const mtx::CsrMatrix a = testutil::exact_er(80, 80, 3.0, 518);
  const SpGemmProblem p = SpGemmProblem::multiply(a, a);
  SpGemmExecutor exec;
  SpGemmOp op;
  op.algo = "pb";
  op.semiring = "bool_or_and";
  op.post_op.prune_threshold = 0.5;
  EXPECT_THROW((void)exec.run(p, op), std::invalid_argument);
}

TEST(FusedEpilogue, PostOpAndAccumulateAreMutuallyExclusive) {
  const mtx::CsrMatrix a = testutil::exact_er(80, 80, 3.0, 519);
  const mtx::CsrMatrix c_old = testutil::exact_er(80, 80, 2.0, 520);
  const SpGemmProblem p = SpGemmProblem::multiply(a, a);
  SpGemmExecutor exec;
  SpGemmOp op;
  op.algo = "pb";
  op.post_op.top_k = 4;
  EXPECT_THROW((void)exec.run(p, op, c_old), std::invalid_argument);
}

// ---- PostOp spec parser ---------------------------------------------------

TEST(PostOpSpec, ParsesEveryKnobInAnyOrder) {
  const PostOp op = parse_post_op("topk:64,scale:2,prune:0.25");
  EXPECT_DOUBLE_EQ(op.scale, 2.0);
  EXPECT_DOUBLE_EQ(op.prune_threshold, 0.25);
  EXPECT_EQ(op.top_k, 64);
  EXPECT_TRUE(op.active());
  EXPECT_TRUE(op.drops_entries());
}

TEST(PostOpSpec, RoundTripsThroughToString) {
  PostOp op;
  op.scale = 2.0;
  op.prune_threshold = 0.25;
  op.top_k = 64;
  EXPECT_EQ(parse_post_op(post_op_to_string(op)), op);
  EXPECT_EQ(post_op_to_string(PostOp{}), "");
  EXPECT_FALSE(PostOp{}.active());
  EXPECT_FALSE(PostOp{}.drops_entries());
  PostOp scale_only;
  scale_only.scale = 0.5;
  EXPECT_TRUE(scale_only.active());
  EXPECT_FALSE(scale_only.drops_entries());
}

TEST(PostOpSpec, MalformedSpecsThrow) {
  EXPECT_THROW((void)parse_post_op("bogus:1"), std::invalid_argument);
  EXPECT_THROW((void)parse_post_op("prune"), std::invalid_argument);
  EXPECT_THROW((void)parse_post_op("prune:abc"), std::invalid_argument);
  EXPECT_THROW((void)parse_post_op("prune:-1"), std::invalid_argument);
  EXPECT_THROW((void)parse_post_op("prune:nan"), std::invalid_argument);
  EXPECT_THROW((void)parse_post_op("topk:0"), std::invalid_argument);
  EXPECT_THROW((void)parse_post_op("topk:-3"), std::invalid_argument);
  EXPECT_THROW((void)parse_post_op("scale:inf"), std::invalid_argument);
  // A number must fill its term, and a top-k must fit index_t.
  EXPECT_THROW((void)parse_post_op("topk:4294967297"), std::invalid_argument);
  EXPECT_THROW((void)parse_post_op("topk:2147483648"), std::invalid_argument);
  EXPECT_THROW((void)parse_post_op("topk:5x"), std::invalid_argument);
  EXPECT_THROW((void)parse_post_op("prune:0.5garbage"), std::invalid_argument);
  EXPECT_THROW((void)parse_post_op("scale:2junk"), std::invalid_argument);
  EXPECT_EQ(parse_post_op("topk:2147483647").top_k,
            std::numeric_limits<index_t>::max());
}

// Every single-character insertion, deletion and substitution of a few
// valid specs, over an alphabet of digits, signs, separators and letters
// the number syntax knows: each mutant either throws
// std::invalid_argument or parses to an op whose knobs hold the
// invariants the kernels rely on.
TEST(PostOpSpec, MutatedSpecsThrowOrParseToAValidOp) {
  const std::string alphabet = "0123456789+-.,:eExXinfa ";
  int parsed = 0;
  int rejected = 0;
  for (const std::string seed :
       {"prune:0.25,topk:64,scale:2", "topk:2147483647", "prune:1e-5",
        "scale:-1.5e3,topk:9"}) {
    std::vector<std::string> mutants;
    for (std::size_t i = 0; i <= seed.size(); ++i) {
      for (const char c : alphabet) {
        mutants.push_back(seed.substr(0, i) + c + seed.substr(i));
        if (i < seed.size()) {
          mutants.push_back(seed.substr(0, i) + c + seed.substr(i + 1));
        }
      }
      if (i < seed.size()) {
        mutants.push_back(seed.substr(0, i) + seed.substr(i + 1));
      }
    }
    for (const std::string& spec : mutants) {
      PostOp op;
      try {
        op = parse_post_op(spec);
      } catch (const std::invalid_argument&) {
        ++rejected;
        continue;
      }
      ++parsed;
      EXPECT_TRUE(op.prune_threshold >= 0 && std::isfinite(op.prune_threshold))
          << spec;
      EXPECT_GE(op.top_k, 0) << spec;
      EXPECT_TRUE(std::isfinite(op.scale)) << spec;
    }
  }
  EXPECT_GT(parsed, 0);
  EXPECT_GT(rejected, 0);
}

}  // namespace
}  // namespace pbs
