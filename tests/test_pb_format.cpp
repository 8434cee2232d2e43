// The tuple stream formats (pb/tuple.hpp): plan-level format selection,
// bit-identity of the narrow, wide and key-only paths across semirings and
// bin counts, the key codec, and the format boundaries — col_bits at the
// 32-bit fit edge, single-row bins, empty bins, the wide fallback, and
// exact cancellation.
#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <string>
#include <tuple>
#include <vector>

#include "common/parallel.hpp"
#include "pb/binning.hpp"
#include "pb/plan.hpp"
#include "pb/sort_compress.hpp"
#include "spgemm/semiring.hpp"
#include "test_util.hpp"

namespace pbs::pb {
namespace {

// Runs the full pipeline under both formats and requires bitwise-equal
// CSR.  Returns the narrow result for further checks.  Inputs must carry
// exact-integer values (testutil) so sums are order-independent.
mtx::CsrMatrix expect_formats_identical(const mtx::CscMatrix& a,
                                        const mtx::CsrMatrix& b,
                                        PbConfig cfg,
                                        const std::string& semiring) {
  PbWorkspace wide_ws, narrow_ws;
  cfg.format = FormatPolicy::kWide;
  const PbResult wide =
      testutil::pb_plan_execute(a, b, cfg, wide_ws, semiring);
  EXPECT_EQ(wide.stats.format, TupleFormat::kWide);
  cfg.format = FormatPolicy::kNarrow;
  const PbResult narrow =
      testutil::pb_plan_execute(a, b, cfg, narrow_ws, semiring);
  EXPECT_TRUE(mtx::equal_exact(wide.c, narrow.c)) << semiring;
  return narrow.c;
}

TEST(PbFormat, NarrowVsWideBitIdenticalAcrossSemirings) {
  const mtx::CsrMatrix m = testutil::exact_er(400, 400, 6.0, 41);
  const mtx::CscMatrix a = mtx::csr_to_csc(m);
  for (const std::string& s : semiring_names()) {
    PbConfig cfg;
    cfg.nbins = 8;
    (void)expect_formats_identical(a, m, cfg, s);
  }
}

TEST(PbFormat, AutoSelectsNarrowWhenBitsFitAndReportsBytes) {
  const mtx::CsrMatrix m = testutil::exact_er(500, 500, 5.0, 42);
  const mtx::CscMatrix a = mtx::csr_to_csc(m);
  const PbPlan plan = pb_plan_build(a, m, PbConfig{});
  // 500 rows / 500 cols: col_bits = 9 and any bin width fits 32 bits.
  EXPECT_EQ(plan.sym.format, TupleFormat::kNarrow);
  EXPECT_EQ(plan.sym.col_bits, 9);

  PbWorkspace ws;
  const PbResult r = pb_execute<PlusTimes>(a, m, plan, ws);
  EXPECT_EQ(r.stats.format, TupleFormat::kNarrow);
  EXPECT_EQ(r.stats.tuple_bytes(), 12.0);
  // The byte models must charge the narrow stream: the sort streams
  // 12 B/tuple, not 16.
  EXPECT_EQ(r.stats.sort.bytes, 12.0 * static_cast<double>(r.stats.flop));
}

TEST(PbFormat, ForcedWideStaysWide) {
  const mtx::CsrMatrix m = testutil::exact_er(300, 300, 4.0, 43);
  const mtx::CscMatrix a = mtx::csr_to_csc(m);
  PbConfig cfg;
  cfg.format = FormatPolicy::kWide;
  const PbPlan plan = pb_plan_build(a, m, cfg);
  EXPECT_EQ(plan.sym.format, TupleFormat::kWide);

  PbWorkspace ws;
  const PbResult r = pb_execute<PlusTimes>(a, m, plan, ws);
  EXPECT_EQ(r.stats.format, TupleFormat::kWide);
  EXPECT_EQ(r.stats.tuple_bytes(), 16.0);
}

TEST(PbFormat, ColBitsAtTheFitBoundary) {
  // B has 2^30 columns -> col_bits = 30.  With 4 rows in one bin the row
  // needs 2 bits: 32 exactly, the last geometry that still packs narrow.
  const index_t wide_cols = index_t{1} << 30;
  const mtx::CsrMatrix a_csr = testutil::from_triplets(
      4, 4, {{0, 0, 2.0}, {1, 1, 3.0}, {2, 2, 5.0}, {3, 3, 7.0}});
  const mtx::CsrMatrix b = testutil::from_triplets(
      4, wide_cols,
      {{0, 0, 1.0},
       {0, wide_cols - 1, 4.0},
       {1, 12345, 6.0},
       {2, wide_cols - 2, 8.0},
       {3, 0, 9.0}});
  const mtx::CscMatrix a = mtx::csr_to_csc(a_csr);

  PbConfig cfg;
  cfg.nbins = 1;
  const PbPlan plan = pb_plan_build(a, b, cfg);
  ASSERT_EQ(plan.sym.col_bits, 30);
  ASSERT_EQ(plan.sym.layout.local_row_bits(), 2);
  EXPECT_EQ(plan.sym.format, TupleFormat::kNarrow);

  const mtx::CsrMatrix c = expect_formats_identical(a, b, cfg, "plus_times");
  const mtx::CsrMatrix expected = testutil::from_triplets(
      4, wide_cols,
      {{0, 0, 2.0},
       {0, wide_cols - 1, 8.0},
       {1, 12345, 18.0},
       {2, wide_cols - 2, 40.0},
       {3, 0, 63.0}});
  EXPECT_TRUE(mtx::equal_exact(c, expected));
}

TEST(PbFormat, FallsBackToWideWhenBitsDontFit) {
  // Same 2^30 columns but 8 rows in one bin: 3 + 30 = 33 bits -> the
  // narrow request cannot be honored and symbolic falls back to wide.
  const index_t wide_cols = index_t{1} << 30;
  const mtx::CsrMatrix a_csr = testutil::from_triplets(
      8, 4, {{0, 0, 2.0}, {5, 1, 3.0}, {7, 3, 7.0}});
  const mtx::CsrMatrix b = testutil::from_triplets(
      4, wide_cols, {{0, 7, 1.0}, {1, wide_cols - 1, 4.0}, {3, 99, 6.0}});
  const mtx::CscMatrix a = mtx::csr_to_csc(a_csr);

  PbConfig cfg;
  cfg.nbins = 1;
  cfg.format = FormatPolicy::kNarrow;  // request is a preference, not a demand
  const PbPlan plan = pb_plan_build(a, b, cfg);
  EXPECT_EQ(plan.sym.format, TupleFormat::kWide);

  PbWorkspace ws;
  const PbResult r = pb_execute<PlusTimes>(a, b, plan, ws);
  const mtx::CsrMatrix expected = testutil::from_triplets(
      8, wide_cols,
      {{0, 7, 2.0}, {5, wide_cols - 1, 12.0}, {7, 99, 42.0}});
  EXPECT_TRUE(mtx::equal_exact(r.c, expected));
}

TEST(PbFormat, SingleRowBinsAndEmptyBins) {
  // One bin per row (range shift 0, local row always 0) and a matrix with
  // empty rows, so some bins receive nothing.
  mtx::CooMatrix acoo(16, 16);
  acoo.add(0, 3, 2.0);
  acoo.add(7, 7, 3.0);
  acoo.add(15, 0, 5.0);
  acoo.canonicalize();
  const mtx::CsrMatrix m = mtx::coo_to_csr(acoo);
  const mtx::CscMatrix a = mtx::csr_to_csc(m);

  PbConfig cfg;
  cfg.nbins = 16;
  const PbPlan plan = pb_plan_build(a, m, cfg);
  EXPECT_EQ(plan.sym.format, TupleFormat::kNarrow);
  EXPECT_EQ(plan.sym.layout.local_row_bits(), 0);

  for (const std::string& s : semiring_names()) {
    (void)expect_formats_identical(a, m, cfg, s);
  }
}

TEST(PbFormat, ExactCancellationKeepsStructuralZeros) {
  // C(0,0) = 1*1 + (-1)*1 = 0: the entry must survive structurally in
  // both formats (the library's exact-cancellation convention).
  const mtx::CsrMatrix a_csr =
      testutil::from_triplets(2, 2, {{0, 0, 1.0}, {0, 1, -1.0}});
  const mtx::CsrMatrix b =
      testutil::from_triplets(2, 2, {{0, 0, 1.0}, {1, 0, 1.0}});
  const mtx::CscMatrix a = mtx::csr_to_csc(a_csr);

  const mtx::CsrMatrix c =
      expect_formats_identical(a, b, PbConfig{}, "plus_times");
  ASSERT_EQ(c.nnz(), 1);
  EXPECT_EQ(c.colids[0], 0);
  EXPECT_EQ(c.vals[0], 0.0);
}

TEST(PbFormat, FuzzAcrossShapesPoliciesAndSemirings) {
  mtx::SplitMix64 rng(77);
  for (int round = 0; round < 24; ++round) {
    const auto n = static_cast<index_t>(16 + rng.next_below(120));
    const auto k = static_cast<index_t>(16 + rng.next_below(120));
    const auto mcols = static_cast<index_t>(16 + rng.next_below(120));
    const mtx::CsrMatrix a_csr =
        testutil::exact_er(n, k, 3.0, 500 + round);
    const mtx::CsrMatrix b = testutil::exact_er(k, mcols, 3.0, 900 + round);
    const mtx::CscMatrix a = mtx::csr_to_csc(a_csr);

    PbConfig cfg;
    const int nbins_choices[] = {0, 1, 3, 17, 64};
    cfg.nbins = nbins_choices[rng.next_below(5)];
    cfg.local_bin_bytes = rng.next_below(2) == 0 ? 16 : 512;
    const std::string semiring =
        semiring_names()[rng.next_below(semiring_names().size())];
    (void)expect_formats_identical(a, b, cfg, semiring);
  }
}

TEST(PbFormat, LocalGlobalRowRoundTripsAcrossPolicies) {
  // Full bins, a partial top bin (1000 and 17 rows are not multiples of
  // the width), one bin, and one row per bin.
  for (const auto& [nrows, target] :
       {std::pair{1000, 8}, std::pair{1000, 3}, std::pair{17, 4},
        std::pair{1000, 1}, std::pair{64, 64}}) {
    const BinLayout layout = make_range_layout(nrows, target);
    for (index_t row = 0; row < nrows; ++row) {
      const int bin = layout.binid(row);
      const index_t local = layout.local_row(row);
      ASSERT_GE(local, 0);
      ASSERT_LT(local, index_t{1} << layout.local_row_bits());
      ASSERT_EQ(layout.global_row(bin, local), row)
          << nrows << " rows, target " << target;
    }
  }
}

TEST(PbFormat, NarrowKeyCodecRoundTripsAndOrdersRowMajor) {
  for (const int col_bits : {0, 1, 9, 20, 30}) {
    const KeyCodec<std::uint32_t> codec{col_bits};
    const index_t max_col = col_bits > 0 ? (index_t{1} << col_bits) - 1 : 0;
    // Whatever row space remains of the 32-bit key (index_t caps it at 31).
    const int row_bits = std::min(31, 32 - col_bits);
    const auto max_local = static_cast<index_t>(
        (std::uint32_t{1} << row_bits) - 1u);
    for (const index_t local : {index_t{0}, max_local / 2, max_local}) {
      for (const index_t col : {index_t{0}, max_col / 2, max_col}) {
        const std::uint32_t key = codec.pack(local, col);
        ASSERT_EQ(codec.local_row(key), local);
        ASSERT_EQ(codec.col(key), col);
      }
    }
    // Row-major: a larger local row beats any column.
    if (col_bits > 0 && max_local > 0) {
      EXPECT_LT(codec.pack(0, max_col), codec.pack(1, 0));
    }
  }
}

TEST(PbFormat, WideKvSortBitIdenticalToReferenceAcrossPolicies) {
  // The wide stream is SoA: its per-bin sort runs radix_sort_lsd_kv over
  // the u64 key and f64 value arrays in place (8 B histogram reads).  The
  // sort is stable, so on exact-integer inputs the forced-wide pipeline
  // must stay bit-identical to the gold standard for every semiring.
  const mtx::CsrMatrix m = testutil::exact_er(350, 350, 6.0, 61);
  const mtx::CscMatrix a = mtx::csr_to_csc(m);
  const SpGemmProblem p = SpGemmProblem::square(m);
  for (const std::string& s : semiring_names()) {
    const mtx::CsrMatrix expected = dispatch_semiring(
        s, [&]<typename S>() { return reference_spgemm_semiring<S>(p); });
    PbConfig cfg;
    cfg.format = FormatPolicy::kWide;
    PbWorkspace ws;
    const PbResult r = testutil::pb_plan_execute(a, m, cfg, ws, s);
    EXPECT_EQ(r.stats.format, TupleFormat::kWide);
    EXPECT_TRUE(mtx::equal_exact(r.c, expected)) << s;
  }
}

TEST(PbFormat, WideKvSortWithoutWorkspaceScratch) {
  // A bin's sort ping-pongs against whatever scratch stream the caller
  // hands it — here plain buffers of exactly max_bin tuples, no workspace.
  // Bins shorter than max_bin use the same scratch, and the sort is
  // stable, so each bin must equal std::stable_sort by key — in every
  // format.
  const std::vector<std::size_t> lens{1, 2, 63, 500, 1000, 999};
  const std::size_t max_bin = *std::max_element(lens.begin(), lens.end());
  const auto check = [&]<TupleFormat F>() {
    using Key = typename StreamSpan<F>::Key;
    const KeyCodec<Key> codec{7};
    std::mt19937_64 rng(62);
    std::vector<Key> keys;
    std::vector<value_t> vals;
    std::vector<nnz_t> offsets{0};
    for (const std::size_t len : lens) {
      for (std::size_t i = 0; i < len; ++i) {
        keys.push_back(codec.pack(static_cast<index_t>(rng() % 40),
                                  static_cast<index_t>(rng() % 70)));
        vals.push_back(static_cast<value_t>(1 + rng() % 8));
      }
      offsets.push_back(offsets.back() + static_cast<nnz_t>(len));
    }
    std::vector<std::pair<Key, value_t>> expected;
    for (std::size_t i = 0; i < keys.size(); ++i) {
      expected.emplace_back(keys[i], has_values(F) ? vals[i] : 0.0);
    }
    std::vector<Key> kscratch(max_bin);
    std::vector<value_t> vscratch(max_bin);
    const bool valued = has_values(F);
    const BinOps<F, PlusTimes> ops{
        StreamSpan<F>{keys.data(), valued ? vals.data() : nullptr}, nullptr,
        nullptr, nullptr, codec.col_bits};
    const StreamSpan<F> scratch{kscratch.data(),
                                 valued ? vscratch.data() : nullptr};
    for (std::size_t bin = 0; bin < lens.size(); ++bin) {
      ops.sort(offsets[bin], lens[bin], scratch);
      std::stable_sort(
          expected.begin() + static_cast<std::ptrdiff_t>(offsets[bin]),
          expected.begin() + static_cast<std::ptrdiff_t>(offsets[bin + 1]),
          [](const auto& x, const auto& y) { return x.first < y.first; });
    }
    for (std::size_t i = 0; i < keys.size(); ++i) {
      ASSERT_EQ(keys[i], expected[i].first) << to_string(F) << " " << i;
      if (valued) {
        ASSERT_EQ(vals[i], expected[i].second) << to_string(F) << " " << i;
      }
    }
  };
  check.operator()<TupleFormat::kWide>();
  check.operator()<TupleFormat::kNarrow>();
  check.operator()<TupleFormat::kKeyOnly>();
}

TEST(PbFormat, PredictionMatchesSymbolicForRangePolicy) {
  for (const auto& [nrows, ncols, density] :
       {std::tuple{200, 200, 4.0}, std::tuple{2000, 2000, 8.0}}) {
    const mtx::CsrMatrix m = testutil::exact_er(
        static_cast<index_t>(nrows), static_cast<index_t>(ncols), density, 7);
    const mtx::CscMatrix a = mtx::csr_to_csc(m);
    for (const bool value_free : {false, true}) {
      PbConfig cfg;
      cfg.value_free = value_free;
      const SymbolicResult sym = pb_symbolic(a, m, cfg);
      EXPECT_EQ(sym.format,
                value_free ? TupleFormat::kKeyOnly : TupleFormat::kNarrow);
      EXPECT_EQ(predict_tuple_format(a.nrows, m.ncols, sym.flop, cfg),
                sym.format);
    }
  }

  // Both sides of the narrow fit, with no product run: B has 2^24
  // columns, so one bin of 256 rows packs 8 + 24 = 32 key bits exactly,
  // and one bin of 600 rows needs 10 + 24 = 34.
  const index_t wide_cols = index_t{1} << 24;
  const mtx::CsrMatrix b = testutil::from_triplets(
      4, wide_cols, {{0, 0, 1.0}, {1, wide_cols - 1, 2.0}, {3, 12345, 3.0}});
  for (const auto& [nrows, fits] :
       {std::pair{256, true}, std::pair{600, false}}) {
    const mtx::CscMatrix a = mtx::csr_to_csc(testutil::from_triplets(
        nrows, 4, {{0, 0, 1.0}, {nrows / 2, 3, 2.0}, {nrows - 1, 1, 3.0}}));
    for (const bool value_free : {false, true}) {
      PbConfig cfg;
      cfg.value_free = value_free;
      const SymbolicResult sym = pb_symbolic(a, b, cfg);
      ASSERT_EQ(sym.layout.nbins, 1);
      const TupleFormat valued =
          fits ? TupleFormat::kNarrow : TupleFormat::kWide;
      EXPECT_EQ(sym.format, value_free ? TupleFormat::kKeyOnly : valued)
          << nrows << " rows";
      EXPECT_EQ(predict_tuple_format(a.nrows, b.ncols, sym.flop, cfg),
                sym.format)
          << nrows << " rows";
    }
  }
}

// ---- key-only (8 B) format ------------------------------------------------

// Runs bool_or_and under forced-wide and under `policy`, at one OpenMP lane
// and at full width, and requires bitwise-equal CSR everywhere.  Bit-identity is
// exact, not approximate: every surviving wide value is S::add/S::mul of
// nonzeros = exactly 1.0, which is exactly what the key-only convert
// synthesizes.
void expect_keyonly_matches_wide(const mtx::CscMatrix& a,
                                 const mtx::CsrMatrix& b, PbConfig cfg,
                                 FormatPolicy policy) {
  cfg.format = FormatPolicy::kWide;
  PbWorkspace wide_ws;
  const PbResult wide =
      testutil::pb_plan_execute(a, b, cfg, wide_ws, BoolOrAnd::name);
  EXPECT_EQ(wide.stats.format, TupleFormat::kWide);
  for (const int threads : {1, max_threads()}) {
    const ThreadCountGuard lanes(threads);
    PbConfig kcfg = cfg;
    kcfg.format = policy;
    PbWorkspace ws;
    const PbResult keyonly =
        testutil::pb_plan_execute(a, b, kcfg, ws, BoolOrAnd::name);
    EXPECT_EQ(keyonly.stats.format, TupleFormat::kKeyOnly)
        << to_string(policy) << ", " << threads << " thread(s)";
    EXPECT_TRUE(mtx::equal_exact(wide.c, keyonly.c))
        << to_string(policy) << ", " << threads << " thread(s)";
  }
}

TEST(PbFormatKeyOnly, BitIdenticalToWideAcrossPoliciesAndSchedules) {
  const mtx::CsrMatrix m = testutil::exact_er(400, 400, 6.0, 44);
  const mtx::CscMatrix a = mtx::csr_to_csc(m);
  for (const int nbins : {1, 8}) {
    PbConfig cfg;
    cfg.nbins = nbins;
    // Both the explicit request and auto (the value_free flag derived
    // from bool_or_and) must land on key-only.
    expect_keyonly_matches_wide(a, m, cfg, FormatPolicy::kKeyOnly);
    expect_keyonly_matches_wide(a, m, cfg, FormatPolicy::kAuto);
  }
}

TEST(PbFormatKeyOnly, AutoSelectsKeyOnlyAndChargesEightBytes) {
  const mtx::CsrMatrix m = testutil::exact_er(500, 500, 5.0, 45);
  const mtx::CscMatrix a = mtx::csr_to_csc(m);
  PbWorkspace ws;
  const PbResult r =
      testutil::pb_plan_execute(a, m, PbConfig{}, ws, BoolOrAnd::name);
  EXPECT_EQ(r.stats.format, TupleFormat::kKeyOnly);
  EXPECT_EQ(r.stats.tuple_bytes(), 8.0);
  // Eq. 4 accounting: the sort streams 8 B/tuple, not 12 or 16.
  EXPECT_EQ(r.stats.sort.bytes, 8.0 * static_cast<double>(r.stats.flop));
  // Same semiring through the executor, which derives value-freeness from
  // the name.
  RunInfo info;
  const mtx::CsrMatrix c = testutil::pb_product(SpGemmProblem::square(m),
                                                BoolOrAnd::name, {}, &info);
  EXPECT_EQ(info.pb_stats.format, TupleFormat::kKeyOnly);
  EXPECT_TRUE(mtx::equal_exact(r.c, c));
}

TEST(PbFormatKeyOnly, EngagesWhereNarrowCannotFit) {
  // 2^30 columns and 8 rows in one bin: 3 + 30 = 33 bits, past the narrow
  // fit — but a key-only key is 64 bits, which holds any local row beside
  // any column, so value-free workloads still get the 8 B format at any
  // geometry.
  const index_t wide_cols = index_t{1} << 30;
  const mtx::CsrMatrix a_csr = testutil::from_triplets(
      8, 4, {{0, 0, 2.0}, {5, 1, 3.0}, {7, 3, 7.0}});
  const mtx::CsrMatrix b = testutil::from_triplets(
      4, wide_cols, {{0, 7, 1.0}, {1, wide_cols - 1, 4.0}, {3, 99, 6.0}});
  const mtx::CscMatrix a = mtx::csr_to_csc(a_csr);

  PbConfig cfg;
  cfg.nbins = 1;
  cfg.value_free = true;
  const PbPlan plan = pb_plan_build(a, b, cfg);
  ASSERT_GT(plan.sym.layout.local_row_bits() + plan.sym.col_bits, 32);
  EXPECT_EQ(plan.sym.format, TupleFormat::kKeyOnly);

  expect_keyonly_matches_wide(a, b, cfg, FormatPolicy::kAuto);
}

TEST(PbFormatKeyOnly, RequestFallsBackForValuedSemirings) {
  // A key-only request for a semiring that carries values is illegal; the
  // library treats requests as preferences and falls back to the auto
  // choice (the CLI layers a strict error on top for explicit --format).
  const mtx::CsrMatrix m = testutil::exact_er(300, 300, 4.0, 46);
  const mtx::CscMatrix a = mtx::csr_to_csc(m);
  PbConfig cfg;
  cfg.format = FormatPolicy::kKeyOnly;
  PbWorkspace ws;
  const PbResult r = testutil::pb_plan_execute(a, m, cfg, ws);
  EXPECT_EQ(r.stats.format, TupleFormat::kNarrow);
  EXPECT_TRUE(
      mtx::equal_exact(r.c, reference_spgemm(SpGemmProblem::square(m))));
}

TEST(PbFormatKeyOnly, ExactCancellationStaysStructurallyCorrect) {
  // Why dropping the value stream cannot break the exact-cancellation
  // convention: in a value-free semiring, add and mul of NONZERO operands
  // always yield the present-value (1 ∨ 1 = 1 ≠ 0), so no accumulation of
  // nonzeros can cancel to zero — every distinct key survives compress in
  // the valued formats too, and the patterns agree by construction.  The
  // only way a bool_or_and output can hold a zero is an explicit stored
  // 0.0 in an operand (bool-false), and symbolic downgrades key-only
  // whenever an operand stores a zero, so the value stream is retained
  // exactly when it can matter.
  const mtx::CsrMatrix a_csr = testutil::from_triplets(1, 1, {{0, 0, 0.0}});
  const mtx::CsrMatrix b = testutil::from_triplets(1, 1, {{0, 0, 1.0}});
  const mtx::CscMatrix a = mtx::csr_to_csc(a_csr);

  PbConfig cfg;
  cfg.value_free = true;  // asserted, yet the operand scan must override
  const PbPlan plan = pb_plan_build(a, b, cfg);
  EXPECT_NE(plan.sym.format, TupleFormat::kKeyOnly);

  PbWorkspace ws;
  const PbResult r =
      testutil::pb_plan_execute(a, b, cfg, ws, BoolOrAnd::name);
  ASSERT_EQ(r.c.nnz(), 1);
  EXPECT_EQ(r.c.vals[0], 0.0);  // 0 ∧ 1 = 0, stored structurally
}

}  // namespace
}  // namespace pbs::pb
