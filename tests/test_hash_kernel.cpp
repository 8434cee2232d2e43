// The row-wise hash kernels (spgemm/hash_impl.hpp, hash_table.hpp) on the
// inputs their hash function and in-place row sort can get wrong: columns
// that share their low bits, contiguous runs, rows on either side of the
// row sort's 32-entry insertion-sort cutoff, and column ids that vary in
// one to four bytes.  `hash` and `hashvec`, plain, masked and
// complemented, must equal `heap` exactly (integer values, so the order
// of additions cannot matter) with strictly ascending rows.
//
// Then the dense window, on rows on either side of its two bounds,
// windows at either end of the column range, empty B rows, a first
// product of -0.0, and an R-MAT product that mixes window and table rows:
// every semiring, mask polarity and post-op the kernels fuse, at one lane
// and at full width.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <random>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "common/parallel.hpp"
#include "matrix/csr.hpp"
#include "spgemm/epilogue.hpp"
#include "spgemm/hash_impl.hpp"
#include "spgemm/masked.hpp"
#include "spgemm/registry.hpp"
#include "spgemm/semiring.hpp"
#include "spgemm/spgemm.hpp"
#include "test_util.hpp"

namespace pbs {
namespace {

using Rows = std::vector<std::vector<index_t>>;

/// CSR of `rows` (duplicates dropped, columns sorted) with small-integer
/// values.  Built directly, so no step allocates O(ncols).
mtx::CsrMatrix csr_from_rows(index_t ncols, Rows rows) {
  mtx::CsrMatrix m(static_cast<index_t>(rows.size()), ncols);
  for (std::size_t r = 0; r < rows.size(); ++r) {
    std::vector<index_t>& cols = rows[r];
    std::sort(cols.begin(), cols.end());
    cols.erase(std::unique(cols.begin(), cols.end()), cols.end());
    for (const index_t c : cols) {
      m.colids.push_back(c);
      m.vals.push_back(static_cast<value_t>(1 + (r * 7 + c) % 5));
    }
    m.rowptr[r + 1] = static_cast<nnz_t>(m.colids.size());
  }
  return m;
}

/// A mask over C's shape: every other entry of each row of `c`, plus
/// column 37r mod ncols when row r of `c` does not hold it.
mtx::CsrMatrix mask_of(const mtx::CsrMatrix& c) {
  Rows rows(static_cast<std::size_t>(c.nrows));
  for (index_t r = 0; r < c.nrows; ++r) {
    const auto cols = c.row_cols(r);
    for (std::size_t i = 0; i < cols.size(); i += 2) rows[r].push_back(cols[i]);
    const index_t extra = static_cast<index_t>((r * 37) % c.ncols);
    if (!std::binary_search(cols.begin(), cols.end(), extra))
      rows[r].push_back(extra);
  }
  return csr_from_rows(c.ncols, std::move(rows));
}

void expect_canonical_and_equal(const mtx::CsrMatrix& got,
                                const mtx::CsrMatrix& expected,
                                const std::string& what) {
  const mtx::CsrValidation v = mtx::csr_validate(got);
  EXPECT_TRUE(v.ok) << what << ": " << v.error;
  EXPECT_TRUE(equal_exact(got, expected)) << what;
}

/// hash and hashvec on A·B against heap; masked and complemented too
/// when B has few enough columns for MaskStamp's O(ncols) stamp array.
void expect_hash_kernels_match_heap(const mtx::CsrMatrix& a,
                                    const mtx::CsrMatrix& b,
                                    const std::string& what) {
  const SpGemmProblem p = SpGemmProblem::multiply(a, b);
  const mtx::CsrMatrix expected = heap_spgemm(p);
  expect_canonical_and_equal(hash_spgemm(p), expected, what + " hash");
  expect_canonical_and_equal(hashvec_spgemm(p), expected, what + " hashvec");

  if (b.ncols > (index_t{1} << 17)) return;
  const mtx::CsrMatrix mask = mask_of(expected);
  for (const bool complement : {false, true}) {
    const std::string tag = what + (complement ? " complemented" : " masked");
    const mtx::CsrMatrix oracle =
        heap_spgemm_semiring<PlusTimes>(p, &mask, complement);
    expect_canonical_and_equal(
        hash_spgemm_semiring<PlusTimes>(p, &mask, complement), oracle,
        tag + " hash");
    expect_canonical_and_equal(hashvec_spgemm(p, &mask, complement), oracle,
                               tag + " hashvec");
  }
}

/// Row r of A sums `fan` rows of B (with wrap-around), so every output
/// row combines duplicates from several B rows.
mtx::CsrMatrix fan_in(index_t nrows, index_t b_rows, int fan) {
  Rows rows(static_cast<std::size_t>(nrows));
  for (index_t r = 0; r < nrows; ++r) {
    for (int f = 0; f < fan; ++f) rows[r].push_back((r * 3 + f * 5) % b_rows);
  }
  return csr_from_rows(b_rows, std::move(rows));
}

TEST(HashKernel, ColumnsSharingTheirLowBits) {
  // Every column a multiple of 2^12 (1,024 candidates) or of 2^16 (64
  // candidates) in a B of 2^22 columns: a low-bit hash would send each
  // row's columns down one probe chain.
  constexpr index_t kCols = index_t{1} << 22;
  for (const int stride_log : {12, 16}) {
    const index_t candidates = kCols >> stride_log;
    std::mt19937_64 rng(static_cast<unsigned>(stride_log));
    Rows b_rows(64);
    for (auto& row : b_rows) {
      const auto len = 1 + static_cast<int>(rng() % 80);
      for (int i = 0; i < len; ++i) {
        row.push_back(static_cast<index_t>(rng() % candidates) << stride_log);
      }
    }
    expect_hash_kernels_match_heap(fan_in(96, 64, 4),
                                   csr_from_rows(kCols, std::move(b_rows)),
                                   "multiples of 2^" + std::to_string(stride_log));
  }
}

TEST(HashKernel, ContiguousColumnRuns) {
  Rows b_rows(48);
  for (std::size_t r = 0; r < b_rows.size(); ++r) {
    const auto start = static_cast<index_t>(r * 41 % 3000);
    const auto len = static_cast<index_t>(1 + r * 13 % 400);
    for (index_t c = start; c < start + len; ++c) b_rows[r].push_back(c);
  }
  expect_hash_kernels_match_heap(fan_in(64, 48, 3),
                                 csr_from_rows(4096, std::move(b_rows)),
                                 "contiguous runs");
}

TEST(HashKernel, RowLengthsAroundTheInsertionSortCutoff) {
  // C's row i holds exactly kLengths[i] columns, each one spread over a
  // random nonempty subset of three B rows, so the hash table sees every
  // row's columns out of order and with duplicates.
  constexpr index_t kLengths[] = {0, 1, 2, 31, 32, 33, 1000, 999};
  constexpr index_t kCols = 5000;
  std::mt19937_64 rng(23);
  const auto nrows = static_cast<index_t>(std::size(kLengths));
  Rows a_rows(static_cast<std::size_t>(nrows)), b_rows(3 * std::size(kLengths));
  for (index_t r = 0; r < nrows; ++r) {
    std::vector<index_t> cols(static_cast<std::size_t>(kCols));
    for (index_t c = 0; c < kCols; ++c) cols[c] = c;
    std::shuffle(cols.begin(), cols.end(), rng);
    for (index_t i = 0; i < kLengths[r]; ++i) {
      const auto subset = 1 + rng() % 7;  // nonempty subset of 3 rows
      for (int k = 0; k < 3; ++k) {
        if ((subset >> k) & 1u) b_rows[3 * r + k].push_back(cols[i]);
      }
    }
    for (int k = 0; k < 3; ++k) a_rows[r].push_back(3 * r + k);
  }
  const mtx::CsrMatrix a = csr_from_rows(3 * nrows, std::move(a_rows));
  const mtx::CsrMatrix b = csr_from_rows(kCols, std::move(b_rows));
  const mtx::CsrMatrix c = heap_spgemm(SpGemmProblem::multiply(a, b));
  for (index_t r = 0; r < nrows; ++r) ASSERT_EQ(c.row_nnz(r), kLengths[r]);
  expect_hash_kernels_match_heap(a, b, "row lengths");
}

TEST(HashKernel, ColumnIdsVaryingInOneToFourBytes) {
  // B of 200, 70,000, 2^24 + 5 and 2^31 - 1 columns.  Half the B rows draw
  // from the whole range, half from its top 300 columns, whose high bytes
  // are constant; rows span 1-120 entries.
  for (const index_t ncols : {index_t{200}, index_t{70000},
                              (index_t{1} << 24) + 5, index_t{2147483647}}) {
    std::mt19937_64 rng(static_cast<std::uint64_t>(ncols));
    Rows b_rows(40);
    for (std::size_t r = 0; r < b_rows.size(); ++r) {
      const index_t lo = r % 2 == 0 ? 0 : std::max<index_t>(0, ncols - 300);
      const auto span = static_cast<std::uint64_t>(ncols - lo);
      const auto len = 1 + static_cast<int>(rng() % 120);
      for (int i = 0; i < len; ++i) {
        b_rows[r].push_back(lo + static_cast<index_t>(rng() % span));
      }
    }
    expect_hash_kernels_match_heap(fan_in(60, 40, 3),
                                   csr_from_rows(ncols, std::move(b_rows)),
                                   std::to_string(ncols) + " columns");
  }
}

/// Window rows and hash-table rows of A·B, as the kernels sort them.
struct RowKinds {
  index_t window = 0;
  index_t table = 0;
};

RowKinds row_kinds(const mtx::CsrMatrix& a, const mtx::CsrMatrix& b) {
  RowKinds kinds;
  for (index_t r = 0; r < a.nrows; ++r) {
    const detail::RowBounds rb =
        detail::row_bounds(a, b, nullptr, false, r, true);
    if (rb.upper == 0) continue;
    ++(rb.width > 0 ? kinds.window : kinds.table);
  }
  return kinds;
}

/// Every path through the hash kernels' row loop on A·B against heap's
/// product, at one lane and at full width: `hash` under four semirings
/// and `hashvec` under plus_times, each plain, masked and complemented;
/// and the fused post-ops prune + top-k and scale only (one pass and two
/// phases), against heap followed by apply_post_op.
void expect_every_path_matches_heap(const mtx::CsrMatrix& a,
                                    const mtx::CsrMatrix& b,
                                    const std::string& what) {
  const SpGemmProblem p = SpGemmProblem::multiply(a, b);
  const mtx::CsrMatrix mask = mask_of(heap_spgemm(p));
  PostOp prune_top_k;
  prune_top_k.prune_threshold = 3.0;
  prune_top_k.top_k = 4;
  PostOp scale_only;
  scale_only.scale = 0.5;
  for (const int lanes : {1, max_threads()}) {
    const ThreadCountGuard guard(lanes);
    for (const std::string semiring :
         {"plus_times", "min_plus", "max_min", "bool_or_and"}) {
      for (const int polarity : {0, 1, 2}) {  // plain, masked, complemented
        const mtx::CsrMatrix* m = polarity == 0 ? nullptr : &mask;
        const bool complement = polarity == 2;
        const bool hashvec = semiring == "plus_times";
        const std::string tag =
            what + " " + semiring +
            (polarity == 0 ? "" : complement ? " complemented" : " masked") +
            " at " + std::to_string(lanes) + " lane(s)";
        const mtx::CsrMatrix gold =
            semiring_algorithm("heap", semiring, m, complement)(p);
        expect_canonical_and_equal(
            semiring_algorithm("hash", semiring, m, complement)(p), gold,
            tag + " hash");
        if (hashvec) {
          expect_canonical_and_equal(
              semiring_algorithm("hashvec", semiring, m, complement)(p), gold,
              tag + " hashvec");
        }
        if (semiring == "bool_or_and") continue;  // value-free: no post-op
        for (const PostOp& post : {prune_top_k, scale_only}) {
          mtx::CsrMatrix shaped = gold;
          apply_post_op(shaped, post);
          for (const std::string algo : {"hash", "hashvec"}) {
            if (algo == "hashvec" && !hashvec) continue;
            const mtx::CsrMatrix got =
                semiring_algorithm(algo, semiring, m, complement, post)(p);
            expect_canonical_and_equal(
                got, shaped,
                tag + " " + algo + " post-op " + post_op_to_string(post));
          }
        }
      }
    }
  }
}

/// A·B built one output row at a time, each from B rows of its own.  B's
/// row 0 is empty, and every A row but the empty ones also sums it.
class RowCases {
 public:
  explicit RowCases(index_t ncols) : ncols_(ncols), b_rows_(1) {}

  /// Appends an A row whose product makes `flop` multiplies over the
  /// window [lo, lo + width), both of whose ends it hits.  The columns
  /// beyond the two ends are random; each B row holds distinct columns,
  /// so the flop is exact.
  void add(index_t lo, index_t width, index_t flop, bool window,
           std::mt19937_64& rng) {
    std::vector<index_t> cols = {lo, lo + width - 1};
    while (static_cast<index_t>(cols.size()) < flop) {
      cols.push_back(lo + static_cast<index_t>(
                              rng() % static_cast<std::uint64_t>(width)));
    }
    std::vector<std::set<index_t>> parts;
    for (const index_t c : cols) {
      auto it = std::find_if(parts.begin(), parts.end(),
                             [c](const std::set<index_t>& s) {
                               return s.count(c) == 0;
                             });
      if (it == parts.end()) it = parts.emplace(parts.end());
      it->insert(c);
    }
    std::vector<index_t> a_row = {0};
    for (const std::set<index_t>& part : parts) {
      a_row.push_back(static_cast<index_t>(b_rows_.size()));
      b_rows_.emplace_back(part.begin(), part.end());
    }
    a_rows_.push_back(std::move(a_row));
    window_.push_back(window);
  }

  /// Appends an A row with no entries, or one that sums only the empty
  /// B row: either way an empty output row.
  void add_empty(bool touches_empty_b_row) {
    a_rows_.push_back(touches_empty_b_row ? std::vector<index_t>{0}
                                          : std::vector<index_t>{});
    window_.push_back(false);
  }

  [[nodiscard]] mtx::CsrMatrix a() const {
    return csr_from_rows(static_cast<index_t>(b_rows_.size()), a_rows_);
  }
  [[nodiscard]] mtx::CsrMatrix b() const {
    return csr_from_rows(ncols_, b_rows_);
  }
  [[nodiscard]] bool window(index_t r) const { return window_[r]; }

 private:
  index_t ncols_;
  Rows a_rows_, b_rows_;
  std::vector<bool> window_;
};

TEST(HashKernel, DenseWindowBoundsAndEdges) {
  constexpr auto kMaxWidth = static_cast<index_t>(detail::kWindowMaxWidth);
  constexpr index_t kCols = 2 * kMaxWidth;
  std::mt19937_64 rng(25);
  RowCases rows(kCols);
  // Width against the row's flop: equal (window) and one more (table).
  rows.add(0, 40, 40, true, rng);  // also starts at column 0
  rows.add(1000, 41, 40, false, rng);
  rows.add(kCols - 40, 40, 40, true, rng);  // ends at column ncols - 1
  rows.add(kCols - 41, 41, 40, false, rng);
  // Width against the cap, with flop to spare: 2^16 (window) and 2^16 + 1
  // (table), one of each at either end of the column range.
  rows.add(0, kMaxWidth, kMaxWidth + 700, true, rng);
  rows.add(kCols - kMaxWidth - 1, kMaxWidth + 1, kMaxWidth + 700, false, rng);
  rows.add(kCols - kMaxWidth, kMaxWidth, kMaxWidth + 300, true, rng);
  rows.add(3, kMaxWidth + 1, kMaxWidth + 300, false, rng);
  // Narrow windows with many duplicates, one column wide at the extreme,
  // and a sparse row over the whole range.
  rows.add(500, 300, 2000, true, rng);
  rows.add(kCols - 1, 1, 6, true, rng);
  rows.add(0, kCols, 300, false, rng);
  rows.add_empty(true);
  rows.add_empty(false);

  const mtx::CsrMatrix a = rows.a();
  const mtx::CsrMatrix b = rows.b();
  for (index_t r = 0; r < a.nrows; ++r) {
    EXPECT_EQ(detail::row_bounds(a, b, nullptr, false, r, true).width > 0,
              rows.window(r))
        << "row " << r;
  }
  expect_every_path_matches_heap(a, b, "window bounds");
}

TEST(HashKernel, DenseWindowKeepsANegativeZeroFirstProduct) {
  // Row 0 is a window row and row 1 a table row (its window spans every
  // column).  Column 0's products are all -1 x 0.0 = -0.0; the hash table
  // stores a first product as-is, so -0.0 stays -0.0 where a sum started
  // from S::zero() = +0.0 would read +0.0.
  constexpr index_t kCols = 1000;
  const mtx::CsrMatrix a = testutil::from_triplets(
      2, 3, {{0, 0, -1.0}, {0, 1, -1.0}, {1, 0, -1.0}, {1, 2, 2.0}});
  const mtx::CsrMatrix b = testutil::from_triplets(
      3, kCols,
      {{0, 0, 0.0}, {0, 1, 1.0}, {0, 2, 2.0}, {1, 0, 0.0}, {1, 2, 3.0},
       {1, 3, 4.0}, {2, 1, 5.0}, {2, kCols - 1, 6.0}});
  // from_triplets keeps explicit zeros, which the test needs.
  ASSERT_EQ(b.nnz(), 8);
  ASSERT_GT(detail::row_bounds(a, b, nullptr, false, 0, true).width, 0);
  ASSERT_EQ(detail::row_bounds(a, b, nullptr, false, 1, true).width, 0);
  const SpGemmProblem p = SpGemmProblem::multiply(a, b);
  const mtx::CsrMatrix mask = testutil::from_triplets(
      2, kCols, {{0, 0, 1.0}, {0, 3, 1.0}, {1, 0, 1.0}});
  PostOp scale_only;
  scale_only.scale = 0.5;
  for (const int lanes : {1, max_threads()}) {
    const ThreadCountGuard guard(lanes);
    const std::vector<std::pair<std::string, mtx::CsrMatrix>> results = {
        {"hash", hash_spgemm(p)},
        {"hashvec", hashvec_spgemm(p)},
        {"masked hash", hash_spgemm_semiring<PlusTimes>(p, &mask)},
        {"scaled hash",
         hash_spgemm_semiring<PlusTimes>(p, nullptr, false, scale_only)},
    };
    for (const auto& [what, c] : results) {
      for (index_t r = 0; r < 2; ++r) {
        ASSERT_GT(c.row_nnz(r), 0) << what;
        const nnz_t first = c.rowptr[r];
        ASSERT_EQ(c.colids[first], 0) << what << " row " << r;
        EXPECT_EQ(c.vals[first], 0.0) << what << " row " << r;
        EXPECT_TRUE(std::signbit(c.vals[first]))
            << what << " row " << r << " at " << lanes << " lane(s)";
      }
    }
  }
}

TEST(HashKernel, RmatMixesWindowAndTableRows) {
  const mtx::CsrMatrix a = testutil::exact_rmat(10, 16.0, 25);
  const RowKinds kinds = row_kinds(a, a);
  EXPECT_GT(kinds.window, 0);
  EXPECT_GT(kinds.table, 0);
  expect_every_path_matches_heap(a, a, "R-MAT scale 10");
}

TEST(HashKernel, UnsortedBRowsKeepTheHashTable) {
  // B is A with every row's entries reversed: the same entries, so the
  // same product bit for bit, but a row's first and last columns no
  // longer bound it.  The window would write outside itself; the kernels
  // must see the unsorted rows and keep every row on the hash table.
  const mtx::CsrMatrix a = testutil::exact_rmat(10, 16.0, 26);
  ASSERT_GT(row_kinds(a, a).window, 0);
  mtx::CsrMatrix reversed = a;
  for (index_t r = 0; r < a.nrows; ++r) {
    const auto begin = static_cast<std::ptrdiff_t>(a.rowptr[r]);
    const auto end = static_cast<std::ptrdiff_t>(a.rowptr[r + 1]);
    std::reverse(reversed.colids.begin() + begin,
                 reversed.colids.begin() + end);
    std::reverse(reversed.vals.begin() + begin, reversed.vals.begin() + end);
  }
  ASSERT_TRUE(detail::rows_sorted(a));
  ASSERT_FALSE(detail::rows_sorted(reversed));
  const SpGemmProblem sorted = SpGemmProblem::multiply(a, a);
  const SpGemmProblem unsorted = SpGemmProblem::multiply(a, reversed);
  PostOp prune_top_k;
  prune_top_k.prune_threshold = 3.0;
  prune_top_k.top_k = 4;
  for (const int lanes : {1, max_threads()}) {
    const ThreadCountGuard guard(lanes);
    EXPECT_TRUE(mtx::equal_exact(hash_spgemm(unsorted), hash_spgemm(sorted)));
    EXPECT_TRUE(
        mtx::equal_exact(hashvec_spgemm(unsorted), hashvec_spgemm(sorted)));
    EXPECT_TRUE(mtx::equal_exact(
        hash_spgemm_semiring<PlusTimes>(unsorted, nullptr, false, prune_top_k),
        hash_spgemm_semiring<PlusTimes>(sorted, nullptr, false, prune_top_k)));
  }
}

}  // namespace
}  // namespace pbs
