// The row-wise hash kernels (spgemm/hash_impl.hpp, hash_table.hpp) on the
// inputs their hash function and in-place row sort can get wrong: columns
// that share their low bits, contiguous runs, rows on either side of the
// row sort's 32-entry insertion-sort cutoff, and column ids that vary in
// one to four bytes.  `hash` and `hashvec`, plain, masked and
// complemented, must equal `heap` exactly (integer values, so the order
// of additions cannot matter) with strictly ascending rows.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include "matrix/csr.hpp"
#include "spgemm/masked.hpp"
#include "spgemm/registry.hpp"
#include "spgemm/semiring.hpp"
#include "spgemm/spgemm.hpp"

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
        heap_masked_semiring<PlusTimes>(p, mask, complement);
    expect_canonical_and_equal(
        hash_masked_semiring<PlusTimes>(p, mask, complement), oracle,
        tag + " hash");
    expect_canonical_and_equal(
        masked_semiring_algorithm("hashvec", PlusTimes::name, &mask,
                                  complement)(p),
        oracle, tag + " hashvec");
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

}  // namespace
}  // namespace pbs
