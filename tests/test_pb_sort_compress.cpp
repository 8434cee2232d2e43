#include "pb/sort_compress.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <random>
#include <string>
#include <vector>

#include "common/aligned_buffer.hpp"
#include "common/parallel.hpp"
#include "spgemm/semiring_ops.hpp"
#include "spgemm/spgemm.hpp"
#include "test_util.hpp"

namespace pbs::pb {
namespace {

// Each bin's sort + compress as a pb_execute bin task runs them: one
// scratch sized for the largest bin serves every bin.  Returns the
// surviving tuple count per bin.
std::vector<nnz_t> sort_compress(std::vector<Tuple>& t,
                                 const std::vector<nnz_t>& offsets,
                                 const std::vector<nnz_t>& fill) {
  const auto max_bin =
      static_cast<std::size_t>(*std::max_element(fill.begin(), fill.end()));
  AlignedBuffer<Tuple> scratch(max_bin);
  const MaskSpec unmasked;
  const WideBinOps<PlusTimes> ops{t.data(), &unmasked, nullptr};
  std::vector<nnz_t> merged(fill.size(), 0);
  for (std::size_t bin = 0; bin < fill.size(); ++bin) {
    const auto len = static_cast<std::size_t>(fill[bin]);
    ops.sort(offsets[bin], len, scratch.data(), max_bin);
    merged[bin] = ops.compress(offsets[bin], len);
  }
  return merged;
}

TEST(SortCompress, SingleBinKnownCase) {
  std::vector<Tuple> t{{make_key(1, 2), 1.0},
                       {make_key(0, 5), 2.0},
                       {make_key(1, 2), 3.0},
                       {make_key(0, 1), 4.0}};
  const std::vector<nnz_t> offsets{0, 4};
  const std::vector<nnz_t> fill{4};
  const std::vector<nnz_t> merged = sort_compress(t, offsets, fill);
  ASSERT_EQ(merged[0], 3);
  EXPECT_EQ(t[0].key, make_key(0, 1));
  EXPECT_EQ(t[0].val, 4.0);
  EXPECT_EQ(t[1].key, make_key(0, 5));
  EXPECT_EQ(t[1].val, 2.0);
  EXPECT_EQ(t[2].key, make_key(1, 2));
  EXPECT_EQ(t[2].val, 4.0);  // 1 + 3 merged
}

TEST(SortCompress, EmptyBinsHandled) {
  // Products land in rows 0-3 only, so with 16-row range bins every bin
  // but the first is empty: pb_execute must not wait for them, and the
  // validate checks must accept their untouched regions — at one lane
  // and at full width.
  const mtx::CsrMatrix a = testutil::from_triplets(
      64, 64, {{0, 5, 2.0}, {1, 5, 3.0}, {3, 9, 4.0}});
  const mtx::CsrMatrix b = testutil::from_triplets(
      64, 64, {{5, 1, 5.0}, {5, 60, 6.0}, {9, 7, 7.0}});
  const SpGemmProblem p = SpGemmProblem::multiply(a, b);
  PbConfig cfg;
  cfg.nbins = 4;
  cfg.validate = true;
  for (const int threads : {1, max_threads()}) {
    const ThreadCountGuard lanes(threads);
    const PbResult r = pb_spgemm(p.a_csc, p.b_csr, cfg);
    EXPECT_EQ(r.stats.nbins, 4);
    EXPECT_TRUE(mtx::equal_exact(r.c, reference_spgemm(p)))
        << threads << " thread(s)";
  }
}

TEST(SortCompress, AllDuplicatesCollapseToOne) {
  std::vector<Tuple> t(1000, Tuple{make_key(3, 7), 1.0});
  const std::vector<nnz_t> offsets{0, 1000};
  const std::vector<nnz_t> fill{1000};
  const std::vector<nnz_t> merged = sort_compress(t, offsets, fill);
  ASSERT_EQ(merged[0], 1);
  EXPECT_EQ(t[0].val, 1000.0);
}

TEST(SortCompress, NoDuplicatesKeepsAll) {
  std::vector<Tuple> t;
  for (index_t i = 99; i >= 0; --i) t.push_back({make_key(0, i), 1.0});
  const std::vector<nnz_t> offsets{0, 100};
  const std::vector<nnz_t> fill{100};
  const std::vector<nnz_t> merged = sort_compress(t, offsets, fill);
  EXPECT_EQ(merged[0], 100);
  for (index_t i = 0; i < 100; ++i) EXPECT_EQ(key_col(t[i].key), i);
}

TEST(SortCompress, RandomizedMatchesMapSemantics) {
  std::mt19937_64 rng(12);
  const int nbins = 4;
  const int per_bin = 5000;
  std::vector<Tuple> t;
  std::vector<nnz_t> offsets{0};
  std::map<std::uint64_t, value_t> expected[nbins];
  for (int bin = 0; bin < nbins; ++bin) {
    for (int i = 0; i < per_bin; ++i) {
      // Rows partitioned by bin to respect the bin invariant.
      const auto row = static_cast<index_t>(bin * 100 + rng() % 100);
      const auto col = static_cast<index_t>(rng() % 50);
      const auto val = static_cast<value_t>(1 + rng() % 5);
      t.push_back({make_key(row, col), val});
      expected[bin][make_key(row, col)] += val;
    }
    offsets.push_back(offsets.back() + per_bin);
  }
  const std::vector<nnz_t> fill(nbins, per_bin);

  const std::vector<nnz_t> merged = sort_compress(t, offsets, fill);
  for (int bin = 0; bin < nbins; ++bin) {
    ASSERT_EQ(merged[static_cast<std::size_t>(bin)],
              static_cast<nnz_t>(expected[bin].size()));
    auto it = expected[bin].begin();
    for (nnz_t i = 0; i < merged[static_cast<std::size_t>(bin)]; ++i, ++it) {
      const Tuple& tp = t[static_cast<std::size_t>(offsets[bin] + i)];
      ASSERT_EQ(tp.key, it->first);
      ASSERT_EQ(tp.val, it->second);  // exact: small-integer values
    }
  }
}

TEST(SortCompress, TimersAreNonNegative) {
  const mtx::CsrMatrix a = testutil::exact_er(300, 300, 4.0, 13);
  const SpGemmProblem p = SpGemmProblem::square(a);
  for (const int threads : {1, max_threads()}) {
    const ThreadCountGuard lanes(threads);
    const PbResult r = pb_spgemm(p.a_csc, p.b_csr);
    EXPECT_GE(r.stats.sort.seconds, 0.0);
    EXPECT_GE(r.stats.compress.seconds, 0.0);
  }
}

TEST(KeyCodec, RoundTrips) {
  for (const index_t r : {0, 1, 1000, (1 << 20) - 1}) {
    for (const index_t c : {0, 7, 65535, (1 << 20) - 1}) {
      const std::uint64_t k = make_key(r, c);
      EXPECT_EQ(key_row(k), r);
      EXPECT_EQ(key_col(k), c);
    }
  }
}

TEST(KeyCodec, OrderIsRowMajor) {
  EXPECT_LT(make_key(0, 1000000), make_key(1, 0));
  EXPECT_LT(make_key(5, 2), make_key(5, 3));
}

}  // namespace
}  // namespace pbs::pb
