#include "pb/sort_compress.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <random>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "common/parallel.hpp"
#include "pb/pb_spgemm.hpp"
#include "spgemm/semiring_ops.hpp"
#include "spgemm/spgemm.hpp"
#include "test_util.hpp"

namespace pbs::pb {
namespace {

using Entry = std::tuple<index_t, index_t, value_t>;  // (local row, col, value)
using Bins = std::vector<std::vector<Entry>>;

constexpr int kColBits = 7;  // every test column is below 128

// Lays `bins` out as one format-F stream, keys packed by the one codec,
// then runs each bin's sort + compress as a pb_execute bin task runs them:
// one scratch sized for the largest bin serves every bin.  Returns each
// bin's survivors, decoded (key-only survivors read kPresentValue).
template <TupleFormat F>
Bins sort_compress(const Bins& bins) {
  using Key = typename StreamSpan<F>::Key;
  const KeyCodec<Key> codec{kColBits};
  std::size_t total = 0;
  std::size_t max_bin = 0;
  for (const auto& bin : bins) {
    total += bin.size();
    max_bin = std::max(max_bin, bin.size());
  }
  std::vector<Key> keys;
  std::vector<value_t> vals;
  for (const auto& bin : bins) {
    for (const auto& [r, c, v] : bin) {
      keys.push_back(codec.pack(r, c));
      vals.push_back(v);
    }
  }
  std::vector<Key> kscratch(max_bin);
  std::vector<value_t> vscratch(max_bin);
  const bool valued = has_values(F);
  const StreamSpan<F> stream{keys.data(), valued ? vals.data() : nullptr};
  const StreamSpan<F> scratch{kscratch.data(),
                               valued ? vscratch.data() : nullptr};
  const MaskSpec unmasked;
  const BinOps<F, PlusTimes> ops{stream, &unmasked, nullptr, nullptr,
                                 kColBits};
  Bins out;
  nnz_t off = 0;
  for (const auto& bin : bins) {
    ops.sort(off, bin.size(), scratch);
    const nnz_t merged = ops.compress(off, bin.size());
    auto& survivors = out.emplace_back();
    for (nnz_t i = off; i < off + merged; ++i) {
      const Key k = keys[static_cast<std::size_t>(i)];
      survivors.emplace_back(codec.local_row(k), codec.col(k),
                             valued ? vals[static_cast<std::size_t>(i)]
                                    : kPresentValue);
    }
    off += static_cast<nnz_t>(bin.size());
  }
  return out;
}

// What a format-F stream keeps of `expected` (a valued stream's sums): a
// key-only stream keeps the same keys, each reading kPresentValue.
template <TupleFormat F>
Bins as_stored(Bins expected) {
  if (!has_values(F)) {
    for (auto& bin : expected) {
      for (auto& e : bin) std::get<2>(e) = kPresentValue;
    }
  }
  return expected;
}

// Runs `fn.template operator()<F>()` once per tuple format.
template <typename Fn>
void for_each_format(Fn&& fn) {
  fn.template operator()<TupleFormat::kWide>();
  fn.template operator()<TupleFormat::kNarrow>();
  fn.template operator()<TupleFormat::kKeyOnly>();
}

TEST(SortCompress, SingleBinKnownCase) {
  const Bins in{{{1, 2, 1.0}, {0, 5, 2.0}, {1, 2, 3.0}, {0, 1, 4.0}}};
  for_each_format([&]<TupleFormat F>() {
    EXPECT_EQ(sort_compress<F>(in),
              as_stored<F>({{{0, 1, 4.0}, {0, 5, 2.0}, {1, 2, 4.0}}}))
        << to_string(F);  // (1, 2): 1 + 3 merged
  });
}

TEST(SortCompress, EmptyBinsHandled) {
  // Products land in rows 0-3 only, so with 16-row range bins every bin
  // but the first is empty: the bin loop must skip them, and expand's
  // slice checks must accept their empty slices — at one lane and at full
  // width.
  const mtx::CsrMatrix a = testutil::from_triplets(
      64, 64, {{0, 5, 2.0}, {1, 5, 3.0}, {3, 9, 4.0}});
  const mtx::CsrMatrix b = testutil::from_triplets(
      64, 64, {{5, 1, 5.0}, {5, 60, 6.0}, {9, 7, 7.0}});
  const SpGemmProblem p = SpGemmProblem::multiply(a, b);
  PbConfig cfg;
  cfg.nbins = 4;
  for (const int threads : {1, max_threads()}) {
    const ThreadCountGuard lanes(threads);
    const PbResult r = testutil::pb_plan_execute(p.a_csc, p.b_csr, cfg);
    EXPECT_EQ(r.stats.nbins, 4);
    EXPECT_TRUE(mtx::equal_exact(r.c, reference_spgemm(p)))
        << threads << " thread(s)";
  }
}

TEST(SortCompress, AllDuplicatesCollapseToOne) {
  const Bins in{std::vector<Entry>(1000, Entry{3, 7, 1.0})};
  for_each_format([&]<TupleFormat F>() {
    EXPECT_EQ(sort_compress<F>(in), as_stored<F>({{{3, 7, 1000.0}}}))
        << to_string(F);
  });
}

TEST(SortCompress, NoDuplicatesKeepsAll) {
  Bins in(1);
  Bins expected(1);
  for (index_t i = 99; i >= 0; --i) in[0].emplace_back(0, i, 1.0);
  for (index_t i = 0; i < 100; ++i) expected[0].emplace_back(0, i, 1.0);
  for_each_format([&]<TupleFormat F>() {
    EXPECT_EQ(sort_compress<F>(in), as_stored<F>(expected)) << to_string(F);
  });
}

TEST(SortCompress, RandomizedMatchesMapSemantics) {
  std::mt19937_64 rng(12);
  const int nbins = 4;
  const int per_bin = 5000;
  Bins in(nbins);
  Bins expected(nbins);
  for (int bin = 0; bin < nbins; ++bin) {
    std::map<std::pair<index_t, index_t>, value_t> sums;
    for (int i = 0; i < per_bin; ++i) {
      const auto row = static_cast<index_t>(rng() % 100);
      const auto col = static_cast<index_t>(rng() % 50);
      const auto val = static_cast<value_t>(1 + rng() % 5);
      in[static_cast<std::size_t>(bin)].emplace_back(row, col, val);
      sums[{row, col}] += val;  // exact: small-integer values
    }
    for (const auto& [rc, v] : sums) {
      expected[static_cast<std::size_t>(bin)].emplace_back(rc.first,
                                                           rc.second, v);
    }
  }
  for_each_format([&]<TupleFormat F>() {
    EXPECT_EQ(sort_compress<F>(in), as_stored<F>(expected)) << to_string(F);
  });
}

TEST(SortCompress, TimersAreNonNegative) {
  const mtx::CsrMatrix a = testutil::exact_er(300, 300, 4.0, 13);
  const SpGemmProblem p = SpGemmProblem::square(a);
  for (const int threads : {1, max_threads()}) {
    const ThreadCountGuard lanes(threads);
    const PbResult r = testutil::pb_plan_execute(p.a_csc, p.b_csr);
    EXPECT_GE(r.stats.sort.seconds, 0.0);
    EXPECT_GE(r.stats.compress.seconds, 0.0);
  }
}

TEST(KeyCodec, RoundTrips) {
  // Wide and key-only keys: any local row (< 2^31) beside any column.
  for (const int col_bits : {0, 1, 20, 31}) {
    const KeyCodec<std::uint64_t> codec{col_bits};
    const auto max_col =
        static_cast<index_t>((std::uint64_t{1} << col_bits) - 1);
    for (const index_t r : {0, 1, 1000, (1 << 20) - 1, 0x7FFFFFFF}) {
      for (const index_t c : {index_t{0}, max_col / 2, max_col}) {
        const std::uint64_t k = codec.pack(r, c);
        EXPECT_EQ(codec.local_row(k), r);
        EXPECT_EQ(codec.col(k), c);
      }
    }
  }
}

TEST(KeyCodec, OrderIsRowMajor) {
  const KeyCodec<std::uint64_t> codec{20};
  EXPECT_LT(codec.pack(0, (1 << 20) - 1), codec.pack(1, 0));
  EXPECT_LT(codec.pack(5, 2), codec.pack(5, 3));
}

}  // namespace
}  // namespace pbs::pb
