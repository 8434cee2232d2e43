#include "common/radix_sort.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <random>
#include <utility>
#include <vector>

namespace pbs {
namespace {

struct Rec {
  std::uint64_t key;
  double payload;
};

std::vector<Rec> random_records(std::size_t n, std::uint64_t key_mask,
                                unsigned seed) {
  std::mt19937_64 rng(seed);
  std::vector<Rec> v(n);
  for (std::size_t i = 0; i < n; ++i) {
    v[i].key = rng() & key_mask;
    v[i].payload = static_cast<double>(rng() % 1000);
  }
  return v;
}

void expect_sorted_with_same_multiset(std::vector<Rec> input) {
  std::vector<Rec> sorted = input;
  radix_sort(sorted.data(), sorted.size(),
             [](const Rec& r) { return r.key; });

  ASSERT_EQ(sorted.size(), input.size());
  for (std::size_t i = 1; i < sorted.size(); ++i)
    EXPECT_LE(sorted[i - 1].key, sorted[i].key) << "at " << i;

  // The multiset of (key, payload) pairs must be preserved exactly.
  auto canon = [](std::vector<Rec>& v) {
    std::sort(v.begin(), v.end(), [](const Rec& a, const Rec& b) {
      return a.key != b.key ? a.key < b.key : a.payload < b.payload;
    });
  };
  std::vector<Rec> a = sorted, b = input;
  canon(a);
  canon(b);
  for (std::size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(a[i].key, b[i].key) << "at " << i;
    ASSERT_EQ(a[i].payload, b[i].payload) << "at " << i;
  }
}

TEST(RadixSort, EmptyAndSingle) {
  expect_sorted_with_same_multiset({});
  expect_sorted_with_same_multiset({{42, 1.0}});
}

TEST(RadixSort, TwoElements) {
  expect_sorted_with_same_multiset({{2, 1.0}, {1, 2.0}});
  expect_sorted_with_same_multiset({{1, 1.0}, {2, 2.0}});
}

TEST(RadixSort, AllKeysEqual) {
  std::vector<Rec> v(1000, Rec{7, 0.0});
  for (std::size_t i = 0; i < v.size(); ++i) v[i].payload = static_cast<double>(i);
  expect_sorted_with_same_multiset(v);
}

TEST(RadixSort, AlreadySorted) {
  std::vector<Rec> v(500);
  for (std::size_t i = 0; i < v.size(); ++i) v[i] = {i, static_cast<double>(i)};
  expect_sorted_with_same_multiset(v);
}

TEST(RadixSort, ReverseSorted) {
  std::vector<Rec> v(500);
  for (std::size_t i = 0; i < v.size(); ++i)
    v[i] = {500 - i, static_cast<double>(i)};
  expect_sorted_with_same_multiset(v);
}

TEST(RadixSort, SingleVaryingByteIsOnePass) {
  // Keys share all bytes except byte 2 — exercises the byte-skip path.
  std::vector<Rec> v = random_records(4096, 0x0000000000FF0000ull, 3);
  for (auto& r : v) r.key |= 0xAB00000000000000ull;
  expect_sorted_with_same_multiset(v);
}

TEST(RadixSort, HighBytesVaryOnly) {
  std::vector<Rec> v = random_records(4096, 0xFF00000000000000ull, 4);
  expect_sorted_with_same_multiset(v);
}

TEST(RadixSort, DuplicateHeavy) {
  // Only 16 distinct keys over 10^4 records: compress-style input.
  std::vector<Rec> v = random_records(10000, 0xFull, 5);
  expect_sorted_with_same_multiset(v);
}

TEST(RadixSort, InsertionCutoffBoundary) {
  // Around the 48-record insertion-sort fallback threshold.
  for (std::size_t n : {46u, 47u, 48u, 49u, 50u}) {
    expect_sorted_with_same_multiset(random_records(n, ~0ull, 6 + n));
  }
}

struct SortParams {
  std::size_t n;
  std::uint64_t mask;
};

class RadixSortSweep : public ::testing::TestWithParam<SortParams> {};

TEST_P(RadixSortSweep, MatchesStdSort) {
  const auto& p = GetParam();
  std::vector<Rec> v = random_records(p.n, p.mask, 11);
  std::vector<std::uint64_t> expected(p.n);
  for (std::size_t i = 0; i < p.n; ++i) expected[i] = v[i].key;
  std::sort(expected.begin(), expected.end());

  radix_sort(v.data(), v.size(), [](const Rec& r) { return r.key; });
  for (std::size_t i = 0; i < p.n; ++i) EXPECT_EQ(v[i].key, expected[i]);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, RadixSortSweep,
    ::testing::Values(SortParams{10, ~0ull}, SortParams{1000, ~0ull},
                      SortParams{100000, ~0ull},
                      SortParams{100000, 0xFFFFFull},       // 20-bit keys
                      SortParams{100000, 0xFFFFFFFFull},    // 32-bit keys
                      SortParams{50000, 0xFFFF00000000ull}, // mid bytes only
                      SortParams{65536, 0xFFull}));         // 256 buckets

// ---- LSD sorts -------------------------------------------------------------
// The keys-only LSD sort (the key-only stream's per-bin sort) against
// std::sort, over the cases RadixSortKv runs through the key + value sort.

template <typename Key>
void expect_keys_match_std(std::vector<Key> keys) {
  std::vector<Key> expected = keys;
  std::sort(expected.begin(), expected.end());
  std::vector<Key> scratch(keys.size());
  radix_sort_lsd_keys(keys.data(), keys.size(), scratch.data());
  ASSERT_EQ(keys, expected);
}

std::vector<std::uint64_t> random_keys64(std::size_t n, std::uint64_t mask,
                                         unsigned seed) {
  std::mt19937_64 rng(seed);
  std::vector<std::uint64_t> v(n);
  for (auto& k : v) k = rng() & mask;
  return v;
}

TEST(RadixSortLsd, EmptySingleAndPair) {
  expect_keys_match_std<std::uint64_t>({});
  expect_keys_match_std<std::uint64_t>({5});
  expect_keys_match_std<std::uint64_t>({5, 2});
  expect_keys_match_std<std::uint32_t>({2, 5});
}

TEST(RadixSortLsd, AllEqualKeys) {
  expect_keys_match_std(std::vector<std::uint64_t>(257, 9));
  expect_keys_match_std(std::vector<std::uint32_t>(513, 9u));
}

TEST(RadixSortLsd, OddAndEvenPassCounts) {
  // 1-3 varying bytes: both parities of the ping-pong (odd passes start
  // in scratch, so the result still lands in the caller's array).
  expect_keys_match_std(random_keys64(5000, 0xFFull, 21));
  expect_keys_match_std(random_keys64(5000, 0xFFFFull, 22));
  expect_keys_match_std(random_keys64(5000, 0xFFFFFFull, 23));
}

TEST(RadixSortLsd, NonContiguousVaryingBytes) {
  // Bytes 0 and 4 vary, bytes in between constant: skip logic must hold.
  expect_keys_match_std(random_keys64(5000, 0x000000FF000000FFull, 24));
}

TEST(RadixSortLsd, FullWidthKeys) {
  expect_keys_match_std(random_keys64(100000, ~0ull, 25));
}

TEST(RadixSortLsd, IsStable) {
  // Equal u64 keys keep their payload order (LSD property; the wide
  // stream's sort relies on it to keep duplicate sums in expand's order).
  std::vector<std::uint64_t> keys;
  std::vector<double> vals;
  for (int i = 0; i < 1000; ++i) {
    keys.push_back(static_cast<std::uint64_t>(i % 7) << 40);
    vals.push_back(static_cast<double>(i));
  }
  std::vector<std::uint64_t> kscratch(keys.size());
  std::vector<double> vscratch(keys.size());
  radix_sort_lsd_kv(keys.data(), vals.data(), keys.size(), kscratch.data(),
                    vscratch.data());
  for (std::size_t i = 1; i < keys.size(); ++i) {
    ASSERT_LE(keys[i - 1], keys[i]) << "at " << i;
    if (keys[i - 1] == keys[i]) {
      ASSERT_LT(vals[i - 1], vals[i]) << "stability broken at " << i;
    }
  }
}

TEST(RadixSortLsd, SmallInputsSortStably) {
  // n = 0..33 spans the kv sort's insertion-sort path (n <= 32) and its
  // first radix length.  Few distinct keys, spread over two bytes, so most
  // inputs hold duplicates; the payload is the input position, so equal
  // keys must come out with ascending payloads.
  std::mt19937_64 rng(27);
  for (std::size_t n = 0; n <= 33; ++n) {
    std::vector<std::uint32_t> keys(n);
    for (auto& k : keys) {
      k = static_cast<std::uint32_t>((rng() % 3) << 16 | rng() % 4);
    }
    std::vector<std::uint32_t> expected_keys = keys;
    std::sort(expected_keys.begin(), expected_keys.end());

    std::vector<std::uint32_t> only = keys, scratch(n);
    radix_sort_lsd_keys(only.data(), n, scratch.data());
    ASSERT_EQ(only, expected_keys) << "keys-only, n = " << n;

    std::vector<double> vals(n);
    for (std::size_t i = 0; i < n; ++i) vals[i] = static_cast<double>(i);
    std::vector<double> vscratch(n);
    radix_sort_lsd_kv(keys.data(), vals.data(), n, scratch.data(),
                      vscratch.data());
    ASSERT_EQ(keys, expected_keys) << "kv, n = " << n;
    for (std::size_t i = 1; i < n; ++i) {
      if (keys[i - 1] == keys[i]) {
        ASSERT_LT(vals[i - 1], vals[i]) << "stability broken, n = " << n;
      }
    }
  }
}

TEST(RadixSortLsd, AgreesWithInPlaceVariant) {
  for (const std::uint64_t mask : {0xFFFFFull, ~0ull}) {
    std::vector<std::uint64_t> a = random_keys64(20000, mask, 26);
    std::vector<std::uint64_t> b = a;
    std::vector<std::uint64_t> scratch(a.size());
    radix_sort(a.data(), a.size(), [](std::uint64_t k) { return k; });
    radix_sort_lsd_keys(b.data(), b.size(), scratch.data());
    ASSERT_EQ(a, b);
  }
}

// ---- Key + value LSD sort (the valued streams' per-bin sort) --------------

std::vector<std::uint32_t> random_keys32(std::size_t n, std::uint32_t mask,
                                         unsigned seed) {
  std::mt19937_64 rng(seed);
  std::vector<std::uint32_t> v(n);
  for (auto& k : v) k = static_cast<std::uint32_t>(rng()) & mask;
  return v;
}

void expect_kv_matches_std(std::vector<std::uint32_t> keys) {
  const std::size_t n = keys.size();
  // Payload encodes the original position so we can verify pairing.
  std::vector<double> vals(n);
  for (std::size_t i = 0; i < n; ++i) vals[i] = static_cast<double>(i);

  std::vector<std::pair<std::uint32_t, double>> expected(n);
  for (std::size_t i = 0; i < n; ++i) expected[i] = {keys[i], vals[i]};
  std::stable_sort(expected.begin(), expected.end(),
                   [](const auto& a, const auto& b) { return a.first < b.first; });

  std::vector<std::uint32_t> kscratch(n);
  std::vector<double> vscratch(n);
  radix_sort_lsd_kv(keys.data(), vals.data(), n, kscratch.data(),
                    vscratch.data());
  for (std::size_t i = 0; i < n; ++i) {
    ASSERT_EQ(keys[i], expected[i].first) << "at " << i;
    ASSERT_EQ(vals[i], expected[i].second) << "pair broken at " << i;
  }
}

TEST(RadixSortKv, EmptySingleAndPair) {
  expect_kv_matches_std({});
  expect_kv_matches_std({5});
  expect_kv_matches_std({5, 2});
  expect_kv_matches_std({2, 5});
}

TEST(RadixSortKv, AllEqualKeys) {
  expect_kv_matches_std(std::vector<std::uint32_t>(513, 9u));
}

TEST(RadixSortKv, OddAndEvenPassCountsStayInPlaceAndStable) {
  // 1-4 varying bytes: both parities of the ping-pong (stability is
  // asserted via the position payload in expect_kv_matches_std).
  expect_kv_matches_std(random_keys32(5000, 0xFFu, 31));
  expect_kv_matches_std(random_keys32(5000, 0xFFFFu, 32));
  expect_kv_matches_std(random_keys32(5000, 0xFFFFFFu, 33));
  expect_kv_matches_std(random_keys32(5000, 0xFFFFFFFFu, 34));
}

TEST(RadixSortKv, NonContiguousVaryingBytes) {
  expect_kv_matches_std(random_keys32(5000, 0xFF0000FFu, 35));
}

TEST(RadixSortKv, NarrowTupleKeysSortRowMajor) {
  // Keys shaped like the narrow tuple stream: (local_row << 20) | col.
  std::mt19937_64 rng(36);
  std::vector<std::uint32_t> keys(20000);
  for (auto& k : keys) {
    k = (static_cast<std::uint32_t>(rng() % 1024) << 20) |
        static_cast<std::uint32_t>(rng() % (1u << 20));
  }
  expect_kv_matches_std(std::move(keys));
}

TEST(RadixSortKv, U64KeysSupported) {
  // The kv variant is key-width generic: the wide stream sorts u64 keys.
  std::mt19937_64 rng(38);
  const std::size_t n = 5000;
  std::vector<std::uint64_t> keys(n);
  for (auto& k : keys) k = rng();
  std::vector<double> vals(n);
  for (std::size_t i = 0; i < n; ++i) vals[i] = static_cast<double>(i);
  std::vector<std::uint64_t> expected = keys;
  std::sort(expected.begin(), expected.end());

  std::vector<std::uint64_t> ks(n);
  std::vector<double> vs(n);
  radix_sort_lsd_kv(keys.data(), vals.data(), n, ks.data(), vs.data());
  for (std::size_t i = 0; i < n; ++i) ASSERT_EQ(keys[i], expected[i]);
}

TEST(RadixSort, PackedRowColKeysSortLexicographically) {
  // The PB tuple ordering property: sorting by (row << 32 | col) must equal
  // sorting by (row, col) lexicographically.
  std::mt19937_64 rng(17);
  std::vector<Rec> v(20000);
  for (auto& r : v) {
    const std::uint32_t row = static_cast<std::uint32_t>(rng() % 1024);
    const std::uint32_t col = static_cast<std::uint32_t>(rng() % (1u << 20));
    r.key = (static_cast<std::uint64_t>(row) << 32) | col;
    r.payload = 0;
  }
  radix_sort(v.data(), v.size(), [](const Rec& r) { return r.key; });
  for (std::size_t i = 1; i < v.size(); ++i) {
    const auto row_prev = v[i - 1].key >> 32, row_cur = v[i].key >> 32;
    ASSERT_LE(row_prev, row_cur);
    if (row_prev == row_cur) {
      ASSERT_LE(v[i - 1].key & 0xFFFFFFFFu, v[i].key & 0xFFFFFFFFu);
    }
  }
}

}  // namespace
}  // namespace pbs
