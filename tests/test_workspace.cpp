#include <gtest/gtest.h>

#include "common/aligned_buffer.hpp"
#include "pb/pb_spgemm.hpp"
#include "spgemm/spgemm.hpp"
#include "test_util.hpp"

namespace pbs::pb {
namespace {

constexpr auto kWide = TupleFormat::kWide;
constexpr auto kNarrow = TupleFormat::kNarrow;
constexpr auto kKeyOnly = TupleFormat::kKeyOnly;

TEST(Workspace, GrowsGeometricallyAndReuses) {
  PbWorkspace ws;
  EXPECT_EQ(ws.capacity(), 0u);  // capacity() reports pooled bytes
  const StreamSpan<kWide> s1 = ws.acquire<kWide>(100);
  ASSERT_NE(s1.keys, nullptr);
  EXPECT_GE(ws.capacity(), 100u * bytes_per_tuple(kWide));
  const std::size_t cap1 = ws.capacity();
  // Smaller request: same buffer, no growth.
  const StreamSpan<kWide> s2 = ws.acquire<kWide>(50);
  EXPECT_EQ(s1.keys, s2.keys);
  EXPECT_EQ(ws.capacity(), cap1);
  // Larger request: grows at least geometrically.
  ws.acquire<kWide>(cap1 / bytes_per_tuple(kWide) + 1);
  EXPECT_GE(ws.capacity(), cap1 + cap1 / 2);
}

TEST(Workspace, NarrowStreamSharesThePoolWithWide) {
  PbWorkspace ws;
  // A wide run sizes the pool; a narrow request for the same tuple count
  // needs 12 B + key padding per tuple, so it is served without growth.
  (void)ws.acquire<kWide>(1024);
  const std::size_t cap = ws.capacity();
  const StreamSpan<kNarrow> ns = ws.acquire<kNarrow>(1024);
  ASSERT_NE(ns.keys, nullptr);
  ASSERT_NE(ns.vals, nullptr);
  EXPECT_EQ(ws.capacity(), cap);
  const PbWorkspace::Stats s = ws.stats();
  EXPECT_EQ(s.acquires, 2u);
  EXPECT_EQ(s.allocations, 1u);
  EXPECT_EQ(s.reuses, 1u);
  // In every valued stream the value array starts on its own cache line
  // after the key span — also for tuple counts that leave the keys short
  // of a whole line.
  const auto check_values_start_a_line = [&]<TupleFormat F>(std::size_t n) {
    const StreamSpan<F> st = ws.acquire<F>(n);
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(st.vals) % kCacheLineBytes, 0u)
        << to_string(F) << " n=" << n;
    EXPECT_GE(reinterpret_cast<std::byte*>(st.vals) -
                  reinterpret_cast<std::byte*>(st.keys),
              static_cast<std::ptrdiff_t>(n * key_bytes(F)))
        << to_string(F) << " n=" << n;
  };
  for (const std::size_t n : {1024u, 1000u, 7u}) {
    check_values_start_a_line.operator()<kWide>(n);
    check_values_start_a_line.operator()<kNarrow>(n);
  }
}

TEST(Workspace, KeyOnlyStreamSharesThePoolWithoutValueBytes) {
  // Mixed-format reuse: a key-only acquire following a wide lease must ask
  // for n*8 bytes only — no value bytes charged to a format that has no
  // value array — so it reuses the wide pool and never grows it.
  PbWorkspace ws;
  (void)ws.acquire<kWide>(1024);  // 1024 * 16 B
  const StreamSpan<kKeyOnly> keys = ws.acquire<kKeyOnly>(2048);  // same bytes
  ASSERT_NE(keys.keys, nullptr);
  EXPECT_EQ(keys.vals, nullptr);
  EXPECT_EQ(ws.capacity(), 1024u * bytes_per_tuple(kWide));
  PbWorkspace::Stats s = ws.stats();
  EXPECT_EQ(s.acquires, 2u);
  EXPECT_EQ(s.allocations, 1u);
  EXPECT_EQ(s.reuses, 1u);

  // And the other direction: growing key-only first, then wide for the
  // same tuple count doubles the byte need and must allocate.
  PbWorkspace ws2;
  (void)ws2.acquire<kKeyOnly>(1024);
  const std::size_t key_cap = ws2.capacity();
  EXPECT_GE(key_cap, 1024u * bytes_per_tuple(kKeyOnly));
  EXPECT_LT(key_cap, 1024u * bytes_per_tuple(kWide));  // no value reserve
  (void)ws2.acquire<kWide>(1024);
  s = ws2.stats();
  EXPECT_EQ(s.allocations, 2u);
}

TEST(Workspace, MixedFormatMultipliesReuseOnePool) {
  // One workspace serving wide, key-only and narrow plans back to back:
  // after the largest stream is paid for, every later acquire is a reuse.
  PbWorkspace ws;
  const mtx::CsrMatrix m = testutil::exact_er(300, 300, 5.0, 94);
  const SpGemmProblem p = SpGemmProblem::square(m);

  PbConfig wide_cfg;
  wide_cfg.format = FormatPolicy::kWide;
  const PbResult wide = testutil::pb_plan_execute(p.a_csc, p.b_csr, wide_cfg,
                                                  ws, BoolOrAnd::name);
  const std::size_t cap = ws.capacity();
  ws.reset_stats();

  const PbResult keyonly =
      testutil::pb_plan_execute(p.a_csc, p.b_csr, PbConfig{}, ws,
                                BoolOrAnd::name);
  EXPECT_EQ(keyonly.stats.format, TupleFormat::kKeyOnly);
  PbConfig narrow_cfg;
  narrow_cfg.format = FormatPolicy::kNarrow;
  const PbResult narrow =
      testutil::pb_plan_execute(p.a_csc, p.b_csr, narrow_cfg, ws,
                                BoolOrAnd::name);
  EXPECT_EQ(narrow.stats.format, TupleFormat::kNarrow);

  EXPECT_EQ(ws.capacity(), cap);  // 8 and 12 B streams fit the 16 B one
  const PbWorkspace::Stats s = ws.stats();
  EXPECT_EQ(s.allocations, 0u);
  EXPECT_GE(s.reuses, 2u);
  EXPECT_TRUE(equal_exact(wide.c, keyonly.c));
  EXPECT_TRUE(equal_exact(wide.c, narrow.c));
}

TEST(Workspace, KeyOnlyScratchSlotsPoolPerThread) {
  PbWorkspace ws;
  ws.prepare_scratch(2);
  const StreamSpan<kKeyOnly> s0 = ws.acquire_scratch<kKeyOnly>(0, 64);
  ASSERT_NE(s0.keys, nullptr);
  EXPECT_EQ(s0.vals, nullptr);  // no value scratch for a value-free stream
  EXPECT_EQ(ws.acquire_scratch<kKeyOnly>(0, 32).keys, s0.keys);  // reuse
  const StreamSpan<kNarrow> s1 = ws.acquire_scratch<kNarrow>(1, 64);
  ASSERT_NE(s1.keys, nullptr);
  ASSERT_NE(s1.vals, nullptr);
  const PbWorkspace::Stats s = ws.stats();
  EXPECT_EQ(s.scratch_allocations, 2u);
  EXPECT_EQ(s.scratch_reuses, 1u);
}

TEST(Workspace, StatsCountGrowShrinkGrowSequences) {
  PbWorkspace ws;
  ws.acquire<kWide>(1000);  // grow
  ws.acquire<kWide>(10);    // shrink: served from pool
  ws.acquire<kWide>(1000);  // back to peak: still served from pool
  PbWorkspace::Stats s = ws.stats();
  EXPECT_EQ(s.acquires, 3u);
  EXPECT_EQ(s.allocations, 1u);
  EXPECT_EQ(s.reuses, 2u);
  EXPECT_EQ(s.peak_request, 1000u);

  ws.acquire<kWide>(5000);  // beyond capacity: second allocation
  s = ws.stats();
  EXPECT_EQ(s.allocations, 2u);
  EXPECT_EQ(s.peak_request, 5000u);

  ws.reset_stats();
  s = ws.stats();
  EXPECT_EQ(s.acquires, 0u);
  EXPECT_EQ(s.allocations, 0u);
  EXPECT_EQ(ws.capacity(), 5000u * bytes_per_tuple(kWide));  // retained
}

TEST(Workspace, ScratchSlotsPoolPerThread) {
  PbWorkspace ws;
  ws.prepare_scratch(2);
  const StreamSpan<kWide> s0 = ws.acquire_scratch<kWide>(0, 64);
  ASSERT_NE(s0.keys, nullptr);
  EXPECT_EQ(ws.acquire_scratch<kWide>(0, 32).keys, s0.keys);  // shrink reuses
  const StreamSpan<kWide> s1 = ws.acquire_scratch<kWide>(1, 16);
  EXPECT_NE(s0.keys, s1.keys);  // slots are independent
  const PbWorkspace::Stats s = ws.stats();
  EXPECT_EQ(s.scratch_allocations, 2u);
  EXPECT_EQ(s.scratch_reuses, 1u);
}

TEST(Workspace, SharedAcrossDifferentProblems) {
  PbWorkspace ws;
  const mtx::CsrMatrix big = testutil::exact_er(400, 400, 6.0, 91);
  const mtx::CsrMatrix small = testutil::exact_er(100, 100, 3.0, 92);
  const SpGemmProblem pb_big = SpGemmProblem::square(big);
  const SpGemmProblem pb_small = SpGemmProblem::square(small);

  const PbResult r1 =
      testutil::pb_plan_execute(pb_big.a_csc, pb_big.b_csr, PbConfig{}, ws);
  const std::size_t cap_after_big = ws.capacity();
  const PbResult r2 =
      testutil::pb_plan_execute(pb_small.a_csc, pb_small.b_csr, PbConfig{}, ws);
  const PbResult r3 =
      testutil::pb_plan_execute(pb_big.a_csc, pb_big.b_csr, PbConfig{}, ws);

  EXPECT_EQ(ws.capacity(), cap_after_big);  // big buffer retained
  EXPECT_TRUE(equal_exact(r1.c, r3.c));     // reuse does not corrupt results
  EXPECT_TRUE(equal_exact(r2.c, reference_spgemm(pb_small)));
}

TEST(Workspace, RepeatedCallsAreDeterministic) {
  PbWorkspace ws;
  const mtx::CsrMatrix a = testutil::exact_rmat(8, 6.0, 93);
  const SpGemmProblem p = SpGemmProblem::square(a);
  const PbResult first =
      testutil::pb_plan_execute(p.a_csc, p.b_csr, PbConfig{}, ws);
  for (int i = 0; i < 3; ++i) {
    const PbResult again =
        testutil::pb_plan_execute(p.a_csc, p.b_csr, PbConfig{}, ws);
    EXPECT_TRUE(equal_exact(first.c, again.c)) << "iteration " << i;
  }
}

TEST(AlignedBuffer, CacheLineAlignment) {
  AlignedBuffer<double> b(100);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(b.data()) % kCacheLineBytes, 0u);
  EXPECT_EQ(b.size(), 100u);
}

TEST(AlignedBuffer, MoveTransfersOwnership) {
  AlignedBuffer<int> a(10);
  a[0] = 42;
  int* const ptr = a.data();
  AlignedBuffer<int> b(std::move(a));
  EXPECT_EQ(b.data(), ptr);
  EXPECT_EQ(b[0], 42);
  EXPECT_EQ(a.data(), nullptr);
  EXPECT_TRUE(a.empty());

  AlignedBuffer<int> c;
  c = std::move(b);
  EXPECT_EQ(c.data(), ptr);
  EXPECT_EQ(b.data(), nullptr);
}

TEST(AlignedBuffer, EmptyAndReallocate) {
  AlignedBuffer<int> b;
  EXPECT_TRUE(b.empty());
  b.allocate(5);
  EXPECT_EQ(b.size(), 5u);
  b.allocate(0);
  EXPECT_TRUE(b.empty());
  EXPECT_EQ(b.data(), nullptr);
}

TEST(AlignedBuffer, RangeForIteration) {
  AlignedBuffer<int> b(4);
  for (std::size_t i = 0; i < 4; ++i) b[i] = static_cast<int>(i);
  int sum = 0;
  for (const int v : b) sum += v;
  EXPECT_EQ(sum, 6);
}

}  // namespace
}  // namespace pbs::pb
