// Microbenchmark (google-benchmark) — the in-place byte-skipping radix sort
// at the heart of PB-SpGEMM's sort phase, against std::sort, across the key
// distributions the bins actually see.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdint>
#include <random>
#include <vector>

#include "common/radix_sort.hpp"
#include "pb/tuple.hpp"

namespace {

using pbs::pb::Tuple;

std::vector<Tuple> make_tuples(std::size_t n, int row_bits, int col_bits,
                               unsigned seed) {
  std::mt19937_64 rng(seed);
  std::vector<Tuple> v(n);
  const std::uint64_t row_mask = (1ull << row_bits) - 1;
  const std::uint64_t col_mask = (1ull << col_bits) - 1;
  for (auto& t : v) {
    t.key = pbs::pb::make_key(static_cast<pbs::index_t>(rng() & row_mask),
                              static_cast<pbs::index_t>(rng() & col_mask));
    t.val = 1.0;
  }
  return v;
}

// row_bits models the bin geometry: 10 bits ~ 1K rows per bin (the paper's
// "squeeze keys to 4 bytes" case), 20 bits ~ unbinned keys.
void BM_RadixSortBin(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const int row_bits = static_cast<int>(state.range(1));
  const std::vector<Tuple> original = make_tuples(n, row_bits, 20, 7);
  std::vector<Tuple> work(n);
  for (auto _ : state) {
    state.PauseTiming();
    work = original;
    state.ResumeTiming();
    pbs::radix_sort(work.data(), work.size(),
                    [](const Tuple& t) { return t.key; });
    benchmark::DoNotOptimize(work.data());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n * sizeof(Tuple)));
}
BENCHMARK(BM_RadixSortBin)
    ->ArgsProduct({{1 << 12, 1 << 14, 1 << 16}, {10, 20}});

// The LSD double-buffer variant PB-SpGEMM's sort phase actually uses.
void BM_RadixSortLsdBin(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const int row_bits = static_cast<int>(state.range(1));
  const std::vector<Tuple> original = make_tuples(n, row_bits, 20, 7);
  std::vector<Tuple> work(n), scratch(n);
  for (auto _ : state) {
    state.PauseTiming();
    work = original;
    state.ResumeTiming();
    pbs::radix_sort_lsd(work.data(), work.size(), scratch.data(),
                        [](const Tuple& t) { return t.key; });
    benchmark::DoNotOptimize(work.data());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n * sizeof(Tuple)));
}
BENCHMARK(BM_RadixSortLsdBin)
    ->ArgsProduct({{1 << 12, 1 << 14, 1 << 16}, {10, 20}});

void BM_StdSortBin(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const int row_bits = static_cast<int>(state.range(1));
  const std::vector<Tuple> original = make_tuples(n, row_bits, 20, 7);
  std::vector<Tuple> work(n);
  for (auto _ : state) {
    state.PauseTiming();
    work = original;
    state.ResumeTiming();
    std::sort(work.begin(), work.end(),
              [](const Tuple& a, const Tuple& b) { return a.key < b.key; });
    benchmark::DoNotOptimize(work.data());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n * sizeof(Tuple)));
}
BENCHMARK(BM_StdSortBin)->ArgsProduct({{1 << 12, 1 << 14, 1 << 16}, {10, 20}});

// ---- SoA narrow-format variants -------------------------------------------
// The per-bin sort of the narrow tuple stream (pb/tuple.hpp): u32 keys
// shaped like (local_row << col_bits) | col with a separate f64 value
// array.  Byte throughput is reported over the 12 B/tuple the SoA stream
// moves, so GB/s is comparable with the 16 B AoS benches above — the
// per-tuple speedup is what the pipeline's sort phase gains.

std::vector<std::uint32_t> make_narrow_keys(std::size_t n, int row_bits,
                                            int col_bits, unsigned seed) {
  std::mt19937_64 rng(seed);
  std::vector<std::uint32_t> keys(n);
  const std::uint64_t row_mask = (1ull << row_bits) - 1;
  const std::uint64_t col_mask = (1ull << col_bits) - 1;
  for (auto& k : keys) {
    k = (static_cast<std::uint32_t>(rng() & row_mask) << col_bits) |
        static_cast<std::uint32_t>(rng() & col_mask);
  }
  return keys;
}

// Paired key/value SoA sort — what NarrowBinOps::sort runs per bin.
void BM_RadixSortLsdNarrowKv(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const int row_bits = static_cast<int>(state.range(1));
  const std::vector<std::uint32_t> original =
      make_narrow_keys(n, row_bits, 20, 7);
  std::vector<std::uint32_t> keys(n), kscratch(n);
  std::vector<double> vals(n, 1.0), vscratch(n);
  for (auto _ : state) {
    state.PauseTiming();
    keys = original;
    state.ResumeTiming();
    pbs::radix_sort_lsd_kv(keys.data(), vals.data(), n, kscratch.data(),
                           vscratch.data());
    benchmark::DoNotOptimize(keys.data());
    benchmark::DoNotOptimize(vals.data());
  }
  state.SetBytesProcessed(
      static_cast<std::int64_t>(state.iterations()) *
      static_cast<std::int64_t>(n * (sizeof(std::uint32_t) + sizeof(double))));
}
BENCHMARK(BM_RadixSortLsdNarrowKv)
    ->ArgsProduct({{1 << 12, 1 << 14, 1 << 16}, {10, 12}});

// Key + payload-index sort: scatter passes move 8 B/record; the caller
// gathers the payload once afterwards (modeled here so the comparison is
// end-to-end fair).
void BM_RadixSortLsdNarrowIndex(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const int row_bits = static_cast<int>(state.range(1));
  const std::vector<std::uint32_t> original =
      make_narrow_keys(n, row_bits, 20, 7);
  std::vector<std::uint32_t> keys(n), idx(n), kscratch(n), iscratch(n);
  std::vector<double> vals(n, 1.0), gathered(n);
  for (auto _ : state) {
    state.PauseTiming();
    keys = original;
    for (std::size_t i = 0; i < n; ++i) idx[i] = static_cast<std::uint32_t>(i);
    state.ResumeTiming();
    pbs::radix_sort_lsd_index(keys.data(), idx.data(), n, kscratch.data(),
                              iscratch.data());
    for (std::size_t i = 0; i < n; ++i) gathered[i] = vals[idx[i]];
    benchmark::DoNotOptimize(keys.data());
    benchmark::DoNotOptimize(gathered.data());
  }
  state.SetBytesProcessed(
      static_cast<std::int64_t>(state.iterations()) *
      static_cast<std::int64_t>(n * (sizeof(std::uint32_t) + sizeof(double))));
}
BENCHMARK(BM_RadixSortLsdNarrowIndex)
    ->ArgsProduct({{1 << 12, 1 << 14, 1 << 16}, {10, 12}});

// Duplicate-heavy bins (high compression factor): radix recursion bottoms
// out fast, the compress pass dominates.
void BM_RadixSortDuplicateHeavy(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const std::vector<Tuple> original = make_tuples(n, 6, 6, 9);  // ~4K keys
  std::vector<Tuple> work(n);
  for (auto _ : state) {
    state.PauseTiming();
    work = original;
    state.ResumeTiming();
    pbs::radix_sort(work.data(), work.size(),
                    [](const Tuple& t) { return t.key; });
    benchmark::DoNotOptimize(work.data());
  }
}
BENCHMARK(BM_RadixSortDuplicateHeavy)->Arg(1 << 14)->Arg(1 << 16);

}  // namespace

BENCHMARK_MAIN();
