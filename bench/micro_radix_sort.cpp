// Microbenchmark (google-benchmark) — the byte-skipping radix sorts against
// std::sort, across the key distributions PB-SpGEMM's bins actually see:
// the in-place MSD sort over 16 B {key, value} records, and the SoA LSD
// sort the narrow tuple stream runs per bin.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdint>
#include <random>
#include <vector>

#include "common/radix_sort.hpp"

namespace {

/// A 16 B array-of-structs record: a (row << 32) | col key and a value.
struct Tuple {
  std::uint64_t key;
  double val;
};

std::vector<Tuple> make_tuples(std::size_t n, int row_bits, int col_bits,
                               unsigned seed) {
  std::mt19937_64 rng(seed);
  std::vector<Tuple> v(n);
  const std::uint64_t row_mask = (1ull << row_bits) - 1;
  const std::uint64_t col_mask = (1ull << col_bits) - 1;
  for (auto& t : v) {
    t.key = ((rng() & row_mask) << 32) | (rng() & col_mask);
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

// Paired key/value SoA sort — what BinOps::sort runs per narrow bin.
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
