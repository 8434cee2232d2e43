#include "matrix/generate.hpp"

#include <omp.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "common/prefix_sum.hpp"

namespace pbs::mtx {

namespace {

// Columns are generated in fixed blocks so results do not depend on the
// OpenMP schedule or thread count.
constexpr index_t kColumnsPerBlock = 4096;

std::uint64_t block_seed(std::uint64_t seed, std::uint64_t block,
                         std::uint64_t salt) {
  SplitMix64 mix(seed ^ (block * 0x9E3779B97F4A7C15ull) ^ salt);
  return mix.next();
}

// Samples `want` distinct rows from [lo, hi) into out[]; small `want`
// (edge factors in the paper are <= 64) makes rejection sampling cheap.
int sample_distinct(SplitMix64& rng, index_t lo, index_t hi, int want,
                    index_t* out) {
  const auto range = static_cast<std::uint64_t>(hi - lo);
  const int take = static_cast<int>(
      std::min<std::uint64_t>(static_cast<std::uint64_t>(want), range));
  int got = 0;
  while (got < take) {
    const auto r = static_cast<index_t>(lo + rng.next_below(range));
    bool fresh = true;
    for (int i = 0; i < got; ++i) {
      if (out[i] == r) {
        fresh = false;
        break;
      }
    }
    if (fresh) out[got++] = r;
  }
  return got;
}

// Per-column degree: floor(d) plus a Bernoulli(frac(d)) extra, so the mean
// degree is exactly d.
int column_degree(SplitMix64& rng, double d) {
  const auto base = static_cast<int>(std::floor(d));
  const double frac = d - base;
  return base + (rng.next_unit() <= frac ? 1 : 0);
}

// Generator core shared by ER and banded: per block of columns, a first RNG
// pass fixes per-column degrees (so buffer sizes are exact), a second pass
// draws the rows.  `window(j, lo, hi)` defines each column's row range.
template <typename WindowFn>
CooMatrix generate_columnwise(index_t nrows, index_t ncols, double d,
                              std::uint64_t seed, std::uint64_t salt,
                              WindowFn window) {
  const index_t nblocks =
      ncols == 0 ? 0 : (ncols + kColumnsPerBlock - 1) / kColumnsPerBlock;

  struct BlockOut {
    std::vector<index_t> row, col;
    std::vector<value_t> val;
  };
  std::vector<BlockOut> blocks(static_cast<std::size_t>(nblocks));

#pragma omp parallel for schedule(dynamic, 1)
  for (index_t blk = 0; blk < nblocks; ++blk) {
    SplitMix64 rng(block_seed(seed, static_cast<std::uint64_t>(blk), salt));
    const index_t lo_col = blk * kColumnsPerBlock;
    const index_t hi_col = std::min<index_t>(ncols, lo_col + kColumnsPerBlock);
    BlockOut& out = blocks[blk];
    out.row.reserve(static_cast<std::size_t>(
        std::ceil(d * (hi_col - lo_col)) + 16));

    std::vector<index_t> scratch(static_cast<std::size_t>(
        std::max(1, static_cast<int>(std::ceil(d)) + 1)));
    for (index_t j = lo_col; j < hi_col; ++j) {
      index_t lo = 0, hi = nrows;
      window(j, lo, hi);
      const int deg = column_degree(rng, d);
      if (static_cast<std::size_t>(deg) > scratch.size())
        scratch.resize(static_cast<std::size_t>(deg));
      const int got = sample_distinct(rng, lo, hi, deg, scratch.data());
      for (int i = 0; i < got; ++i) {
        out.row.push_back(scratch[i]);
        out.col.push_back(j);
        out.val.push_back(rng.next_unit());
      }
    }
  }

  CooMatrix coo(nrows, ncols);
  nnz_t total = 0;
  for (const auto& b : blocks) total += static_cast<nnz_t>(b.row.size());
  coo.reserve(total);
  for (auto& b : blocks) {
    coo.row.insert(coo.row.end(), b.row.begin(), b.row.end());
    coo.col.insert(coo.col.end(), b.col.begin(), b.col.end());
    coo.val.insert(coo.val.end(), b.val.begin(), b.val.end());
  }
  coo.canonicalize();
  return coo;
}

}  // namespace

CooMatrix generate_er(index_t nrows, index_t ncols, double d,
                      std::uint64_t seed) {
  return generate_columnwise(nrows, ncols, d, seed, /*salt=*/0xE5,
                             [](index_t, index_t&, index_t&) {});
}

CooMatrix generate_er(const RandomScale& p, std::uint64_t seed) {
  const auto n = static_cast<index_t>(index_t{1} << p.scale);
  return generate_er(n, n, p.edge_factor, seed);
}

CooMatrix generate_banded(index_t n, double d, index_t halfwidth,
                          std::uint64_t seed) {
  return generate_columnwise(
      n, n, d, seed, /*salt=*/0xBA,
      [n, halfwidth](index_t j, index_t& lo, index_t& hi) {
        lo = std::max<index_t>(0, j - halfwidth);
        hi = std::min<index_t>(n, j + halfwidth + 1);
      });
}

CooMatrix generate_rmat(const RmatParams& p) {
  const auto n = static_cast<index_t>(index_t{1} << p.scale);
  const auto nedges = static_cast<nnz_t>(p.edge_factor * static_cast<double>(n));
  constexpr nnz_t kEdgesPerBlock = 1 << 16;
  const nnz_t nblocks = (nedges + kEdgesPerBlock - 1) / kEdgesPerBlock;

  struct BlockOut {
    std::vector<index_t> row, col;
    std::vector<value_t> val;
  };
  std::vector<BlockOut> blocks(static_cast<std::size_t>(nblocks));

  const double ab = p.a + p.b;
  const double abc = p.a + p.b + p.c;

#pragma omp parallel for schedule(dynamic, 1)
  for (nnz_t blk = 0; blk < nblocks; ++blk) {
    SplitMix64 rng(
        block_seed(p.seed, static_cast<std::uint64_t>(blk), /*salt=*/0x47));
    const nnz_t lo = blk * kEdgesPerBlock;
    const nnz_t hi = std::min(nedges, lo + kEdgesPerBlock);
    BlockOut& out = blocks[blk];
    out.row.reserve(static_cast<std::size_t>(hi - lo));

    for (nnz_t e = lo; e < hi; ++e) {
      index_t r = 0, c = 0;
      for (int level = 0; level < p.scale; ++level) {
        const double u = rng.next_unit();
        // Quadrant choice: a = top-left, b = top-right, c = bottom-left,
        // d = bottom-right.
        const int bit_r = u > ab ? 1 : 0;
        const int bit_c = (u > p.a && u <= ab) || u > abc ? 1 : 0;
        r = (r << 1) | bit_r;
        c = (c << 1) | bit_c;
      }
      out.row.push_back(r);
      out.col.push_back(c);
      out.val.push_back(rng.next_unit());
    }
  }

  CooMatrix coo(n, n);
  nnz_t total = 0;
  for (const auto& b : blocks) total += static_cast<nnz_t>(b.row.size());
  coo.reserve(total);
  for (auto& b : blocks) {
    coo.row.insert(coo.row.end(), b.row.begin(), b.row.end());
    coo.col.insert(coo.col.end(), b.col.begin(), b.col.end());
    coo.val.insert(coo.val.end(), b.val.begin(), b.val.end());
  }

  if (p.scramble_ids) {
    // Bijective bit-mix keeps ids in [0, 2^scale) while destroying the
    // quadrant-induced locality, as the Graph500 generator does.
    const std::uint64_t mask = static_cast<std::uint64_t>(n) - 1;
    auto scramble = [&](index_t v) {
      std::uint64_t x = static_cast<std::uint64_t>(v);
      x = (x * 0x9E3779B97F4A7C15ull + p.seed) & mask;
      x = (x ^ (x >> (p.scale / 2 + 1))) & mask;
      x = (x * 5 + 1) & mask;
      return static_cast<index_t>(x);
    };
    // The multiply-add step above is only bijective for odd multipliers on
    // power-of-two domains; 0x...C15 is odd and *5+1 is a Weyl step, so the
    // composition is a permutation of [0, 2^scale).
    for (auto& r : coo.row) r = scramble(r);
    for (auto& c : coo.col) c = scramble(c);
  }

  coo.canonicalize();
  return coo;
}

void make_values_exact(CooMatrix& coo) {
  for (nnz_t i = 0; i < coo.nnz(); ++i) {
    const auto h =
        static_cast<std::uint64_t>(coo.row[i]) * 0x9E3779B97F4A7C15ull +
        static_cast<std::uint64_t>(coo.col[i]) * 0xC2B2AE3D27D4EB4Full;
    coo.val[i] = static_cast<value_t>(1 + (h >> 32) % 8);
  }
}

}  // namespace pbs::mtx
