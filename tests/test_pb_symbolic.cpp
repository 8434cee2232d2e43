#include "pb/symbolic.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>

#include "common/cache_info.hpp"
#include "matrix/convert.hpp"
#include "matrix/generate.hpp"
#include "matrix/mstats.hpp"

namespace pbs::pb {
namespace {

struct Operands {
  mtx::CscMatrix a;
  mtx::CsrMatrix b;
};

Operands er_operands(index_t n, double d, std::uint64_t seed) {
  const mtx::CsrMatrix a = mtx::coo_to_csr(mtx::generate_er(n, n, d, seed));
  const mtx::CsrMatrix b =
      mtx::coo_to_csr(mtx::generate_er(n, n, d, seed + 1000));
  return {mtx::csr_to_csc(a), b};
}

TEST(PbSymbolic, FlopMatchesIndependentCount) {
  const Operands ops = er_operands(512, 5.0, 1);
  const SymbolicResult sym = pb_symbolic(ops.a, ops.b, PbConfig{});
  EXPECT_EQ(sym.flop, mtx::count_flops(ops.a, ops.b));
}

TEST(PbSymbolic, BinHomeIsAContiguousPartitionOverDetectedNodes) {
  // bin_home maps every bin to the NUMA node whose memory should back it
  // (PbWorkspace::place_bins first-touches accordingly).  On any machine
  // it must be a valid contiguous non-decreasing partition spanning
  // exactly numa_nodes nodes; on a single-node machine it is all zeros.
  const Operands ops = er_operands(1024, 6.0, 7);
  const SymbolicResult sym = pb_symbolic(ops.a, ops.b, PbConfig{});
  ASSERT_EQ(sym.bin_home.size(),
            static_cast<std::size_t>(sym.layout.nbins));
  ASSERT_GE(sym.numa_nodes, 1);
  int max_node = 0;
  for (std::size_t i = 0; i < sym.bin_home.size(); ++i) {
    ASSERT_GE(sym.bin_home[i], 0);
    ASSERT_LT(sym.bin_home[i], sym.numa_nodes);
    if (i > 0) ASSERT_GE(sym.bin_home[i], sym.bin_home[i - 1]);  // contiguous
    max_node = std::max(max_node, sym.bin_home[i]);
  }
  EXPECT_EQ(max_node + 1, sym.numa_nodes);
}

TEST(PbSymbolic, BinFillsPartitionFlopAndRegionsAlign) {
  for (const FormatPolicy format :
       {FormatPolicy::kWide, FormatPolicy::kNarrow, FormatPolicy::kKeyOnly}) {
    const Operands ops = er_operands(700, 4.0, 2);
    PbConfig cfg;
    cfg.nbins = 16;
    cfg.format = format;
    cfg.value_free = format == FormatPolicy::kKeyOnly;
    const SymbolicResult sym = pb_symbolic(ops.a, ops.b, cfg);
    EXPECT_EQ(to_string(sym.format), std::string(to_string(format)));
    ASSERT_EQ(sym.bin_offsets.size(),
              static_cast<std::size_t>(sym.layout.nbins) + 1);
    ASSERT_EQ(sym.bin_fill.size(), static_cast<std::size_t>(sym.layout.nbins));
    EXPECT_EQ(sym.bin_offsets.front(), 0);

    // Region starts are 64-byte aligned on every array: whole lanes of
    // one key line each — 16 tuples narrow (16 x 4 B keys), 8 wide and
    // key-only (8 x 8 B keys) — and so whole value lines too.
    const nnz_t pad = lane_tuples(sym.format);
    EXPECT_EQ(pad * static_cast<nnz_t>(key_bytes(sym.format)), 64);
    nnz_t total_fill = 0;
    for (int bin = 0; bin < sym.layout.nbins; ++bin) {
      const auto ubin = static_cast<std::size_t>(bin);
      const nnz_t region = sym.bin_offsets[ubin + 1] - sym.bin_offsets[ubin];
      EXPECT_EQ(sym.bin_offsets[ubin] % pad, 0);
      EXPECT_GE(region, sym.bin_fill[ubin]);
      EXPECT_LT(region - sym.bin_fill[ubin], pad);
      total_fill += sym.bin_fill[ubin];
    }
    EXPECT_EQ(total_fill, sym.flop);
    EXPECT_GE(sym.bin_offsets.back(), sym.flop);
  }
}

TEST(PbSymbolic, HistogramMatchesBruteForce) {
  const Operands ops = er_operands(300, 4.0, 3);
  PbConfig cfg;
  cfg.nbins = 8;
  const SymbolicResult sym = pb_symbolic(ops.a, ops.b, cfg);

  // The chunks partition A's columns, at most one column each at least.
  const int nchunks = sym.nchunks();
  ASSERT_GE(nchunks, 1);
  ASSERT_LE(nchunks, ops.a.ncols);
  EXPECT_EQ(sym.chunk_cols.front(), 0);
  EXPECT_EQ(sym.chunk_cols.back(), ops.a.ncols);
  EXPECT_TRUE(std::is_sorted(sym.chunk_cols.begin(), sym.chunk_cols.end()));

  // Brute force: per tuple, find its chunk and bin.  Each chunk holds
  // about flop / nchunks: no more than that plus one column's flop.
  const auto nbins = static_cast<std::size_t>(sym.layout.nbins);
  std::vector<nnz_t> expected(nbins, 0);
  std::vector<nnz_t> slices(static_cast<std::size_t>(nchunks) * nbins, 0);
  nnz_t max_col = 0;
  for (int c = 0; c < nchunks; ++c) {
    nnz_t chunk_flop = 0;
    for (index_t i = sym.chunk_cols[static_cast<std::size_t>(c)];
         i < sym.chunk_cols[static_cast<std::size_t>(c) + 1]; ++i) {
      max_col = std::max(max_col, ops.a.col_nnz(i) * ops.b.row_nnz(i));
      chunk_flop += ops.a.col_nnz(i) * ops.b.row_nnz(i);
      for (const index_t r : ops.a.col_rows(i)) {
        const auto bin = static_cast<std::size_t>(sym.layout.binid(r));
        expected[bin] += ops.b.row_nnz(i);
        slices[sym.slice(c, static_cast<int>(bin))] += ops.b.row_nnz(i);
      }
    }
    EXPECT_LE(chunk_flop, sym.flop / nchunks + max_col) << "chunk " << c;
  }
  for (int bin = 0; bin < sym.layout.nbins; ++bin) {
    EXPECT_EQ(sym.bin_fill[static_cast<std::size_t>(bin)],
              expected[static_cast<std::size_t>(bin)])
        << "bin " << bin;
  }
  EXPECT_EQ(sym.slice_fill, slices);

  // A bin's slices tile its filled prefix in chunk order.
  for (int bin = 0; bin < sym.layout.nbins; ++bin) {
    nnz_t at = sym.bin_offsets[static_cast<std::size_t>(bin)];
    for (int c = 0; c < nchunks; ++c) {
      EXPECT_EQ(sym.slice_offsets[sym.slice(c, bin)], at)
          << "chunk " << c << " bin " << bin;
      at += sym.slice_fill[sym.slice(c, bin)];
    }
    EXPECT_EQ(at, sym.bin_offsets[static_cast<std::size_t>(bin)] +
                      sym.bin_fill[static_cast<std::size_t>(bin)]);
  }
}

TEST(PbSymbolic, AutoNbinsRespectsL2Override) {
  // nbins = 0 applies the paper's L2 rule at the detected L2 size; the
  // same product under a smaller L2 is cut into more bins.
  const Operands ops = er_operands(2048, 8.0, 4);
  const SymbolicResult sym = pb_symbolic(ops.a, ops.b, PbConfig{});
  const BinLayout detected = make_range_layout(
      ops.a.nrows, auto_nbins(sym.flop, cache_info().l2_bytes));
  EXPECT_EQ(sym.layout.nbins, detected.nbins);
  EXPECT_EQ(sym.layout.shift, detected.shift);
  const BinLayout small_l2 =
      make_range_layout(ops.a.nrows, auto_nbins(sym.flop, 64 * 1024));
  const BinLayout big_l2 =
      make_range_layout(ops.a.nrows, auto_nbins(sym.flop, 16 * 1024 * 1024));
  EXPECT_GT(small_l2.nbins, big_l2.nbins);
}

TEST(PbSymbolic, DimensionMismatchThrows) {
  const mtx::CsrMatrix a = mtx::coo_to_csr(mtx::generate_er(10, 20, 2.0, 5));
  const mtx::CsrMatrix b = mtx::coo_to_csr(mtx::generate_er(30, 10, 2.0, 6));
  EXPECT_THROW(pb_symbolic(mtx::csr_to_csc(a), b, PbConfig{}),
               std::invalid_argument);
}

TEST(PbSymbolic, EmptyInputsGiveZeroFlop) {
  mtx::CooMatrix empty(64, 64);
  const mtx::CsrMatrix e = mtx::coo_to_csr(empty);
  const SymbolicResult sym = pb_symbolic(mtx::csr_to_csc(e), e, PbConfig{});
  EXPECT_EQ(sym.flop, 0);
  EXPECT_EQ(sym.bin_offsets.back(), 0);
  EXPECT_GE(sym.layout.nbins, 1);
}

TEST(PbSymbolic, RectangularOperands) {
  const mtx::CsrMatrix a = mtx::coo_to_csr(mtx::generate_er(100, 50, 3.0, 7));
  const mtx::CsrMatrix b = mtx::coo_to_csr(mtx::generate_er(50, 200, 3.0, 8));
  const SymbolicResult sym = pb_symbolic(mtx::csr_to_csc(a), b, PbConfig{});
  EXPECT_EQ(sym.flop, mtx::count_flops(a, b));
  nnz_t total_fill = 0;
  for (const nnz_t f : sym.bin_fill) total_fill += f;
  EXPECT_EQ(total_fill, sym.flop);
}

}  // namespace
}  // namespace pbs::pb
