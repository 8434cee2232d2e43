#include "pb/expand.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <tuple>
#include <vector>

#include "common/aligned_buffer.hpp"
#include "common/parallel.hpp"
#include "matrix/convert.hpp"
#include "matrix/generate.hpp"
#include "spgemm/semiring_ops.hpp"

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

using Entry = std::tuple<index_t, index_t, value_t>;  // (row, col, value)

// Brute-force expansion: every product tuple, sorted.  A key-only stream
// carries no values, so its tuples read kPresentValue.
std::vector<Entry> brute_tuples(const Operands& ops, bool values) {
  std::vector<Entry> out;
  for (index_t i = 0; i < ops.a.ncols; ++i) {
    const auto rows = ops.a.col_rows(i);
    const auto avals = ops.a.col_vals(i);
    for (std::size_t ai = 0; ai < rows.size(); ++ai) {
      for (nnz_t bi = ops.b.rowptr[i];
           bi < ops.b.rowptr[static_cast<std::size_t>(i) + 1]; ++bi) {
        out.emplace_back(rows[ai], ops.b.colids[bi],
                         values ? avals[ai] * ops.b.vals[bi] : kPresentValue);
      }
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

// Records the largest flush, to check it against the local-bin capacity.
struct MaxFlushSink {
  std::atomic<int>* largest = nullptr;
  void flushed(std::size_t /*bin*/, int count) {
    int seen = largest->load();
    while (count > seen && !largest->compare_exchange_weak(seen, count)) {
    }
  }
  void skipped(std::size_t /*bin*/, nnz_t /*count*/) {}
};

struct Expanded {
  std::vector<Entry> tuples;  ///< decoded, in stream order
  std::vector<int> bins;      ///< the bin each tuple was found in
  nnz_t flushes = 0;
  int largest_flush = 0;
};

// Runs the team-callable expand for format F the way pb_execute does —
// every thread of one parallel region, write cursors seeded with the bin
// region origins — then decodes every bin's filled prefix through its
// BinTuples view.  Every bin's cursor must land exactly on its fill mark.
template <TupleFormat F>
Expanded expand(const Operands& ops, const PbConfig& cfg,
                SymbolicResult* sym_out = nullptr) {
  PbConfig fcfg = cfg;
  fcfg.format = F == TupleFormat::kWide     ? FormatPolicy::kWide
                : F == TupleFormat::kNarrow ? FormatPolicy::kNarrow
                                            : FormatPolicy::kKeyOnly;
  fcfg.value_free = F == TupleFormat::kKeyOnly;
  const SymbolicResult sym = pb_symbolic(ops.a, ops.b, fcfg);
  EXPECT_EQ(sym.format, F);
  const auto len = static_cast<std::size_t>(sym.bin_offsets.back());
  AlignedBuffer<typename StreamSpan<F>::Key> keys(len);
  AlignedBuffer<value_t> vals(has_values(F) ? len : 0);
  const StreamSpan<F> out{keys.data(), has_values(F) ? vals.data() : nullptr};

  const auto nbins = static_cast<std::size_t>(sym.layout.nbins);
  std::vector<std::atomic<nnz_t>> cursor(nbins);
  for (std::size_t bin = 0; bin < nbins; ++bin) {
    cursor[bin].store(sym.bin_offsets[bin]);
  }
  std::atomic<int> largest{0};
  Expanded e;
  nnz_t flushes = 0;
#pragma omp parallel reduction(+ : flushes)
  {
    MaxFlushSink sink{&largest};
    flushes += detail::expand_team<F, PlusTimes>(ops.a, ops.b, sym, fcfg, out,
                                                 cursor.data(), sink);
  }
  e.flushes = flushes;
  e.largest_flush = largest.load();
  for (std::size_t bin = 0; bin < nbins; ++bin) {
    EXPECT_EQ(cursor[bin].load(), sym.bin_offsets[bin] + sym.bin_fill[bin])
        << "bin " << bin;
    const auto ibin = static_cast<int>(bin);
    const BinTuples<F> t(out, sym.bin_offsets[bin], sym.layout, ibin,
                         sym.col_bits);
    for (nnz_t i = 0; i < sym.bin_fill[bin]; ++i) {
      e.tuples.emplace_back(t.row(i), t.col(i), t.val(i));
      e.bins.push_back(ibin);
    }
  }
  if (sym_out != nullptr) *sym_out = sym;
  return e;
}

// Runs `fn.template operator()<F>()` once per tuple format.
template <typename Fn>
void for_each_format(Fn&& fn) {
  fn.template operator()<TupleFormat::kWide>();
  fn.template operator()<TupleFormat::kNarrow>();
  fn.template operator()<TupleFormat::kKeyOnly>();
}

TEST(Expand, ProducesExactTupleMultiset) {
  const Operands ops = er_operands(400, 4.0, 1);
  PbConfig cfg;
  cfg.nbins = 8;
  cfg.validate = true;
  for_each_format([&]<TupleFormat F>() {
    // Same multiset of (row, col, value) as brute force.  Only the filled
    // prefix of each (padded) bin region holds tuples.
    Expanded e = expand<F>(ops, cfg);
    std::sort(e.tuples.begin(), e.tuples.end());
    EXPECT_EQ(e.tuples, brute_tuples(ops, has_values(F))) << to_string(F);
  });
}

TEST(Expand, TuplesLandInTheirBins) {
  const Operands ops = er_operands(500, 5.0, 2);
  PbConfig cfg;
  cfg.nbins = 16;
  for_each_format([&]<TupleFormat F>() {
    SymbolicResult sym;
    const Expanded e = expand<F>(ops, cfg, &sym);
    for (std::size_t i = 0; i < e.tuples.size(); ++i) {
      ASSERT_EQ(sym.layout.binid(std::get<0>(e.tuples[i])), e.bins[i])
          << to_string(F) << ": tuple in wrong bin";
    }
  });
}

TEST(Expand, TinyLocalBinsStillCorrect) {
  // A local bin narrower than one tuple rounds up to one lane (a cache
  // line of keys): the smallest full flush.  At one lane a bin flushes
  // each time its lane fills, plus once for the drained remainder.
  const Operands ops = er_operands(200, 4.0, 3);
  PbConfig cfg;
  cfg.nbins = 4;
  cfg.local_bin_bytes = 1;
  cfg.validate = true;
  const ThreadCountGuard lanes(1);
  for_each_format([&]<TupleFormat F>() {
    SymbolicResult sym;
    Expanded e = expand<F>(ops, cfg, &sym);
    const int lane = lane_tuples(F);
    nnz_t expected = 0;
    for (const nnz_t fill : sym.bin_fill) expected += (fill + lane - 1) / lane;
    EXPECT_EQ(e.flushes, expected) << to_string(F);
    EXPECT_EQ(e.largest_flush, lane) << to_string(F);
    std::sort(e.tuples.begin(), e.tuples.end());
    EXPECT_EQ(e.tuples, brute_tuples(ops, has_values(F))) << to_string(F);
  });
}

TEST(Expand, WideLocalBinsFlushRarely) {
  const Operands ops = er_operands(200, 4.0, 3);
  PbConfig cfg;
  cfg.nbins = 4;
  cfg.local_bin_bytes = 4096;
  for_each_format([&]<TupleFormat F>() {
    SymbolicResult sym;
    const Expanded e = expand<F>(ops, cfg, &sym);
    EXPECT_LT(e.flushes, sym.flop / 16) << to_string(F);
    // No flush exceeds the lane-rounded local-bin capacity.
    const int lane = lane_tuples(F);
    EXPECT_LE(e.largest_flush,
              4096 / static_cast<int>(bytes_per_tuple(F)) / lane * lane)
        << to_string(F);
  });
}

TEST(Expand, ValueProductsAreExact) {
  // Integer-valued inputs: each expanded tuple must be the exact product.
  mtx::CooMatrix acoo(4, 4), bcoo(4, 4);
  acoo.add(1, 0, 3.0);
  acoo.add(2, 0, 5.0);
  bcoo.add(0, 1, 7.0);
  bcoo.add(0, 3, 11.0);
  acoo.canonicalize();
  bcoo.canonicalize();
  const Operands ops{mtx::csr_to_csc(mtx::coo_to_csr(acoo)),
                     mtx::coo_to_csr(bcoo)};
  PbConfig cfg;
  cfg.nbins = 2;
  for_each_format([&]<TupleFormat F>() {
    Expanded e = expand<F>(ops, cfg);
    ASSERT_EQ(e.tuples.size(), 4u);
    std::sort(e.tuples.begin(), e.tuples.end());
    const auto v = [](value_t x) { return has_values(F) ? x : kPresentValue; };
    const std::vector<Entry> expected{{1, 1, v(21.0)},
                                      {1, 3, v(33.0)},
                                      {2, 1, v(35.0)},
                                      {2, 3, v(55.0)}};
    EXPECT_EQ(e.tuples, expected) << to_string(F);
  });
}

}  // namespace
}  // namespace pbs::pb
