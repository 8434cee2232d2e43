#include "pb/expand.hpp"

#include <gtest/gtest.h>

#include <algorithm>
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

// Every product tuple in the order a one-thread expand emits them: columns
// of A ascending, then A(:,i)'s rows, then B(i,:)'s columns.  A key-only
// stream carries no values, so its tuples read kPresentValue.
std::vector<Entry> column_order_tuples(const Operands& ops, bool values) {
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
  return out;
}

// Brute-force expansion: every product tuple, sorted.
std::vector<Entry> brute_tuples(const Operands& ops, bool values) {
  std::vector<Entry> out = column_order_tuples(ops, values);
  std::sort(out.begin(), out.end());
  return out;
}

// The symbolic phase for format F, planned at the current team size (which
// sets the chunk count).
template <TupleFormat F>
SymbolicResult plan(const Operands& ops, const PbConfig& cfg) {
  PbConfig fcfg = cfg;
  fcfg.format = F == TupleFormat::kWide     ? FormatPolicy::kWide
                : F == TupleFormat::kNarrow ? FormatPolicy::kNarrow
                                            : FormatPolicy::kKeyOnly;
  fcfg.value_free = F == TupleFormat::kKeyOnly;
  const SymbolicResult sym = pb_symbolic(ops.a, ops.b, fcfg);
  EXPECT_EQ(sym.format, F);
  return sym;
}

template <TupleFormat F>
struct Expanded {
  std::vector<Entry> tuples;  ///< decoded, in stream order
  std::vector<int> bins;      ///< the bin each tuple was found in
  nnz_t flushes = 0;
  int largest_flush = 0;
  AlignedBuffer<typename StreamSpan<F>::Key> keys;  ///< the raw stream
  AlignedBuffer<value_t> vals;
};

// Runs the team-callable expand for `sym` the way pb_execute does — every
// thread of one parallel region takes chunks — then decodes every bin's
// filled prefix through its BinTuples view.  Every slice must be written
// to exactly its planned size.
template <TupleFormat F>
Expanded<F> expand(const Operands& ops, const SymbolicResult& sym,
                   const PbConfig& cfg) {
  const auto len = static_cast<std::size_t>(sym.bin_offsets.back());
  Expanded<F> e;
  e.keys = AlignedBuffer<typename StreamSpan<F>::Key>(len);
  e.vals = AlignedBuffer<value_t>(has_values(F) ? len : 0);
  const StreamSpan<F> out{e.keys.data(),
                          has_values(F) ? e.vals.data() : nullptr};

  std::vector<nnz_t> written(sym.slice_fill.size(), -1);
#pragma omp parallel
  {
    const detail::ExpandCounts mine = detail::expand_team<F, PlusTimes>(
        ops.a, ops.b, sym, cfg, out, written.data());
#pragma omp critical
    {
      e.flushes += mine.flushes;
      e.largest_flush = std::max(e.largest_flush, mine.largest_flush);
      EXPECT_FALSE(mine.stale);
    }
  }
  EXPECT_EQ(written, sym.slice_fill);
  const auto nbins = static_cast<std::size_t>(sym.layout.nbins);
  for (std::size_t bin = 0; bin < nbins; ++bin) {
    const auto ibin = static_cast<int>(bin);
    const BinTuples<F> t(out, sym.bin_offsets[bin], sym.layout, ibin,
                         sym.col_bits);
    for (nnz_t i = 0; i < sym.bin_fill[bin]; ++i) {
      e.tuples.emplace_back(t.row(i), t.col(i), t.val(i));
      e.bins.push_back(ibin);
    }
  }
  return e;
}

// Flushes a plan takes at local-bin capacity `cap`: a slice with n > 0
// tuples whose start sits s tuples past a lane boundary fills its first
// local bin from slot s, so it flushes ceil((s + n) / cap) times.
nnz_t planned_flushes(const SymbolicResult& sym, int cap) {
  const nnz_t lane = lane_tuples(sym.format);
  nnz_t flushes = 0;
  for (std::size_t s = 0; s < sym.slice_fill.size(); ++s) {
    const nnz_t n = sym.slice_fill[s];
    if (n == 0) continue;
    flushes += (sym.slice_offsets[s] % lane + n + cap - 1) / cap;
  }
  return flushes;
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
  for_each_format([&]<TupleFormat F>() {
    // Same multiset of (row, col, value) as brute force.  Only the filled
    // prefix of each (padded) bin region holds tuples.
    Expanded<F> e = expand<F>(ops, plan<F>(ops, cfg), cfg);
    std::sort(e.tuples.begin(), e.tuples.end());
    EXPECT_EQ(e.tuples, brute_tuples(ops, has_values(F))) << to_string(F);
  });
}

TEST(Expand, TuplesLandInTheirBins) {
  const Operands ops = er_operands(500, 5.0, 2);
  PbConfig cfg;
  cfg.nbins = 16;
  for_each_format([&]<TupleFormat F>() {
    const SymbolicResult sym = plan<F>(ops, cfg);
    const Expanded<F> e = expand<F>(ops, sym, cfg);
    for (std::size_t i = 0; i < e.tuples.size(); ++i) {
      ASSERT_EQ(sym.layout.binid(std::get<0>(e.tuples[i])), e.bins[i])
          << to_string(F) << ": tuple in wrong bin";
    }
  });
}

TEST(Expand, TinyLocalBinsStillCorrect) {
  // A local bin narrower than one tuple rounds up to one lane (a cache
  // line of keys): the smallest full flush.  A slice's first local bin is
  // phased by the slice start's offset from a lane boundary, so every
  // slice flushes ceil((offset + n) / lane) times.
  const Operands ops = er_operands(200, 4.0, 3);
  PbConfig cfg;
  cfg.nbins = 4;
  cfg.local_bin_bytes = 1;
  const ThreadCountGuard lanes(1);
  for_each_format([&]<TupleFormat F>() {
    const SymbolicResult sym = plan<F>(ops, cfg);
    Expanded<F> e = expand<F>(ops, sym, cfg);
    const int lane = lane_tuples(F);
    EXPECT_EQ(e.flushes, planned_flushes(sym, lane)) << to_string(F);
    EXPECT_EQ(e.largest_flush, lane) << to_string(F);
    std::sort(e.tuples.begin(), e.tuples.end());
    EXPECT_EQ(e.tuples, brute_tuples(ops, has_values(F))) << to_string(F);
  });
}

TEST(Expand, WideLocalBinsFlushRarely) {
  // Planned at one lane, so the chunk count (and with it the number of
  // slices, each of which drains once) does not grow with the machine.
  const Operands ops = er_operands(200, 4.0, 3);
  PbConfig cfg;
  cfg.nbins = 4;
  cfg.local_bin_bytes = 4096;
  for_each_format([&]<TupleFormat F>() {
    SymbolicResult sym;
    {
      const ThreadCountGuard lanes(1);
      sym = plan<F>(ops, cfg);
    }
    const Expanded<F> e = expand<F>(ops, sym, cfg);
    const int lane = lane_tuples(F);
    const int cap = 4096 / static_cast<int>(bytes_per_tuple(F)) / lane * lane;
    EXPECT_EQ(e.flushes, planned_flushes(sym, cap)) << to_string(F);
    EXPECT_LT(e.flushes, sym.flop / 16) << to_string(F);
    // No flush exceeds the lane-rounded local-bin capacity.
    EXPECT_LE(e.largest_flush, cap) << to_string(F);
  });
}

TEST(Expand, BinOrderIsColumnOrderAtAnyChunkCount) {
  // Plans built at one lane and at the full team get different chunk
  // counts; either way every bin holds its tuples in the order a
  // one-thread expand emits them, so the unsorted streams are identical.
  const Operands ops = er_operands(400, 6.0, 4);
  PbConfig cfg;
  cfg.nbins = 8;
  for_each_format([&]<TupleFormat F>() {
    SymbolicResult one;
    {
      const ThreadCountGuard lanes(1);
      one = plan<F>(ops, cfg);
    }
    const SymbolicResult team = plan<F>(ops, cfg);
    if (max_threads() > 1) EXPECT_NE(one.nchunks(), team.nchunks());
    ASSERT_EQ(one.bin_offsets, team.bin_offsets);
    const Expanded<F> e1 = expand<F>(ops, one, cfg);
    const Expanded<F> et = expand<F>(ops, team, cfg);
    std::vector<std::vector<Entry>> order(
        static_cast<std::size_t>(one.layout.nbins));
    for (const Entry& e : column_order_tuples(ops, has_values(F))) {
      order[static_cast<std::size_t>(one.layout.binid(std::get<0>(e)))]
          .push_back(e);
    }
    std::size_t at = 0;
    for (std::size_t bin = 0; bin < order.size(); ++bin) {
      ASSERT_EQ(static_cast<nnz_t>(order[bin].size()), one.bin_fill[bin]);
      const std::vector<Entry> got(
          e1.tuples.begin() + static_cast<std::ptrdiff_t>(at),
          e1.tuples.begin() +
              static_cast<std::ptrdiff_t>(at + order[bin].size()));
      EXPECT_EQ(got, order[bin]) << to_string(F) << " bin " << bin;
      at += order[bin].size();
      const auto off = static_cast<std::size_t>(one.bin_offsets[bin]);
      const auto n = static_cast<std::size_t>(one.bin_fill[bin]);
      EXPECT_TRUE(std::equal(e1.keys.data() + off, e1.keys.data() + off + n,
                             et.keys.data() + off))
          << to_string(F) << " bin " << bin << " keys";
      if constexpr (has_values(F)) {
        EXPECT_TRUE(std::equal(e1.vals.data() + off,
                               e1.vals.data() + off + n,
                               et.vals.data() + off))
            << to_string(F) << " bin " << bin << " values";
      }
    }
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
    Expanded<F> e = expand<F>(ops, plan<F>(ops, cfg), cfg);
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

TEST(Expand, StalePlanMissesInsteadOfWritingPastItsSlices) {
  // A plan is checked, not trusted.  Operands with the plan's dims but a
  // denser structure overrun some slice, whose flush is dropped; sparser
  // ones leave some unmasked slice short.  Either way a thread reports its
  // chunk stale, and no write leaves the stream the plan sized (which a
  // sanitizer build would catch).
  const Operands planned = er_operands(300, 4.0, 5);
  PbConfig cfg;
  cfg.nbins = 8;
  for (const double d : {8.0, 2.0}) {
    const Operands other = er_operands(300, d, 6);
    for_each_format([&]<TupleFormat F>() {
      const SymbolicResult sym = plan<F>(planned, cfg);
      const auto len = static_cast<std::size_t>(sym.bin_offsets.back());
      AlignedBuffer<typename StreamSpan<F>::Key> keys(len);
      AlignedBuffer<value_t> vals(has_values(F) ? len : 0);
      const StreamSpan<F> out{keys.data(),
                              has_values(F) ? vals.data() : nullptr};
      std::vector<nnz_t> written(sym.slice_fill.size(), 0);
      bool stale = false;
#pragma omp parallel reduction(|| : stale)
      stale = detail::expand_team<F, PlusTimes>(other.a, other.b, sym, cfg,
                                                out, written.data())
                  .stale;
      EXPECT_TRUE(stale) << to_string(F) << ", density " << d;
    });
  }
}

}  // namespace
}  // namespace pbs::pb
