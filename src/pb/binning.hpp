// Bin layout: the propagation-blocking partition of output rows.
//
// A layout answers one question — which global bin does output row r's
// tuples propagate to?  Bins own contiguous, power-of-two-aligned row
// ranges (the paper's Fig. 4), so `binid` is a shift, bins are globally
// row-ordered (CSR conversion becomes a streaming copy) and the upper row
// bits inside a bin are constant (the radix sort's byte-skipping then
// reproduces the paper's "4-byte key, four passes" behaviour
// automatically).
#pragma once

#include <algorithm>
#include <cstddef>

#include "common/types.hpp"
#include "pb/tuple.hpp"

namespace pbs::pb {

/// Widest bin make_range_layout builds: 2^30 rows, so `shift`, every
/// bin's first row and rows_per_bin() fit index_t for any row count.
inline constexpr int kMaxBinShift = 30;

struct BinLayout {
  int nbins = 1;
  int shift = 0;  ///< bin = row >> shift; every bin spans 2^shift rows

  [[nodiscard]] int binid(index_t row) const {
    return static_cast<int>(row >> shift);
  }

  [[nodiscard]] index_t rows_per_bin() const { return index_t{1} << shift; }

  [[nodiscard]] index_t first_row(int bin) const {
    return static_cast<index_t>(bin) << shift;
  }

  /// Bin-relative row id: the low `shift` bits of the rowid, monotone in
  /// the rowid, so sorting by it preserves row order within the bin.  This
  /// is the row part of every tuple key (pb/tuple.hpp).
  [[nodiscard]] index_t local_row(index_t row) const {
    return row & (rows_per_bin() - 1);
  }

  [[nodiscard]] index_t global_row(int bin, index_t local) const {
    return first_row(bin) + local;
  }

  /// Bits needed to hold any bin's local_row values — the row half of the
  /// narrow-format fit test.
  [[nodiscard]] int local_row_bits() const { return shift; }

  /// Visits every row `bin` owns, in ascending global-row order — the same
  /// order the bin's sorted tuples carry their rows in, which is what lets
  /// the accumulate builders merge a bin's tuple stream against C's rows in
  /// one forward sweep.  `nrows` bounds the top bin, which may extend past
  /// the matrix.
  template <typename Fn>
  void for_each_row(int bin, index_t nrows, Fn&& fn) const {
    const index_t lo = first_row(bin);
    const index_t hi = lo + std::min<index_t>(nrows - lo, rows_per_bin());
    for (index_t r = lo; r < hi; ++r) fn(r);
  }
};

/// One bin of a tuple stream, decoded: the view every per-bin stage after
/// expand works on — the mask filter and post-op (sort_compress.hpp), the
/// row count and scatter (output.hpp) and the accumulate merge
/// (output_accum.hpp).  Indices are bin-relative; key-only bins read
/// kPresentValue as every value.
template <TupleFormat F>
struct BinTuples {
  using Key = typename StreamTraits<F>::Key;
  static constexpr bool kHasValues = StreamTraits<F>::kHasValues;

  Key* keys = nullptr;
  value_t* vals = nullptr;
  KeyCodec<Key> codec;
  index_t first = 0;  ///< the bin's first global row

  BinTuples(const StreamSpan<F>& s, nnz_t off, const BinLayout& layout,
            int bin, int col_bits)
      : keys(s.keys + off),
        vals(kHasValues ? s.vals + off : nullptr),
        codec{col_bits},
        first(layout.first_row(bin)) {}

  [[nodiscard]] index_t local_row(nnz_t i) const {
    return codec.local_row(keys[i]);
  }
  [[nodiscard]] index_t row(nnz_t i) const { return first + local_row(i); }
  [[nodiscard]] index_t col(nnz_t i) const { return codec.col(keys[i]); }
  [[nodiscard]] value_t val(nnz_t i) const {
    if constexpr (kHasValues) {
      return vals[i];
    } else {
      (void)i;
      return kPresentValue;
    }
  }
  void move(nnz_t src, nnz_t dst) const {
    keys[dst] = keys[src];
    if constexpr (kHasValues) vals[dst] = vals[src];
  }
};

/// The paper's bin-count rule (Algorithm 3 line 6): enough bins that one
/// bin's tuples occupy at most half of L2 during in-cache sort/compress.
int auto_nbins(nnz_t flop, std::size_t l2_bytes);

/// Layout covering `nrows` rows with ~`nbins_target` bins: the bin width
/// is the smallest power of two >= ceil(nrows / nbins_target), capped at
/// 2^kMaxBinShift rows.
BinLayout make_range_layout(index_t nrows, int nbins_target);

}  // namespace pbs::pb
