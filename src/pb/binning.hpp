// Bin layouts: the propagation-blocking partition of output rows.
//
// A layout answers one question — which global bin does output row r's
// tuples propagate to? — for the three policies of pb_config.hpp.  The
// range layout is the default: bins own contiguous, power-of-two-aligned
// row ranges, so `binid` is a shift, bins are globally row-ordered (CSR
// conversion becomes a streaming copy) and the upper row bits inside a bin
// are constant (the radix sort's byte-skipping then reproduces the paper's
// "4-byte key, four passes" behaviour automatically).
#pragma once

#include <algorithm>
#include <span>
#include <vector>

#include "common/types.hpp"
#include "pb/pb_config.hpp"
#include "pb/tuple.hpp"

namespace pbs::pb {

struct BinLayout {
  BinPolicy policy = BinPolicy::kRange;
  int nbins = 1;
  int shift = 0;            ///< range: binid = row >> shift
  std::uint32_t mask = 0;   ///< modulo: binid = row & mask (nbins power of 2)
  std::vector<index_t> bounds;  ///< adaptive: bin b = rows [bounds[b], bounds[b+1])

  [[nodiscard]] int binid(index_t row) const;

  /// Width of a bin's contiguous row range.  Only range layouts have one
  /// (modulo bins are strided, adaptive bins vary), so every other policy
  /// reports 0.
  [[nodiscard]] index_t rows_per_bin() const {
    return policy == BinPolicy::kRange ? index_t{1} << shift : index_t{0};
  }

  /// log2(nbins) for the modulo policy (nbins is a power of two there).
  [[nodiscard]] int modulo_shift() const {
    return ceil_log2(static_cast<std::uint64_t>(mask) + 1);
  }

  /// Bin-relative row id: a bijection [0, bin_width) <-> the rows of
  /// `bin`, monotone in the rowid so sorting by it preserves row order
  /// within the bin.  This is the row part of every tuple key
  /// (pb/tuple.hpp): range bins strip the constant high bits, modulo bins
  /// strip the constant low (residue) bits, adaptive bins rebase on their
  /// first row.
  [[nodiscard]] index_t local_row(int bin, index_t row) const {
    switch (policy) {
      case BinPolicy::kRange:
        // Unsigned mask arithmetic: shift may be as large as 31.
        return static_cast<index_t>(
            static_cast<std::uint32_t>(row) &
            ((std::uint32_t{1} << shift) - 1u));
      case BinPolicy::kModulo:
        return row >> modulo_shift();
      case BinPolicy::kAdaptive:
        return row - bounds[static_cast<std::size_t>(bin)];
    }
    return 0;
  }

  /// Inverse of local_row, in affine form per bin: first + (local << shift).
  /// Range and adaptive bins are contiguous (shift 0); a modulo bin's rows
  /// stride by nbins = 2^shift.  The per-tuple decoders hold a bin's
  /// RowMap, so the policy switch and the modulo shift are paid once per
  /// bin.
  struct RowMap {
    index_t first = 0;
    int shift = 0;
    [[nodiscard]] index_t operator()(index_t local) const {
      return first + (local << shift);
    }
  };

  [[nodiscard]] RowMap row_map(int bin) const {
    switch (policy) {
      case BinPolicy::kRange:
        return {static_cast<index_t>(bin) << shift, 0};
      case BinPolicy::kModulo:
        return {static_cast<index_t>(bin), modulo_shift()};
      case BinPolicy::kAdaptive:
        return {bounds[static_cast<std::size_t>(bin)], 0};
    }
    return {};
  }

  [[nodiscard]] index_t global_row(int bin, index_t local) const {
    return row_map(bin)(local);
  }

  /// Bits needed to hold any bin's local_row values, given the matrix row
  /// count — the row half of the narrow-format fit test.
  [[nodiscard]] int local_row_bits(index_t nrows) const;

  /// Visits every row `bin` owns, in ascending global-row order — the same
  /// order the bin's sorted tuples carry their rows in (local_row is
  /// monotone in the rowid for every policy), which is what lets the
  /// accumulate builders merge a bin's tuple stream against C's rows in
  /// one forward sweep.  `nrows` bounds the walk for the range layout
  /// (whose top bin may extend past the matrix) and the modulo layout
  /// (whose bins stride the whole row space).
  template <typename Fn>
  void for_each_row(int bin, index_t nrows, Fn&& fn) const {
    switch (policy) {
      case BinPolicy::kRange: {
        const index_t lo = static_cast<index_t>(bin) << shift;
        const index_t hi =
            std::min<index_t>(nrows, lo + (index_t{1} << shift));
        for (index_t r = lo; r < hi; ++r) fn(r);
        return;
      }
      case BinPolicy::kModulo: {
        const auto stride = static_cast<index_t>(mask) + 1;
        for (index_t r = static_cast<index_t>(bin); r < nrows; r += stride) {
          fn(r);
        }
        return;
      }
      case BinPolicy::kAdaptive: {
        const index_t lo = bounds[static_cast<std::size_t>(bin)];
        const index_t hi =
            std::min<index_t>(nrows, bounds[static_cast<std::size_t>(bin) + 1]);
        for (index_t r = lo; r < hi; ++r) fn(r);
        return;
      }
    }
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
  BinLayout::RowMap rows;

  BinTuples(const StreamSpan<F>& s, nnz_t off, const BinLayout& layout,
            int bin, int col_bits)
      : keys(s.keys + off),
        vals(kHasValues ? s.vals + off : nullptr),
        codec{col_bits},
        rows(layout.row_map(bin)) {}

  [[nodiscard]] index_t local_row(nnz_t i) const {
    return codec.local_row(keys[i]);
  }
  [[nodiscard]] index_t row(nnz_t i) const { return rows(local_row(i)); }
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

/// Range layout covering `nrows` rows with ~`nbins_target` bins.
BinLayout make_range_layout(index_t nrows, int nbins_target);

/// Modulo layout with next_pow2(nbins_target) bins.
BinLayout make_modulo_layout(index_t nrows, int nbins_target);

/// Adaptive layout: greedy row-range partition where each bin's flop stays
/// below ~flop_total/nbins_target (heavy single rows get their own bin).
BinLayout make_adaptive_layout(std::span<const nnz_t> row_flops,
                               int nbins_target);

}  // namespace pbs::pb
