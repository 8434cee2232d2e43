// PB-SpGEMM output conversion (paper Algorithm 2, line 22: ConvertCSR).
//
// After compression each bin holds its surviving tuples sorted by
// (row, col), and no row spans two bins.  Conversion is therefore
// race-free per bin: count rows, prefix-sum into rowptr, then stream each
// bin's tuples into its rows' final positions.  pb_execute folds the COUNT
// pass into each bin's sort/compress task (the tuples are still cache-hot)
// and runs only the prefix sum and the SCATTER as a short tail, so the
// primitives below work one bin at a time, on any tuple format: they read
// the bin through BinTuples (pb/binning.hpp), which rebuilds each global
// row from the bin geometry.  The view is taken by value so its pointers
// and codec stay in registers across the output stores.  Concurrent calls
// on distinct bins may share `rowptr` (counting into slot row+1) and the
// output arrays without atomics.
//
// This phase copies values without interpreting them — a key-only bin
// stores kPresentValue for every entry — so unlike expand and
// sort/compress it needs no semiring template.
#pragma once

#include "pb/binning.hpp"
#include "pb/tuple.hpp"

namespace pbs::pb {

/// Counts one bin's `merged` surviving tuples into rowptr[row + 1].
template <TupleFormat F>
void pb_count_bin(BinTuples<F> t, nnz_t merged, nnz_t* rowptr) {
  for (nnz_t i = 0; i < merged; ++i) {
    ++rowptr[static_cast<std::size_t>(t.row(i)) + 1];
  }
}

/// Streams one bin's sorted tuples into their final CSR positions.
/// `rowptr` must already hold absolute row starts (counts_to_rowptr done).
/// Ascending keys are ascending (row, col), so every row is one contiguous
/// run; its j-th element lands at rowptr[row] + j.  Key-only entries store
/// kPresentValue: the bit-identity contract with a wide run of the same
/// value-free semiring holds because the wide run's surviving values are
/// all exactly that value too (S::add/S::mul of nonzeros is 1.0 for
/// bool_or_and).
template <TupleFormat F>
void pb_scatter_bin(BinTuples<F> t, nnz_t merged, const nnz_t* rowptr,
                    index_t* colids, value_t* vals) {
  nnz_t i = 0;
  while (i < merged) {
    const index_t local = t.local_row(i);
    auto dst = static_cast<std::size_t>(rowptr[t.first + local]);
    while (i < merged && t.local_row(i) == local) {
      colids[dst] = t.col(i);
      vals[dst] = t.val(i);
      ++dst;
      ++i;
    }
  }
}

}  // namespace pbs::pb
