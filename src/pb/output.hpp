// PB-SpGEMM output conversion (paper Algorithm 2, line 22: ConvertCSR).
//
// After compression each bin holds its surviving tuples sorted by
// (row, col), and no row spans two bins.  Conversion is therefore
// race-free per bin: count rows, prefix-sum into rowptr, then stream each
// bin's tuples into its rows' final positions.  pb_execute folds the COUNT
// pass into each bin's sort/compress task (the tuples are still cache-hot)
// and runs only the prefix sum and the SCATTER as a short tail, so the
// primitives below work one bin at a time.  Concurrent calls on distinct
// bins may share `rowptr` (counting into slot row+1) and the output arrays
// without atomics.
//
// This phase copies values without interpreting them, so unlike expand and
// sort/compress it needs no semiring template: one conversion serves every
// pb_execute<S> instantiation.
#pragma once

#include "pb/binning.hpp"
#include "pb/tuple.hpp"

namespace pbs::pb {

/// Counts bin `b`'s surviving rows into rowptr[row + 1] (+= per tuple).
void pb_count_bin(const Tuple* bin_tuples, nnz_t merged, nnz_t* rowptr);

/// Streams bin `b`'s sorted tuples into their final CSR positions.
/// `rowptr` must already hold absolute row starts (counts_to_rowptr done).
void pb_scatter_bin(const Tuple* bin_tuples, nnz_t merged,
                    const nnz_t* rowptr, index_t* colids, value_t* vals);

/// Narrow-format per-bin count: reads only the 4 B key array and rebuilds
/// each global row from the bin geometry (`layout`/`col_bits` must be the
/// ones the stream was expanded with — SymbolicResult::layout / col_bits).
void pb_count_bin_narrow(const narrow_key_t* bin_keys, nnz_t merged, int bin,
                         const BinLayout& layout, int col_bits,
                         nnz_t* rowptr);

/// Narrow-format per-bin scatter: global (row, col) from the bin geometry,
/// values copied straight from the SoA value array.
void pb_scatter_bin_narrow(const narrow_key_t* bin_keys,
                           const value_t* bin_vals, nnz_t merged, int bin,
                           const BinLayout& layout, int col_bits,
                           const nnz_t* rowptr, index_t* colids,
                           value_t* vals);

/// Key-only per-bin count: the stream is bare wide keys, read 8 B each.
void pb_count_bin_keyonly(const wide_key_t* bin_keys, nnz_t merged,
                          nnz_t* rowptr);

/// Key-only per-bin scatter: every surviving entry's value is synthesized
/// as `present` (a value-free semiring's present-value, 1.0 — "true" for
/// bool_or_and), since the stream carries no values to copy.  The
/// bit-identity contract with a wide run of the same value-free semiring
/// holds because the wide run's surviving values are all exactly `present`
/// too (S::add/S::mul of nonzeros is 1.0 for bool_or_and).
void pb_scatter_bin_keyonly(const wide_key_t* bin_keys, nnz_t merged,
                            const nnz_t* rowptr, index_t* colids,
                            value_t* vals, value_t present);

}  // namespace pbs::pb
