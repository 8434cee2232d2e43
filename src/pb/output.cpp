#include "pb/output.hpp"

namespace pbs::pb {

namespace {

// Inverse of the expand path's fast_local_row: rebuild the global rowid
// from (bin, local) under each policy.  The modulo shift is hoisted by
// callers so the per-tuple cost is a plain shift/or (or an indexed add).
index_t narrow_global_row(const BinLayout& layout, int mod_shift, int bin,
                          index_t local) {
  switch (layout.policy) {
    case BinPolicy::kRange:
      return (static_cast<index_t>(bin) << layout.shift) | local;
    case BinPolicy::kModulo:
      return (local << mod_shift) | static_cast<index_t>(bin);
    case BinPolicy::kAdaptive:
      return layout.bounds[static_cast<std::size_t>(bin)] + local;
  }
  return index_t{0};
}

}  // namespace

void pb_count_bin(const Tuple* bin_tuples, nnz_t merged, nnz_t* rowptr) {
  for (nnz_t i = 0; i < merged; ++i) {
    ++rowptr[static_cast<std::size_t>(key_row(bin_tuples[i].key)) + 1];
  }
}

void pb_scatter_bin(const Tuple* bin_tuples, nnz_t merged,
                    const nnz_t* rowptr, index_t* colids, value_t* vals) {
  // Within a bin tuples are (row, col)-sorted, so every row appears as one
  // contiguous run; its j-th element lands at rowptr[row] + j.
  nnz_t i = 0;
  while (i < merged) {
    const index_t row = key_row(bin_tuples[i].key);
    nnz_t dst = rowptr[row];
    while (i < merged && key_row(bin_tuples[i].key) == row) {
      colids[static_cast<std::size_t>(dst)] = key_col(bin_tuples[i].key);
      vals[static_cast<std::size_t>(dst)] = bin_tuples[i].val;
      ++dst;
      ++i;
    }
  }
}

void pb_count_bin_narrow(const narrow_key_t* bin_keys, nnz_t merged, int bin,
                         const BinLayout& layout, int col_bits,
                         nnz_t* rowptr) {
  const int mod_shift =
      layout.policy == BinPolicy::kModulo ? layout.modulo_shift() : 0;
  for (nnz_t i = 0; i < merged; ++i) {
    const index_t row = narrow_global_row(
        layout, mod_shift, bin, narrow_key_local_row(bin_keys[i], col_bits));
    ++rowptr[static_cast<std::size_t>(row) + 1];
  }
}

void pb_scatter_bin_narrow(const narrow_key_t* bin_keys,
                           const value_t* bin_vals, nnz_t merged, int bin,
                           const BinLayout& layout, int col_bits,
                           const nnz_t* rowptr, index_t* colids,
                           value_t* vals) {
  const int mod_shift =
      layout.policy == BinPolicy::kModulo ? layout.modulo_shift() : 0;
  const narrow_key_t col_mask = (narrow_key_t{1} << col_bits) - 1u;
  // Ascending narrow keys are ascending (row, col) — local_row is monotone
  // in the rowid for every policy — so rows appear as contiguous runs
  // exactly as in the wide path.
  nnz_t i = 0;
  while (i < merged) {
    const index_t local = narrow_key_local_row(bin_keys[i], col_bits);
    const index_t row = narrow_global_row(layout, mod_shift, bin, local);
    nnz_t dst = rowptr[row];
    while (i < merged && narrow_key_local_row(bin_keys[i], col_bits) == local) {
      colids[static_cast<std::size_t>(dst)] =
          static_cast<index_t>(bin_keys[i] & col_mask);
      vals[static_cast<std::size_t>(dst)] = bin_vals[i];
      ++dst;
      ++i;
    }
  }
}

void pb_count_bin_keyonly(const wide_key_t* bin_keys, nnz_t merged,
                          nnz_t* rowptr) {
  for (nnz_t i = 0; i < merged; ++i) {
    ++rowptr[static_cast<std::size_t>(key_row(bin_keys[i])) + 1];
  }
}

void pb_scatter_bin_keyonly(const wide_key_t* bin_keys, nnz_t merged,
                            const nnz_t* rowptr, index_t* colids,
                            value_t* vals, value_t present) {
  // Same contiguous-row-run walk as the wide scatter; the value store is a
  // constant, the format's whole point.
  nnz_t i = 0;
  while (i < merged) {
    const index_t row = key_row(bin_keys[i]);
    nnz_t dst = rowptr[row];
    while (i < merged && key_row(bin_keys[i]) == row) {
      colids[static_cast<std::size_t>(dst)] = key_col(bin_keys[i]);
      vals[static_cast<std::size_t>(dst)] = present;
      ++dst;
      ++i;
    }
  }
}

}  // namespace pbs::pb
