// Fused-accumulate CSR conversion: C = C_old ⊞ (A ⊗ B) assembled directly
// from the compressed bins.
//
// The descriptor's accumulate used to run as a post-pass
// semiring_ewise_add over the union pattern — a complete second read of
// the freshly built product plus a read of C_old and a write of the
// union, all at memory bandwidth.  Here the union merge happens *inside*
// the conversion phase instead: each bin's surviving tuples are already
// (row, col)-sorted and no row spans two bins, so one forward sweep per
// bin merges the bin's tuple stream against C_old's rows
// (BinLayout::for_each_row visits them in exactly the stream's row order)
// while both are streaming through cache once.  The product CSR is never
// materialized.
//
// Bit-identity contract with the post-pass: both-present entries combine
// as S::add(c_old_value, product_value) — the same argument order
// semiring_ewise_add uses — and single-side entries are copied, so the
// fused result is bitwise equal to semiring_ewise_add(c_old, C) for the
// product C that the unaccumulated run would have returned.
//
// pb_execute runs these builders in place of its convert tail (the
// per-bin folded row count is skipped when accumulating — the union count
// needs C_old's rows, which these builders walk anyway).
#pragma once

#include <span>

#include "common/cancel.hpp"
#include "common/prefix_sum.hpp"
#include "matrix/csr.hpp"
#include "pb/binning.hpp"
#include "pb/tuple.hpp"

namespace pbs::pb {

namespace detail {

/// Counts the union pattern of one bin's surviving product tuples and
/// C_old's rows into rowptr[row + 1].  `row_of`/`col_of` decode the bin's
/// tuples by bin-relative index; the tuple walk and for_each_row agree on
/// row order, so a single forward cursor serves the whole bin.  Race-free
/// across bins for the same reason pb_count_bin is: no row spans two.
template <typename RowOf, typename ColOf>
void accum_count_bin(nnz_t merged, const mtx::CsrMatrix& c_old,
                     const BinLayout& layout, int bin, index_t nrows,
                     RowOf row_of, ColOf col_of, nnz_t* rowptr) {
  nnz_t t = 0;
  layout.for_each_row(bin, nrows, [&](index_t r) {
    const auto ccols = c_old.row_cols(r);
    std::size_t ci = 0;
    nnz_t cnt = 0;
    while (t < merged && row_of(t) == r) {
      const index_t pc = col_of(t);
      while (ci < ccols.size() && ccols[ci] < pc) {
        ++ci;
        ++cnt;
      }
      if (ci < ccols.size() && ccols[ci] == pc) ++ci;
      ++cnt;
      ++t;
    }
    cnt += static_cast<nnz_t>(ccols.size() - ci);
    if (cnt != 0) rowptr[r + 1] += cnt;
  });
}

/// Streams one bin's union merge into its rows' final CSR positions.
/// `rowptr` must already hold absolute row starts.  Both-present entries
/// combine with S::add(c_old, product) — semiring_ewise_add's argument
/// order — single-side entries are copied.
template <typename S, typename RowOf, typename ColOf, typename ValOf>
void accum_scatter_bin(nnz_t merged, const mtx::CsrMatrix& c_old,
                       const BinLayout& layout, int bin, index_t nrows,
                       RowOf row_of, ColOf col_of, ValOf val_of,
                       const nnz_t* rowptr, index_t* colids, value_t* vals) {
  nnz_t t = 0;
  layout.for_each_row(bin, nrows, [&](index_t r) {
    const auto ccols = c_old.row_cols(r);
    const auto cvals = c_old.row_vals(r);
    std::size_t ci = 0;
    nnz_t pos = rowptr[r];
    while (t < merged && row_of(t) == r) {
      const index_t pc = col_of(t);
      while (ci < ccols.size() && ccols[ci] < pc) {
        colids[pos] = ccols[ci];
        vals[pos] = cvals[ci];
        ++pos;
        ++ci;
      }
      colids[pos] = pc;
      if (ci < ccols.size() && ccols[ci] == pc) {
        vals[pos] = S::add(cvals[ci], val_of(t));
        ++ci;
      } else {
        vals[pos] = val_of(t);
      }
      ++pos;
      ++t;
    }
    for (; ci < ccols.size(); ++ci) {
      colids[pos] = ccols[ci];
      vals[pos] = cvals[ci];
      ++pos;
    }
  });
}

/// The two-sweep batch driver shared by the three formats: union count per
/// bin, prefix sum, union scatter per bin.  `Adapter` decodes the stream —
/// row(bin, i) / col(i) / val(i) with absolute stream indices.
/// Cancellation is polled per bin; cancelled bins are skipped (the partial
/// CSR is about to be discarded) and the typed error raises after each
/// join.
template <typename S, typename Adapter>
mtx::CsrMatrix build_csr_accum(const Adapter& ad,
                               std::span<const nnz_t> offsets,
                               std::span<const nnz_t> merged,
                               const mtx::CsrMatrix& c_old,
                               const BinLayout& layout, index_t nrows,
                               index_t ncols, const CancelToken* cancel) {
  mtx::CsrMatrix c(nrows, ncols);
  const int nbins = layout.nbins;

#pragma omp parallel for schedule(dynamic, 1)
  for (int bin = 0; bin < nbins; ++bin) {
    if (stop_requested(cancel)) continue;
    const auto ubin = static_cast<std::size_t>(bin);
    const nnz_t off = offsets[ubin];
    accum_count_bin(
        merged[ubin], c_old, layout, bin, nrows,
        [&](nnz_t i) { return ad.row(bin, off + i); },
        [&](nnz_t i) { return ad.col(off + i); }, c.rowptr.data());
  }
  throw_if_stopped(cancel);

  const nnz_t total =
      counts_to_rowptr(c.rowptr.data(), static_cast<std::size_t>(nrows));
  c.colids.resize(static_cast<std::size_t>(total));
  c.vals.resize(static_cast<std::size_t>(total));

#pragma omp parallel for schedule(dynamic, 1)
  for (int bin = 0; bin < nbins; ++bin) {
    if (stop_requested(cancel)) continue;
    const auto ubin = static_cast<std::size_t>(bin);
    const nnz_t off = offsets[ubin];
    accum_scatter_bin<S>(
        merged[ubin], c_old, layout, bin, nrows,
        [&](nnz_t i) { return ad.row(bin, off + i); },
        [&](nnz_t i) { return ad.col(off + i); },
        [&](nnz_t i) { return ad.val(off + i); }, c.rowptr.data(),
        c.colids.data(), c.vals.data());
  }
  throw_if_stopped(cancel);
  return c;
}

struct WideAccumAdapter {
  const Tuple* tuples = nullptr;
  index_t row(int /*bin*/, nnz_t i) const { return key_row(tuples[i].key); }
  index_t col(nnz_t i) const { return key_col(tuples[i].key); }
  value_t val(nnz_t i) const { return tuples[i].val; }
};

struct NarrowAccumAdapter {
  const narrow_key_t* keys = nullptr;
  const value_t* vals = nullptr;
  const BinLayout* layout = nullptr;
  int col_bits = 0;
  index_t row(int bin, nnz_t i) const {
    return layout->global_row(bin, narrow_key_local_row(keys[i], col_bits));
  }
  index_t col(nnz_t i) const { return narrow_key_col(keys[i], col_bits); }
  value_t val(nnz_t i) const { return vals[i]; }
};

struct KeyOnlyAccumAdapter {
  const wide_key_t* keys = nullptr;
  value_t present = 1.0;
  index_t row(int /*bin*/, nnz_t i) const { return key_row(keys[i]); }
  index_t col(nnz_t i) const { return key_col(keys[i]); }
  value_t val(nnz_t /*i*/) const { return present; }
};

}  // namespace detail

/// Wide-format fused-accumulate conversion (see the file comment for the
/// contract all three builders share).
template <typename S>
mtx::CsrMatrix pb_build_csr_accum(const Tuple* tuples,
                                  std::span<const nnz_t> offsets,
                                  std::span<const nnz_t> merged,
                                  const mtx::CsrMatrix& c_old,
                                  const BinLayout& layout, index_t nrows,
                                  index_t ncols,
                                  const CancelToken* cancel = nullptr) {
  return detail::build_csr_accum<S>(detail::WideAccumAdapter{tuples}, offsets,
                                    merged, c_old, layout, nrows, ncols,
                                    cancel);
}

/// Narrow-format fused-accumulate conversion.
template <typename S>
mtx::CsrMatrix pb_build_csr_accum_narrow(
    const narrow_key_t* keys, const value_t* vals,
    std::span<const nnz_t> offsets, std::span<const nnz_t> merged,
    const mtx::CsrMatrix& c_old, const BinLayout& layout, int col_bits,
    index_t nrows, index_t ncols, const CancelToken* cancel = nullptr) {
  return detail::build_csr_accum<S>(
      detail::NarrowAccumAdapter{keys, vals, &layout, col_bits}, offsets,
      merged, c_old, layout, nrows, ncols, cancel);
}

/// Key-only fused-accumulate conversion: product values are synthesized as
/// `present` (the value-free convention of pb_scatter_bin_keyonly), so
/// both-present entries combine as S::add(c_old, present) and
/// product-only entries store `present` — exactly what the post-pass does
/// with the synthesized product.
template <typename S>
mtx::CsrMatrix pb_build_csr_accum_keyonly(
    const wide_key_t* keys, std::span<const nnz_t> offsets,
    std::span<const nnz_t> merged, const mtx::CsrMatrix& c_old,
    const BinLayout& layout, index_t nrows, index_t ncols,
    value_t present = 1.0, const CancelToken* cancel = nullptr) {
  return detail::build_csr_accum<S>(detail::KeyOnlyAccumAdapter{keys, present},
                                    offsets, merged, c_old, layout, nrows,
                                    ncols, cancel);
}

}  // namespace pbs::pb
