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
// pb_execute runs build_csr_accum in place of its convert tail (the
// per-bin folded row count is skipped when accumulating — the union count
// needs C_old's rows, which the builder walks anyway).  One builder serves
// every tuple format: it reads each bin through BinTuples
// (pb/binning.hpp), the same decoded view the plain conversion uses.
#pragma once

#include <span>

#include "common/cancel.hpp"
#include "common/huge_pages.hpp"
#include "common/prefix_sum.hpp"
#include "matrix/csr.hpp"
#include "pb/binning.hpp"
#include "pb/tuple.hpp"

namespace pbs::pb {

namespace detail {

/// Counts the union pattern of one bin's surviving product tuples and
/// C_old's rows into rowptr[row + 1].  The tuple walk and for_each_row
/// agree on row order, so a single forward cursor serves the whole bin.
/// Race-free across bins for the same reason pb_count_bin is: no row spans
/// two.
template <TupleFormat F>
void accum_count_bin(BinTuples<F> t, nnz_t merged,
                     const mtx::CsrMatrix& c_old, const BinLayout& layout,
                     int bin, index_t nrows, nnz_t* rowptr) {
  nnz_t i = 0;
  layout.for_each_row(bin, nrows, [&](index_t r) {
    const auto ccols = c_old.row_cols(r);
    std::size_t ci = 0;
    nnz_t cnt = 0;
    while (i < merged && t.row(i) == r) {
      const index_t pc = t.col(i);
      while (ci < ccols.size() && ccols[ci] < pc) {
        ++ci;
        ++cnt;
      }
      if (ci < ccols.size() && ccols[ci] == pc) ++ci;
      ++cnt;
      ++i;
    }
    cnt += static_cast<nnz_t>(ccols.size() - ci);
    if (cnt != 0) rowptr[r + 1] += cnt;
  });
}

/// Streams one bin's union merge into its rows' final CSR positions.
/// `rowptr` must already hold absolute row starts.  Both-present entries
/// combine with S::add(c_old, product) — semiring_ewise_add's argument
/// order — single-side entries are copied.
template <typename S, TupleFormat F>
void accum_scatter_bin(BinTuples<F> t, nnz_t merged,
                       const mtx::CsrMatrix& c_old, const BinLayout& layout,
                       int bin, index_t nrows, const nnz_t* rowptr,
                       index_t* colids, value_t* vals) {
  nnz_t i = 0;
  layout.for_each_row(bin, nrows, [&](index_t r) {
    const auto ccols = c_old.row_cols(r);
    const auto cvals = c_old.row_vals(r);
    std::size_t ci = 0;
    nnz_t pos = rowptr[r];
    while (i < merged && t.row(i) == r) {
      const index_t pc = t.col(i);
      while (ci < ccols.size() && ccols[ci] < pc) {
        colids[pos] = ccols[ci];
        vals[pos] = cvals[ci];
        ++pos;
        ++ci;
      }
      colids[pos] = pc;
      if (ci < ccols.size() && ccols[ci] == pc) {
        vals[pos] = S::add(cvals[ci], t.val(i));
        ++ci;
      } else {
        vals[pos] = t.val(i);
      }
      ++pos;
      ++i;
    }
    for (; ci < ccols.size(); ++ci) {
      colids[pos] = ccols[ci];
      vals[pos] = cvals[ci];
      ++pos;
    }
  });
}

}  // namespace detail

/// Fused-accumulate conversion of a compressed tuple stream: union count
/// per bin, prefix sum, union scatter per bin, each bin read through its
/// BinTuples view.  Key-only product values read as kPresentValue (the
/// value-free convention of pb_scatter_bin), so both-present entries
/// combine as S::add(c_old, present) — exactly what the post-pass does
/// with the synthesized product.  Cancellation is polled per bin;
/// cancelled bins are skipped (the partial CSR is about to be discarded)
/// and the typed error raises after each join.
template <typename S, TupleFormat F>
mtx::CsrMatrix build_csr_accum(const StreamSpan<F>& stream, int col_bits,
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
    detail::accum_count_bin(
        BinTuples<F>(stream, offsets[ubin], layout, bin, col_bits),
        merged[ubin], c_old, layout, bin, nrows, c.rowptr.data());
  }
  throw_if_stopped(cancel);

  const nnz_t total =
      counts_to_rowptr(c.rowptr.data(), static_cast<std::size_t>(nrows));
  resize_on_huge_pages(c.colids, static_cast<std::size_t>(total));
  resize_on_huge_pages(c.vals, static_cast<std::size_t>(total));

#pragma omp parallel for schedule(dynamic, 1)
  for (int bin = 0; bin < nbins; ++bin) {
    if (stop_requested(cancel)) continue;
    const auto ubin = static_cast<std::size_t>(bin);
    detail::accum_scatter_bin<S>(
        BinTuples<F>(stream, offsets[ubin], layout, bin, col_bits),
        merged[ubin], c_old, layout, bin, nrows, c.rowptr.data(),
        c.colids.data(), c.vals.data());
  }
  throw_if_stopped(cancel);
  return c;
}

}  // namespace pbs::pb
