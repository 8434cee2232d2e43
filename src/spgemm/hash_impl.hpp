// Shared two-phase driver for HashSpGEMM and HashVecSpGEMM, generalized
// over a semiring and an optional fused output mask.
//
// Phase 1 (symbolic): per row, insert the product's column ids into a hash
// set to count nnz(C(r,:)) exactly; prefix-sum gives rowptr and one exact
// allocation — the structure of Nagasaka et al. [12].
// Phase 2 (numeric): per row, accumulate into the hash table (S::mul
// products, S::add keyed-insert combine), extract the occupied slots
// straight into the row's final segment [rowptr[r], rowptr[r+1]) of C, and
// sort them there by column (canonical CSR) with the PB bins' stable LSD
// radix sort (common/radix_sort.hpp) and per-thread scratch.  Every slot
// adds its contributions in B's row order and a row's keys are unique, so
// neither the hash function nor the sort changes a value's bits.
//
// With a mask, both phases skip columns outside (or, complemented, inside)
// the mask row's pattern — the row's stamp array marks the allowed
// columns, so a probe costs O(1) and rows whose plain mask row is empty
// are skipped outright.
#pragma once

#include <omp.h>

#include <algorithm>
#include <type_traits>
#include <vector>

#include "common/huge_pages.hpp"
#include "common/parallel.hpp"
#include "common/radix_sort.hpp"
#include "matrix/csr.hpp"
#include "spgemm/masked.hpp"
#include "spgemm/spgemm.hpp"

namespace pbs::detail {

template <typename S, typename Accumulator>
mtx::CsrMatrix hash_spgemm_impl(const SpGemmProblem& p,
                                const mtx::CsrMatrix* mask = nullptr,
                                bool complement = false) {
  const mtx::CsrMatrix& a = p.a_csr;
  const mtx::CsrMatrix& b = p.b_csr;

  mtx::CsrMatrix out(a.nrows, b.ncols);

  // Upper bound per row (row flop, capped at ncols — and at the mask row's
  // size for a plain mask, which also zeroes out maskless rows) for table
  // sizing.
  std::vector<nnz_t> row_upper(static_cast<std::size_t>(a.nrows), 0);
#pragma omp parallel for schedule(dynamic, 1024)
  for (index_t r = 0; r < a.nrows; ++r) {
    nnz_t f = 0;
    for (nnz_t i = a.rowptr[r]; i < a.rowptr[static_cast<std::size_t>(r) + 1]; ++i)
      f += b.row_nnz(a.colids[i]);
    f = std::min<nnz_t>(f, b.ncols);
    if (mask != nullptr && !complement) f = std::min<nnz_t>(f, mask->row_nnz(r));
    row_upper[r] = f;
  }

  // ---- symbolic: exact nnz per output row ----
#pragma omp parallel
  {
    Accumulator acc;
    MaskStamp stamp;
#pragma omp for schedule(dynamic, 256)
    for (index_t r = 0; r < a.nrows; ++r) {
      if (row_upper[r] == 0) {
        out.rowptr[static_cast<std::size_t>(r) + 1] = 0;
        continue;
      }
      if (mask != nullptr) stamp.stamp_row(*mask, r);
      acc.reset(row_upper[r]);
      for (nnz_t i = a.rowptr[r]; i < a.rowptr[static_cast<std::size_t>(r) + 1]; ++i) {
        const index_t k = a.colids[i];
        for (nnz_t j = b.rowptr[k]; j < b.rowptr[static_cast<std::size_t>(k) + 1]; ++j) {
          const index_t c = b.colids[j];
          if (mask != nullptr && stamp.skip(r, c, complement)) continue;
          acc.insert(c);
        }
      }
      out.rowptr[static_cast<std::size_t>(r) + 1] = acc.size();
    }
  }

  // Counts -> row pointers (inclusive running sum; rowptr[0] == 0 already).
  for (index_t r = 0; r < a.nrows; ++r)
    out.rowptr[static_cast<std::size_t>(r) + 1] += out.rowptr[r];

  const auto total = static_cast<std::size_t>(out.rowptr.back());
  resize_on_huge_pages(out.colids, total);
  resize_on_huge_pages(out.vals, total);

  // ---- numeric: accumulate, extract into C's row, sort it in place ----
  // Column ids are non-negative, so their unsigned view (a legal alias of
  // a signed/unsigned pair) sorts in the same order.
  using ColKey = std::make_unsigned_t<index_t>;
#pragma omp parallel
  {
    Accumulator acc;
    MaskStamp stamp;
    std::vector<ColKey> key_scratch;
    std::vector<value_t> val_scratch;
#pragma omp for schedule(dynamic, 256)
    for (index_t r = 0; r < a.nrows; ++r) {
      const nnz_t lo = out.rowptr[r];
      const nnz_t hi = out.rowptr[static_cast<std::size_t>(r) + 1];
      if (lo == hi) continue;
      if (mask != nullptr) stamp.stamp_row(*mask, r);
      acc.reset(row_upper[r]);
      for (nnz_t i = a.rowptr[r]; i < a.rowptr[static_cast<std::size_t>(r) + 1]; ++i) {
        const index_t k = a.colids[i];
        const value_t av = a.vals[i];
        for (nnz_t j = b.rowptr[k]; j < b.rowptr[static_cast<std::size_t>(k) + 1]; ++j) {
          const index_t c = b.colids[j];
          if (mask != nullptr && stamp.skip(r, c, complement)) continue;
          acc.template accumulate<S>(c, S::mul(av, b.vals[j]));
        }
      }
      const auto len = static_cast<std::size_t>(hi - lo);
      index_t* cols = out.colids.data() + lo;
      value_t* vals = out.vals.data() + lo;
      acc.extract(cols, vals);
      if (key_scratch.size() < len) {
        key_scratch.resize(len);
        val_scratch.resize(len);
      }
      radix_sort_lsd_kv(reinterpret_cast<ColKey*>(cols), vals, len,
                        key_scratch.data(), val_scratch.data());
    }
  }

  return out;
}

}  // namespace pbs::detail
