// Row-partitioned expand-sort-compress SpGEMM — the CPU analogue of the
// GPU ESC algorithms (Dalton/Olson/Bell [15], Liu et al. [18]); Table I
// lower-left cell, Table II row 2.
//
// Phase 1 sizes each output row's expansion slice exactly (row flop) so the
// expanded matrix Cˆ is one allocation with per-row sub-arrays.  Phase 2
// expands every row's unmerged tuples, phase 3 radix-sorts each slice by
// column id and phase 4 compresses duplicates in place.  Unlike PB-SpGEMM
// there is no propagation blocking: a slice is whatever size the row's flop
// dictates, so cache behaviour degrades on heavy rows — exactly the
// weakness the paper's Sec. II-B attributes to this family.
#include <vector>

#include "common/aligned_buffer.hpp"
#include "common/huge_pages.hpp"
#include "common/prefix_sum.hpp"
#include "common/radix_sort.hpp"
#include "spgemm/spgemm.hpp"

namespace pbs {

namespace {

struct EscTuple {
  index_t col;
  value_t val;
};

}  // namespace

mtx::CsrMatrix esc_column_spgemm(const SpGemmProblem& p) {
  const mtx::CsrMatrix& a = p.a_csr;
  const mtx::CsrMatrix& b = p.b_csr;

  // ---- symbolic: per-row flop, prefix-summed into slice offsets ----
  std::vector<nnz_t> slice(static_cast<std::size_t>(a.nrows) + 1, 0);
#pragma omp parallel for schedule(dynamic, 1024)
  for (index_t r = 0; r < a.nrows; ++r) {
    nnz_t f = 0;
    for (nnz_t i = a.rowptr[r]; i < a.rowptr[static_cast<std::size_t>(r) + 1]; ++i)
      f += b.row_nnz(a.colids[i]);
    slice[r] = f;
  }
  const nnz_t flop =
      exclusive_scan_inplace_parallel(slice.data(), static_cast<std::size_t>(a.nrows));

  // The flop-sized expansion scratch is reused across calls, as the
  // executor's pooled PbWorkspaces are for pb, so repeated runs do not
  // re-pay its page faults.
  thread_local AlignedBuffer<EscTuple> scratch;
  if (static_cast<std::size_t>(flop) > scratch.size()) {
    scratch.allocate(static_cast<std::size_t>(flop));
  }
  AlignedBuffer<EscTuple>& expanded = scratch;

  // ---- expand ----
#pragma omp parallel for schedule(dynamic, 256)
  for (index_t r = 0; r < a.nrows; ++r) {
    nnz_t pos = slice[r];
    for (nnz_t i = a.rowptr[r]; i < a.rowptr[static_cast<std::size_t>(r) + 1]; ++i) {
      const index_t k = a.colids[i];
      const value_t av = a.vals[i];
      for (nnz_t j = b.rowptr[k]; j < b.rowptr[static_cast<std::size_t>(k) + 1]; ++j) {
        expanded[static_cast<std::size_t>(pos++)] =
            EscTuple{b.colids[j], av * b.vals[j]};
      }
    }
  }

  // ---- sort + compress each row slice in place ----
  mtx::CsrMatrix out(a.nrows, b.ncols);
#pragma omp parallel for schedule(dynamic, 256)
  for (index_t r = 0; r < a.nrows; ++r) {
    EscTuple* t = expanded.data() + slice[r];
    const auto len = static_cast<std::size_t>(
        slice[static_cast<std::size_t>(r) + 1] - slice[r]);
    if (len == 0) {
      out.rowptr[static_cast<std::size_t>(r) + 1] = 0;
      continue;
    }
    radix_sort(t, len, [](const EscTuple& e) {
      return static_cast<std::uint32_t>(e.col);
    });
    std::size_t merged = 0;
    for (std::size_t i = 1; i < len; ++i) {
      if (t[i].col == t[merged].col) {
        t[merged].val += t[i].val;
      } else {
        t[++merged] = t[i];
      }
    }
    out.rowptr[static_cast<std::size_t>(r) + 1] = static_cast<nnz_t>(merged + 1);
  }

  for (index_t r = 0; r < a.nrows; ++r)
    out.rowptr[static_cast<std::size_t>(r) + 1] += out.rowptr[r];

  // ---- gather merged slices into the final CSR ----
  const auto total = static_cast<std::size_t>(out.rowptr.back());
  resize_on_huge_pages(out.colids, total);
  resize_on_huge_pages(out.vals, total);
#pragma omp parallel for schedule(dynamic, 256)
  for (index_t r = 0; r < a.nrows; ++r) {
    const EscTuple* t = expanded.data() + slice[r];
    nnz_t pos = out.rowptr[r];
    const nnz_t end = out.rowptr[static_cast<std::size_t>(r) + 1];
    for (nnz_t i = 0; pos + i < end; ++i) {
      out.colids[static_cast<std::size_t>(out.rowptr[r] + i)] = t[i].col;
      out.vals[static_cast<std::size_t>(out.rowptr[r] + i)] = t[i].val;
    }
  }

  return out;
}

}  // namespace pbs
