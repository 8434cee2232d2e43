#include "matrix/convert.hpp"

#include <cassert>
#include <utility>

#include "common/huge_pages.hpp"
#include "common/prefix_sum.hpp"

namespace pbs::mtx {

namespace {

// Shared core of csr_to_csc / transpose: counting sort of CSR entries by
// column.  Writes colptr/rowids/vals of the column-major view of `a`.
void csr_columns_histogram(const CsrMatrix& a, std::vector<nnz_t>& colptr) {
  colptr.assign(static_cast<std::size_t>(a.ncols) + 1, 0);
  // Count entries per column.  The +1 shift lets the scan land directly in
  // final colptr form without a second buffer.
  for (nnz_t i = 0; i < a.nnz(); ++i) ++colptr[a.colids[i]];
  exclusive_scan_inplace(colptr.data(), static_cast<std::size_t>(a.ncols));
}

}  // namespace

CsrMatrix coo_to_csr(const CooMatrix& coo) {
  assert(coo.is_canonical());
  CsrMatrix out(coo.nrows, coo.ncols);
  const auto n = static_cast<std::size_t>(coo.nnz());
  resize_on_huge_pages(out.colids, n);
  resize_on_huge_pages(out.vals, n);

  std::vector<nnz_t> counts(static_cast<std::size_t>(coo.nrows) + 1, 0);
  for (std::size_t i = 0; i < n; ++i) ++counts[coo.row[i]];
  exclusive_scan_inplace(counts.data(), static_cast<std::size_t>(coo.nrows));
  out.rowptr = counts;

  // Canonical COO is already row-major sorted: a straight copy suffices.
  for (std::size_t i = 0; i < n; ++i) {
    out.colids[i] = coo.col[i];
    out.vals[i] = coo.val[i];
  }
  return out;
}

CscMatrix coo_to_csc(const CooMatrix& coo) {
  assert(coo.is_canonical());
  CscMatrix out(coo.nrows, coo.ncols);
  const auto n = static_cast<std::size_t>(coo.nnz());
  resize_on_huge_pages(out.rowids, n);
  resize_on_huge_pages(out.vals, n);

  std::vector<nnz_t> next(static_cast<std::size_t>(coo.ncols) + 1, 0);
  for (std::size_t i = 0; i < n; ++i) ++next[coo.col[i]];
  exclusive_scan_inplace(next.data(), static_cast<std::size_t>(coo.ncols));
  out.colptr = next;

  // Row-major iteration scatters rows into each column in ascending order,
  // so columns come out sorted.
  for (std::size_t i = 0; i < n; ++i) {
    const nnz_t dst = next[coo.col[i]]++;
    out.rowids[dst] = coo.row[i];
    out.vals[dst] = coo.val[i];
  }
  return out;
}

CooMatrix csr_to_coo(const CsrMatrix& a) {
  CooMatrix out(a.nrows, a.ncols);
  out.reserve(a.nnz());
  for (index_t r = 0; r < a.nrows; ++r) {
    for (nnz_t i = a.rowptr[r]; i < a.rowptr[static_cast<std::size_t>(r) + 1]; ++i) {
      out.add(r, a.colids[i], a.vals[i]);
    }
  }
  return out;
}

CscMatrix csr_to_csc(const CsrMatrix& a) {
  CscMatrix out(a.nrows, a.ncols);
  const auto n = static_cast<std::size_t>(a.nnz());
  resize_on_huge_pages(out.rowids, n);
  resize_on_huge_pages(out.vals, n);

  std::vector<nnz_t> next;
  csr_columns_histogram(a, next);
  out.colptr = next;

  for (index_t r = 0; r < a.nrows; ++r) {
    for (nnz_t i = a.rowptr[r]; i < a.rowptr[static_cast<std::size_t>(r) + 1]; ++i) {
      const nnz_t dst = next[a.colids[i]]++;
      out.rowids[dst] = r;
      out.vals[dst] = a.vals[i];
    }
  }
  return out;
}

CsrMatrix csc_to_csr(const CscMatrix& a) {
  CsrMatrix out(a.nrows, a.ncols);
  const auto n = static_cast<std::size_t>(a.nnz());
  resize_on_huge_pages(out.colids, n);
  resize_on_huge_pages(out.vals, n);

  std::vector<nnz_t> next(static_cast<std::size_t>(a.nrows) + 1, 0);
  for (std::size_t i = 0; i < n; ++i) ++next[a.rowids[i]];
  exclusive_scan_inplace(next.data(), static_cast<std::size_t>(a.nrows));
  out.rowptr = next;

  for (index_t c = 0; c < a.ncols; ++c) {
    for (nnz_t i = a.colptr[c]; i < a.colptr[static_cast<std::size_t>(c) + 1]; ++i) {
      const nnz_t dst = next[a.rowids[i]]++;
      out.colids[dst] = c;
      out.vals[dst] = a.vals[i];
    }
  }
  return out;
}

CsrMatrix transpose(const CsrMatrix& a) {
  // Aᵀ in CSR has the same layout as A in CSC with rows/cols swapped.
  CscMatrix csc = csr_to_csc(a);
  CsrMatrix out;
  out.nrows = a.ncols;
  out.ncols = a.nrows;
  out.rowptr = std::move(csc.colptr);
  out.colids = std::move(csc.rowids);
  out.vals = std::move(csc.vals);
  return out;
}

}  // namespace pbs::mtx
