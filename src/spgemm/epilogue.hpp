// Epilogue helpers: one row's post-op, and the post-pass for the
// execution paths that cannot fuse.
//
// The PB pipeline applies SpGemmOp::post_op inside its per-bin filter
// stage and merges an accumulation target during CSR conversion
// (pb/sort_compress.hpp, pb/output_accum.hpp), so the shaped output
// is the only one that ever exists.  hash and hashvec shape each sorted
// row with post_op_row inside their row loop (spgemm/hash_impl.hpp),
// masked or not, so theirs is the only one too.  heap, spa and the
// other baselines produce the plain product; this header gives them the
// same semantics as one post-pass, which their registry kernels
// (spgemm/registry.hpp) run after the kernel and any mask filter:
//
//   apply_post_op(c, op)   — scale / prune / top-k in place, row by row
//                            through the same post_op_row, bit-identical
//                            in selection and ordering to the fused pb
//                            and hash paths (scale first, prune
//                            |v| < threshold, top-k by (|v| desc, col
//                            asc), survivors in ascending column order)
//   accumulate             — semiring_ewise_add (spgemm/op.hpp) IS the
//                            row-merge post-pass; the fused pb builders
//                            are verified bit-identical against it
//
// Keeping the unfused epilogue in one place is what lets the registry
// and the executor guarantee "same result, different traffic" across
// every algo.
#pragma once

#include <algorithm>
#include <cmath>
#include <utility>
#include <vector>

#include "common/huge_pages.hpp"
#include "common/post_op.hpp"
#include "matrix/csr.hpp"

namespace pbs {

/// Applies the post-op's prune and top-k to one row segment [begin, end)
/// of (colids, vals) — sorted by column, with the scale already applied —
/// compacting survivors to the front of the segment in ascending column
/// order.  Returns the survivor count.  `sel` is caller-provided scratch
/// so a parallel driver reuses one allocation per thread.
inline nnz_t post_op_row(const PostOp& op, index_t* colids, value_t* vals,
                         nnz_t begin, nnz_t end,
                         std::vector<std::pair<double, nnz_t>>& sel) {
  post_op_select(
      op, begin, end, [vals](nnz_t t) { return std::abs(vals[t]); }, sel);
  nnz_t out = begin;
  for (const auto& e : sel) {
    if (e.second != out) {
      colids[out] = colids[e.second];
      vals[out] = vals[e.second];
    }
    ++out;
  }
  return out - begin;
}

/// Applies `op` to a finished CSR matrix in place — the unfused epilogue
/// the registry's kernels run after heap, spa and the other baselines.
/// Scale rewrites values; prune/top-k compact the matrix (rowptr shrinks).
/// No-op when the post-op is the identity.
inline void apply_post_op(mtx::CsrMatrix& c, const PostOp& op) {
  if (!op.active()) return;
  if (op.scale != 1.0) {
    const nnz_t n = c.nnz();
#pragma omp parallel for schedule(static)
    for (nnz_t i = 0; i < n; ++i) c.vals[i] *= op.scale;
  }
  if (!op.drops_entries()) return;

  // Pass 1: per-row selection, survivors compacted to the front of each
  // row's original segment (rows are independent — safe in parallel).
  std::vector<nnz_t> kept(static_cast<std::size_t>(c.nrows) + 1, 0);
#pragma omp parallel
  {
    std::vector<std::pair<double, nnz_t>> sel;
#pragma omp for schedule(dynamic, 64)
    for (index_t r = 0; r < c.nrows; ++r) {
      kept[static_cast<std::size_t>(r) + 1] = post_op_row(
          op, c.colids.data(), c.vals.data(), c.rowptr[r], c.rowptr[r + 1],
          sel);
    }
  }
  for (index_t r = 0; r < c.nrows; ++r) kept[r + 1] += kept[r];

  // Pass 2: close the gaps between rows.
  std::vector<index_t> colids;
  std::vector<value_t> vals;
  resize_on_huge_pages(colids, static_cast<std::size_t>(kept[c.nrows]));
  resize_on_huge_pages(vals, colids.size());
#pragma omp parallel for schedule(static)
  for (index_t r = 0; r < c.nrows; ++r) {
    const nnz_t src = c.rowptr[r];
    const nnz_t dst = kept[r];
    const nnz_t n = kept[r + 1] - dst;
    std::copy_n(c.colids.begin() + src, n, colids.begin() + dst);
    std::copy_n(c.vals.begin() + src, n, vals.begin() + dst);
  }
  c.rowptr = std::move(kept);
  c.colids = std::move(colids);
  c.vals = std::move(vals);
}

}  // namespace pbs
