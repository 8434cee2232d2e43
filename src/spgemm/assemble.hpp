// "Buffer and stitch" CSR assembly shared by the single-pass row-wise
// algorithms (heap, SPA, ESC, and hash's one pass for pruned products).
//
// Rows are processed in fixed blocks; each block appends its entries to a
// private buffer, so no symbolic pass is needed and results are independent
// of the OpenMP schedule.  A final prefix-sum + parallel copy stitches the
// blocks into one canonical CSR matrix.
#pragma once

#include <algorithm>
#include <vector>

#include "common/huge_pages.hpp"
#include "common/prefix_sum.hpp"
#include "matrix/csr.hpp"

namespace pbs::detail {

inline constexpr index_t kRowsPerBlock = 256;

struct BlockBuffer {
  std::vector<index_t> cols;
  std::vector<value_t> vals;
  std::vector<nnz_t> row_counts;  // per row in the block
};

/// Runs `body(row, block_buffer)` for every row (grouped in blocks, blocks
/// in parallel); `body` must append the row's entries in ascending column
/// order and push the row count.  Returns the assembled CSR.
template <typename RowFn>
mtx::CsrMatrix assemble_rowwise(index_t nrows, index_t ncols, RowFn body) {
  const index_t nblocks =
      nrows == 0 ? 0 : (nrows + kRowsPerBlock - 1) / kRowsPerBlock;
  std::vector<BlockBuffer> blocks(static_cast<std::size_t>(nblocks));

#pragma omp parallel for schedule(dynamic, 1)
  for (index_t blk = 0; blk < nblocks; ++blk) {
    BlockBuffer& buf = blocks[blk];
    const index_t lo = blk * kRowsPerBlock;
    const index_t hi = std::min<index_t>(nrows, lo + kRowsPerBlock);
    buf.row_counts.reserve(static_cast<std::size_t>(hi - lo));
    for (index_t r = lo; r < hi; ++r) {
      const std::size_t before = buf.cols.size();
      body(r, buf);
      buf.row_counts.push_back(static_cast<nnz_t>(buf.cols.size() - before));
    }
  }

  mtx::CsrMatrix out(nrows, ncols);
  // Stitch: block base offsets, then per-row pointers, then parallel copy.
  std::vector<nnz_t> block_base(static_cast<std::size_t>(nblocks) + 1, 0);
  for (index_t blk = 0; blk < nblocks; ++blk)
    block_base[static_cast<std::size_t>(blk)] =
        static_cast<nnz_t>(blocks[blk].cols.size());
  exclusive_scan_inplace(block_base.data(), static_cast<std::size_t>(nblocks));
  const nnz_t total = block_base[static_cast<std::size_t>(nblocks)];

  resize_on_huge_pages(out.colids, static_cast<std::size_t>(total));
  resize_on_huge_pages(out.vals, static_cast<std::size_t>(total));

#pragma omp parallel for schedule(dynamic, 1)
  for (index_t blk = 0; blk < nblocks; ++blk) {
    const BlockBuffer& buf = blocks[blk];
    const index_t lo = blk * kRowsPerBlock;
    nnz_t pos = block_base[blk];
    // Row pointers for this block's rows.
    nnz_t acc = pos;
    for (std::size_t i = 0; i < buf.row_counts.size(); ++i) {
      out.rowptr[static_cast<std::size_t>(lo) + i + 1] = acc + buf.row_counts[i];
      acc += buf.row_counts[i];
    }
    std::copy(buf.cols.begin(), buf.cols.end(), out.colids.begin() + pos);
    std::copy(buf.vals.begin(), buf.vals.end(), out.vals.begin() + pos);
  }

  // rowptr[r+1] was only written for rows inside blocks; rowptr[0] is 0 and
  // empty trailing rows (when nrows == 0) need no fixup.  Rows are covered
  // exactly once by construction.
  return out;
}

}  // namespace pbs::detail
