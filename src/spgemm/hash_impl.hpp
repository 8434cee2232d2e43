// Shared kernel body of HashSpGEMM and HashVecSpGEMM, generalized over a
// semiring, an optional fused output mask and the op's post-op.
//
// Without a post-op that drops entries, two phases:
// Phase 1 (symbolic): per row, insert the product's column ids into a hash
// set to count nnz(C(r,:)) exactly; prefix-sum gives rowptr and one exact
// allocation — the structure of Nagasaka et al. [12].
// Phase 2 (numeric): per row, accumulate into the hash table (S::mul
// products, S::add keyed-insert combine), extract the occupied slots
// straight into the row's final segment [rowptr[r], rowptr[r+1]) of C, and
// sort them there by column (canonical CSR) with the PB bins' stable LSD
// radix sort (common/radix_sort.hpp) and per-thread scratch.  Every slot
// adds its contributions in B's row order and a row's keys are unique, so
// neither the hash function nor the sort changes a value's bits.  A
// scale-only post-op multiplies each value as it is extracted.
//
// A post-op that prunes or keeps the top-k (PostOp::drops_entries) fuses
// instead into ONE numeric pass with no symbolic phase (hash_one_pass):
// each row is accumulated, extracted into per-thread scratch, scaled,
// cut to the entries at or above the prune threshold, sorted, and shaped
// by post_op_row (spgemm/epilogue.hpp) — the function apply_post_op runs
// per row, so selection, tie-breaks and order are the post-pass's byte
// for byte — and only its survivors are appended to the row block
// buffers of assemble_rowwise (spgemm/assemble.hpp).  The unpruned
// product is never built, which is what MCL's expansions want.  Unpruned
// products keep the two phases: there the block buffers and the stitched
// C would hold the product twice.
//
// With a mask, every phase skips columns outside (or, complemented,
// inside) the mask row's pattern — the row's stamp array marks the
// allowed columns, so a probe costs O(1) and rows whose plain mask row is
// empty are skipped outright.  The mask therefore applies before the
// post-op, as the executor's post-pass would see it.
#pragma once

#include <omp.h>

#include <algorithm>
#include <cmath>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/huge_pages.hpp"
#include "common/parallel.hpp"
#include "common/post_op.hpp"
#include "common/radix_sort.hpp"
#include "matrix/csr.hpp"
#include "spgemm/assemble.hpp"
#include "spgemm/epilogue.hpp"
#include "spgemm/masked.hpp"
#include "spgemm/spgemm.hpp"

namespace pbs::detail {

// The row helpers take the mask pointer and polarity by value: captured
// by reference in a lambda they become addressable, and an OpenMP region
// then reloads them on every probe of its row loop.

/// Upper bound on row r's distinct columns (row flop, capped at ncols —
/// and at the mask row's size for a plain mask, which also zeroes out
/// maskless rows), for table sizing.
inline nnz_t row_upper_bound(const mtx::CsrMatrix& a, const mtx::CsrMatrix& b,
                             const mtx::CsrMatrix* mask, bool complement,
                             index_t r) {
  nnz_t f = 0;
  for (nnz_t i = a.rowptr[r]; i < a.rowptr[static_cast<std::size_t>(r) + 1]; ++i)
    f += b.row_nnz(a.colids[i]);
  f = std::min<nnz_t>(f, b.ncols);
  if (mask != nullptr && !complement) f = std::min<nnz_t>(f, mask->row_nnz(r));
  return f;
}

/// Row r's products into acc, sized for `upper` distinct columns.  The
/// two-phase numeric loop below spells the same loop out: called there,
/// this helper is not inlined and the banded product runs a few percent
/// slower.
template <typename S, typename Accumulator>
void accumulate_row(const mtx::CsrMatrix& a, const mtx::CsrMatrix& b,
                    const mtx::CsrMatrix* mask, bool complement, index_t r,
                    nnz_t upper, Accumulator& acc, MaskStamp& stamp) {
  if (mask != nullptr) stamp.stamp_row(*mask, r);
  acc.reset(upper);
  for (nnz_t i = a.rowptr[r]; i < a.rowptr[static_cast<std::size_t>(r) + 1]; ++i) {
    const index_t k = a.colids[i];
    const value_t av = a.vals[i];
    for (nnz_t j = b.rowptr[k]; j < b.rowptr[static_cast<std::size_t>(k) + 1]; ++j) {
      const index_t c = b.colids[j];
      if (mask != nullptr && stamp.skip(r, c, complement)) continue;
      acc.template accumulate<S>(c, S::mul(av, b.vals[j]));
    }
  }
}

// Column ids are non-negative, so their unsigned view (a legal alias of a
// signed/unsigned pair) sorts in the same order.
using ColKey = std::make_unsigned_t<index_t>;

/// The one-pass path for a post-op that drops entries: accumulate each
/// row, sort it, shape it with post_op_row and keep only the survivors.
template <typename S, typename Accumulator>
mtx::CsrMatrix hash_one_pass(const mtx::CsrMatrix& a, const mtx::CsrMatrix& b,
                             const mtx::CsrMatrix* mask, bool complement,
                             const PostOp& post_op) {
  // One slot per thread, each on its own cache lines: the accumulator's
  // occupied-slot list is written on every insert.
  struct alignas(64) Scratch {
    Accumulator acc;
    MaskStamp stamp;
    std::vector<index_t> cols;
    std::vector<value_t> vals;
    std::vector<ColKey> key_tmp;
    std::vector<value_t> val_tmp;
    std::vector<std::pair<double, nnz_t>> sel;
  };
  std::vector<Scratch> scratch(static_cast<std::size_t>(max_threads()));
  return assemble_rowwise(a.nrows, b.ncols, [&](index_t r, BlockBuffer& buf) {
    const nnz_t upper = row_upper_bound(a, b, mask, complement, r);
    if (upper == 0) return;
    Scratch& s = scratch[static_cast<std::size_t>(omp_get_thread_num())];
    accumulate_row<S>(a, b, mask, complement, r, upper, s.acc, s.stamp);
    const auto len = static_cast<std::size_t>(s.acc.size());
    if (s.cols.size() < len) {
      s.cols.resize(len);
      s.vals.resize(len);
      s.key_tmp.resize(len);
      s.val_tmp.resize(len);
    }
    s.acc.extract(s.cols.data(), s.vals.data());
    // Scale, and drop what the prune drops, before the sort: the prune
    // reads one scaled value at a time, so the survivors and their order
    // are the same, and the sort moves only entries that can survive (7–8%
    // of them in MCL's largest expansions).
    std::size_t n = 0;
    for (std::size_t i = 0; i < len; ++i) {
      const value_t v =
          post_op.scale != 1.0 ? s.vals[i] * post_op.scale : s.vals[i];
      if (post_op.prune_threshold > 0 && std::abs(v) < post_op.prune_threshold)
        continue;
      s.cols[n] = s.cols[i];
      s.vals[n] = v;
      ++n;
    }
    radix_sort_lsd_kv(reinterpret_cast<ColKey*>(s.cols.data()), s.vals.data(),
                      n, s.key_tmp.data(), s.val_tmp.data());
    const auto kept = static_cast<std::ptrdiff_t>(
        post_op_row(post_op, s.cols.data(), s.vals.data(), 0,
                    static_cast<nnz_t>(n), s.sel));
    buf.cols.insert(buf.cols.end(), s.cols.begin(), s.cols.begin() + kept);
    buf.vals.insert(buf.vals.end(), s.vals.begin(), s.vals.begin() + kept);
  });
}

template <typename S, typename Accumulator>
mtx::CsrMatrix hash_spgemm_impl(const SpGemmProblem& p,
                                const mtx::CsrMatrix* mask = nullptr,
                                bool complement = false,
                                const PostOp& post_op = {}) {
  const mtx::CsrMatrix& a = p.a_csr;
  const mtx::CsrMatrix& b = p.b_csr;
  if (post_op.drops_entries()) {
    return hash_one_pass<S, Accumulator>(a, b, mask, complement, post_op);
  }

  mtx::CsrMatrix out(a.nrows, b.ncols);
  std::vector<nnz_t> row_upper(static_cast<std::size_t>(a.nrows), 0);
#pragma omp parallel for schedule(dynamic, 1024)
  for (index_t r = 0; r < a.nrows; ++r)
    row_upper[r] = row_upper_bound(a, b, mask, complement, r);

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
      if (post_op.scale != 1.0) {
        for (std::size_t i = 0; i < len; ++i) vals[i] *= post_op.scale;
      }
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
