// Shared kernel body of HashSpGEMM and HashVecSpGEMM, generalized over a
// semiring, an optional fused output mask and the op's post-op.
//
// Every row first reads its bounds (row_bounds): its flop and its output
// window [lo, hi], the smallest first and the largest last column of the
// B rows it touches (B's rows are sorted, so that is two more reads per
// entry of A's row; rows_sorted checks once per call that they are).  A
// row whose window is no wider than its flop and at most kWindowMaxWidth
// columns is a *window row*: it accumulates into the thread's
// DenseWindow, the dense accumulator (SPA) of the paper's Table I over
// that window alone, indexed by col - lo, and reads out in column order,
// so it needs neither a hashed probe nor a row sort.  Every other row
// accumulates into the thread's hash table.  Both store a column's first
// product as-is and combine later ones with S::add, in the same order, so
// the two give the same bits.
//
// Without a post-op that drops entries, two phases:
// Phase 1 (symbolic): count nnz(C(r,:)) exactly — a window row marks its
// columns' `seen` bytes, counts the marks and clears them; a hash row
// inserts its column ids into a hash set.  A prefix sum gives rowptr and
// one exact allocation — the structure of Nagasaka et al. [12].
// Phase 2 (numeric): accumulate each row (S::mul products, S::add
// combine) and write it straight into its final segment
// [rowptr[r], rowptr[r+1]) of C: a window row scans its window there, and
// a hash row extracts its occupied slots there and sorts them by column
// (canonical CSR) with the PB bins' stable LSD radix sort
// (common/radix_sort.hpp) and per-thread scratch.  Every column adds its
// contributions in B's row order and a row's keys are unique, so neither
// the hash function nor the sort changes a value's bits.  A scale-only
// post-op multiplies each value once the row is written.
//
// A post-op that prunes or keeps the top-k (PostOp::drops_entries) fuses
// instead into ONE numeric pass with no symbolic phase (hash_one_pass):
// each row is accumulated, scaled and cut to the entries at or above the
// prune threshold as it is read out into per-thread scratch (a hash row
// is sorted after the cut), then shaped by post_op_row
// (spgemm/epilogue.hpp) — the function apply_post_op runs per row, so
// selection, tie-breaks and order are the post-pass's byte for byte — and
// only its survivors are appended to the row block buffers of
// assemble_rowwise (spgemm/assemble.hpp).  The unpruned product is never
// built, which is what MCL's expansions want.  Unpruned products keep the
// two phases: there the block buffers and the stitched C would hold the
// product twice.
//
// With a mask, every phase skips columns outside (or, complemented,
// inside) the mask row's pattern — the row's stamp array marks the
// allowed columns, so a probe costs O(1) and rows whose plain mask row is
// empty are skipped outright.  The mask therefore applies before the
// post-op, as pattern_filter then apply_post_op would apply them.
#pragma once

#include <omp.h>

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <memory>
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

/// A row takes the dense window when its window holds at most this many
/// columns per multiply of the row, so that scanning the window costs no
/// more than accumulating into it...
inline constexpr nnz_t kWindowColsPerFlop = 1;
/// ...and at most this many columns: 2^16 x (8 B value + 1 B `seen`) is
/// 576 KiB per thread, inside one core's 2 MiB L2.
inline constexpr nnz_t kWindowMaxWidth = nnz_t{1} << 16;

/// One output row's sizes, for the accumulator's choice and sizing.
struct RowBounds {
  nnz_t upper = 0;    ///< bound on the row's distinct columns; 0: empty row
  index_t lo = 0;     ///< first column of the row's window
  index_t width = 0;  ///< the window's width; 0: the row takes the hash table
};

// The row helpers take the mask pointer and polarity by value: captured
// by reference in a lambda they become addressable, and an OpenMP region
// then reloads them on every probe of its row loop.

/// True when no row of m lists a column after a larger one, as in
/// canonical CSR.  The window reads only the first and last column
/// of a B row, so the kernels give rows a window only when B passes this
/// one check per call: an unsorted operand, which reaches them when the
/// executor's validate_inputs is off, then keeps every row on the hash
/// table, which needs no order, instead of writing past the window.
inline bool rows_sorted(const mtx::CsrMatrix& m) {
  bool sorted = true;
#pragma omp parallel for schedule(static) reduction(&& : sorted)
  for (index_t r = 0; r < m.nrows; ++r) {
    const nnz_t end = m.rowptr[static_cast<std::size_t>(r) + 1];
    bool row_sorted = true;
    for (nnz_t j = m.rowptr[r] + 1; j < end; ++j)
      row_sorted &= m.colids[j - 1] <= m.colids[j];
    sorted = sorted && row_sorted;
  }
  return sorted;
}

/// Row r's bounds.  `upper` is its flop capped at ncols — and at the mask
/// row's size for a plain mask, which also zeroes out maskless rows —
/// for table sizing.  The window spans the columns of the nonempty B rows
/// that A's row r touches, and is given only when `b_sorted`
/// (rows_sorted(b)).
inline RowBounds row_bounds(const mtx::CsrMatrix& a, const mtx::CsrMatrix& b,
                            const mtx::CsrMatrix* mask, bool complement,
                            index_t r, bool b_sorted) {
  nnz_t flop = 0;
  index_t lo = b.ncols;
  index_t hi = -1;
  for (nnz_t i = a.rowptr[r]; i < a.rowptr[static_cast<std::size_t>(r) + 1]; ++i) {
    const index_t k = a.colids[i];
    const nnz_t begin = b.rowptr[k];
    const nnz_t end = b.rowptr[static_cast<std::size_t>(k) + 1];
    if (begin == end) continue;
    flop += end - begin;
    lo = std::min(lo, b.colids[begin]);
    hi = std::max(hi, b.colids[end - 1]);
  }
  RowBounds rb;
  rb.upper = std::min<nnz_t>(flop, b.ncols);
  if (mask != nullptr && !complement) {
    rb.upper = std::min<nnz_t>(rb.upper, mask->row_nnz(r));
  }
  const nnz_t width = nnz_t{hi} - lo + 1;
  if (b_sorted && rb.upper > 0 && width <= flop * kWindowColsPerFlop &&
      width <= kWindowMaxWidth) {
    rb.lo = lo;
    rb.width = static_cast<index_t>(width);
  }
  return rb;
}

/// Dense accumulator over one row's window [lo, lo + width): a value and
/// a `seen` flag per column, indexed by col - lo.  Every flag is clear
/// between rows: count_and_clear and drain clear what the row marked.
class DenseWindow {
 public:
  void reset(index_t lo, index_t width) {
    const auto w = static_cast<std::size_t>(width);
    if (w > vals_.size()) {
      vals_.resize(w);
      seen_ = std::make_unique<bool[]>(w);  // all clear, as the old ones
    }
    lo_ = lo;
    width_ = w;
  }

  /// The hash tables' insert-or-combine: a column's first product is
  /// stored as-is, later ones combine with S::add.
  template <typename S>
  void accumulate(index_t col, value_t v) {
    const auto x = static_cast<std::size_t>(col - lo_);
    vals_[x] = seen_[x] ? S::add(vals_[x], v) : v;
    seen_[x] = true;
  }

  /// Symbolic variant: marks the column.
  void insert(index_t col) {
    seen_[static_cast<std::size_t>(col - lo_)] = true;
  }

  /// The number of marked columns; clears the marks.
  nnz_t count_and_clear() {
    nnz_t n = 0;
    for (std::size_t x = 0; x < width_; ++x) {
      n += seen_[x] ? 1 : 0;
      seen_[x] = false;
    }
    return n;
  }

  /// Calls emit(col, value) for every marked column in ascending column
  /// order, clearing the marks.
  template <typename Emit>
  void drain(Emit&& emit) {
    for (std::size_t x = 0; x < width_; ++x) {
      if (!seen_[x]) continue;
      seen_[x] = false;
      emit(lo_ + static_cast<index_t>(x), vals_[x]);
    }
  }

 private:
  std::vector<value_t> vals_;
  // bool, not a char type: its stores cannot alias the row loops' array
  // pointers, so the loops keep those in registers.
  std::unique_ptr<bool[]> seen_;
  index_t lo_ = 0;
  std::size_t width_ = 0;
};

/// Calls f(c, a_val, b_val) for every product of row r whose column c the
/// mask allows, in Gustavson's order: along A's row, each B row in turn.
/// Always inlined, so each row loop below compiles as if spelled out;
/// called as a function, such a helper was not inlined there and the
/// banded product ran a few percent slower.
template <typename F>
[[gnu::always_inline]] inline void for_each_product(
    const mtx::CsrMatrix& a, const mtx::CsrMatrix& b,
    const mtx::CsrMatrix* mask, bool complement, const MaskStamp& stamp,
    index_t r, F&& f) {
  for (nnz_t i = a.rowptr[r]; i < a.rowptr[static_cast<std::size_t>(r) + 1]; ++i) {
    const index_t k = a.colids[i];
    const value_t av = a.vals[i];
    for (nnz_t j = b.rowptr[k]; j < b.rowptr[static_cast<std::size_t>(k) + 1]; ++j) {
      const index_t c = b.colids[j];
      if (mask != nullptr && stamp.skip(r, c, complement)) continue;
      f(c, av, b.vals[j]);
    }
  }
}

/// Row r's products into the window (a window row) or the hash table.
template <typename S, typename Accumulator>
[[gnu::always_inline]] inline void accumulate_row(
    const mtx::CsrMatrix& a, const mtx::CsrMatrix& b,
    const mtx::CsrMatrix* mask, bool complement, index_t r,
    const RowBounds& rb, Accumulator& acc, DenseWindow& win,
    MaskStamp& stamp) {
  if (mask != nullptr) stamp.stamp_row(*mask, r);
  if (rb.width > 0) {
    win.reset(rb.lo, rb.width);
    for_each_product(a, b, mask, complement, stamp, r,
                     [&](index_t c, value_t av, value_t bv) {
                       win.template accumulate<S>(c, S::mul(av, bv));
                     });
  } else {
    acc.reset(rb.upper);
    for_each_product(a, b, mask, complement, stamp, r,
                     [&](index_t c, value_t av, value_t bv) {
                       acc.template accumulate<S>(c, S::mul(av, bv));
                     });
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
    DenseWindow win;
    MaskStamp stamp;
    std::vector<index_t> cols;
    std::vector<value_t> vals;
    std::vector<ColKey> key_tmp;
    std::vector<value_t> val_tmp;
    std::vector<std::pair<double, nnz_t>> sel;
  };
  std::vector<Scratch> scratch(static_cast<std::size_t>(max_threads()));
  const bool b_sorted = rows_sorted(b);
  return assemble_rowwise(a.nrows, b.ncols, [&](index_t r, BlockBuffer& buf) {
    const RowBounds rb = row_bounds(a, b, mask, complement, r, b_sorted);
    if (rb.upper == 0) return;
    Scratch& s = scratch[static_cast<std::size_t>(omp_get_thread_num())];
    accumulate_row<S>(a, b, mask, complement, r, rb, s.acc, s.win, s.stamp);
    const auto len = static_cast<std::size_t>(rb.width > 0 ? rb.width
                                                           : s.acc.size());
    if (s.cols.size() < len) {
      s.cols.resize(len);
      s.vals.resize(len);
      s.key_tmp.resize(len);
      s.val_tmp.resize(len);
    }
    // Scale, and drop what the prune drops, as the row is read out: the
    // prune reads one scaled value at a time, so the survivors and their
    // order are the same, and a hash row's sort moves only entries that
    // can survive (7–8% of them in MCL's largest expansions).
    std::size_t n = 0;
    const auto keep = [&](index_t c, value_t v) {
      if (post_op.scale != 1.0) v *= post_op.scale;
      if (post_op.prune_threshold > 0 && std::abs(v) < post_op.prune_threshold)
        return;
      s.cols[n] = c;
      s.vals[n] = v;
      ++n;
    };
    if (rb.width > 0) {
      s.win.drain(keep);
    } else {
      s.acc.extract(s.cols.data(), s.vals.data());
      for (std::size_t i = 0; i < len; ++i) keep(s.cols[i], s.vals[i]);
      radix_sort_lsd_kv(reinterpret_cast<ColKey*>(s.cols.data()),
                        s.vals.data(), n, s.key_tmp.data(), s.val_tmp.data());
    }
    const auto kept = static_cast<std::ptrdiff_t>(
        post_op_row(post_op, s.cols.data(), s.vals.data(), 0,
                    static_cast<nnz_t>(n), s.sel));
    buf.cols.insert(buf.cols.end(), s.cols.begin(), s.cols.begin() + kept);
    buf.vals.insert(buf.vals.end(), s.vals.begin(), s.vals.begin() + kept);
  });
}

template <typename S, typename Accumulator>
mtx::CsrMatrix hash_spgemm_impl(const SpGemmProblem& p,
                                const mtx::CsrMatrix* mask, bool complement,
                                const PostOp& post_op) {
  const mtx::CsrMatrix& a = p.a_csr;
  const mtx::CsrMatrix& b = p.b_csr;
  if (post_op.drops_entries()) {
    return hash_one_pass<S, Accumulator>(a, b, mask, complement, post_op);
  }

  mtx::CsrMatrix out(a.nrows, b.ncols);
  std::vector<RowBounds> rows(static_cast<std::size_t>(a.nrows));
  const bool b_sorted = rows_sorted(b);
#pragma omp parallel for schedule(dynamic, 1024)
  for (index_t r = 0; r < a.nrows; ++r)
    rows[r] = row_bounds(a, b, mask, complement, r, b_sorted);

  // ---- symbolic: exact nnz per output row ----
#pragma omp parallel
  {
    Accumulator acc;
    DenseWindow win;
    MaskStamp stamp;
#pragma omp for schedule(dynamic, 256)
    for (index_t r = 0; r < a.nrows; ++r) {
      const RowBounds& rb = rows[r];
      nnz_t count = 0;
      if (rb.upper > 0) {
        if (mask != nullptr) stamp.stamp_row(*mask, r);
        if (rb.width > 0) {
          win.reset(rb.lo, rb.width);
          for_each_product(a, b, mask, complement, stamp, r,
                           [&](index_t c, value_t, value_t) { win.insert(c); });
          count = win.count_and_clear();
        } else {
          acc.reset(rb.upper);
          for_each_product(a, b, mask, complement, stamp, r,
                           [&](index_t c, value_t, value_t) { acc.insert(c); });
          count = acc.size();
        }
      }
      out.rowptr[static_cast<std::size_t>(r) + 1] = count;
    }
  }

  // Counts -> row pointers (inclusive running sum; rowptr[0] == 0 already).
  for (index_t r = 0; r < a.nrows; ++r)
    out.rowptr[static_cast<std::size_t>(r) + 1] += out.rowptr[r];

  const auto total = static_cast<std::size_t>(out.rowptr.back());
  resize_on_huge_pages(out.colids, total);
  resize_on_huge_pages(out.vals, total);

  // ---- numeric: accumulate, then write the row into C (and sort it
  // there, for a hash row) ----
#pragma omp parallel
  {
    Accumulator acc;
    DenseWindow win;
    MaskStamp stamp;
    std::vector<ColKey> key_scratch;
    std::vector<value_t> val_scratch;
#pragma omp for schedule(dynamic, 256)
    for (index_t r = 0; r < a.nrows; ++r) {
      const nnz_t lo = out.rowptr[r];
      const nnz_t hi = out.rowptr[static_cast<std::size_t>(r) + 1];
      if (lo == hi) continue;
      const RowBounds& rb = rows[r];
      accumulate_row<S>(a, b, mask, complement, r, rb, acc, win, stamp);
      const auto len = static_cast<std::size_t>(hi - lo);
      index_t* cols = out.colids.data() + lo;
      value_t* vals = out.vals.data() + lo;
      if (rb.width > 0) {
        std::size_t n = 0;
        win.drain([&](index_t c, value_t v) {
          cols[n] = c;
          vals[n] = v;
          ++n;
        });
      } else {
        acc.extract(cols, vals);
        if (key_scratch.size() < len) {
          key_scratch.resize(len);
          val_scratch.resize(len);
        }
        radix_sort_lsd_kv(reinterpret_cast<ColKey*>(cols), vals, len,
                          key_scratch.data(), val_scratch.data());
      }
      if (post_op.scale != 1.0) {
        for (std::size_t i = 0; i < len; ++i) vals[i] *= post_op.scale;
      }
    }
  }

  return out;
}

}  // namespace pbs::detail
