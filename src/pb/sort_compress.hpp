// PB-SpGEMM sort + compress phases (paper Algorithm 2, lines 19-21;
// Secs. III-D, III-E), as per-bin operations.
//
// Bins never share a (rowid, colid), so every bin is sorted and compressed
// independently.  Sort and compress are *fused per bin*: a bin sized for
// L2 is radix-sorted and immediately two-pointer-merged while still
// cache-hot, which is what lets the paper charge the compress phase only
// its output writes (Table III).  pb_execute (pipeline_impl.hpp) runs one
// bin's sort → compress → mask filter → post-op back to back, as one
// iteration of its loop over the bins.
//
// One BinOps template runs these stages for every tuple format.  The
// duplicate merge combines equal-key tuples with S::add.  Tuples whose
// values combine to S::zero() are kept — structural presence under exact
// cancellation matches spgemm_semiring and the numeric convention, so the
// output pattern is semiring-independent.
//
// A fused output mask (SpGemmOp, pb_config.hpp's MaskSpec) is applied here
// too: immediately after a bin's duplicate merge — while the bin is still
// cache-hot — survivors whose (row, col) misses the mask's pattern (or
// hits it, complemented) are compacted away, so the conversion phase never
// sees them and the masked output costs only its own writes.
#pragma once

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "common/post_op.hpp"
#include "common/radix_sort.hpp"
#include "pb/binning.hpp"
#include "pb/pb_config.hpp"
#include "pb/tuple.hpp"

namespace pbs::pb {

namespace detail {

/// Compacts a compressed bin in place, keeping the tuples whose (row, col)
/// membership in the mask's pattern matches the polarity; returns the
/// survivor count.  Tuples arrive (row, col)-sorted, so each row is one
/// merge-scan against that sorted mask row — O(merged + touched mask
/// entries), run while the bin is still cache-hot.
template <typename RowOf, typename ColOf, typename Move>
nnz_t mask_filter_bin(nnz_t merged, const mtx::CsrMatrix& mask,
                      bool complement, RowOf row_of, ColOf col_of,
                      Move move) {
  nnz_t kept = 0;
  index_t cur_row = -1;
  std::span<const index_t> mcols;
  std::size_t m = 0;
  for (nnz_t i = 0; i < merged; ++i) {
    const index_t r = row_of(i);
    if (r != cur_row) {
      cur_row = r;
      mcols = mask.row_cols(r);
      m = 0;
    }
    const index_t c = col_of(i);
    while (m < mcols.size() && mcols[m] < c) ++m;
    const bool in_mask = m < mcols.size() && mcols[m] == c;
    if (in_mask != complement) {
      if (kept != i) move(i, kept);
      ++kept;
    }
  }
  return kept;
}

/// Applies the fused elementwise post-op to a compressed (and mask-
/// filtered) bin in place.  Tuples are key-sorted, so each output row is
/// one contiguous, column-ascending segment: scale rewrites values, prune
/// drops |v| < threshold, and top-k keeps the row's k largest-|v| entries
/// (ties toward smaller columns — the selection post_op_select makes for
/// post_op_row too) with survivors compacted in ascending column order.
/// `row_of` only segments the scan, so bin-local row ids
/// serve as well as global ones.  Returns the survivor count.
template <typename RowOf, typename GetVal, typename SetVal, typename Move>
nnz_t post_op_bin(nnz_t kept, const PostOp& op, RowOf row_of, GetVal get_val,
                  SetVal set_val, Move move) {
  if (op.scale != 1.0) {
    for (nnz_t i = 0; i < kept; ++i) set_val(i, get_val(i) * op.scale);
  }
  if (!op.drops_entries()) return kept;

  std::vector<std::pair<double, nnz_t>> sel;  // selection scratch
  nnz_t out = 0;
  for (nnz_t i = 0; i < kept;) {
    const auto r = row_of(i);
    nnz_t j = i + 1;
    while (j < kept && row_of(j) == r) ++j;

    post_op_select(
        op, i, j, [&](nnz_t t) { return std::abs(get_val(t)); }, sel);
    for (const auto& e : sel) {
      if (e.second != out) move(e.second, out);
      ++out;
    }
    i = j;
  }
  return out;
}

}  // namespace detail

/// Per-bin operations on one tuple stream — the unit of work of the bin
/// loop (pipeline_impl.hpp).  Holds only pointers: cheap to copy into each
/// thread.  One template serves every format (pb/tuple.hpp); the key-only
/// stream has no value array, so its sort scatters keys alone, its
/// compress is a pure duplicate drop with no S::add, and it has no post-op
/// (plan_impl.hpp rejects post-ops on value-free streams).  The structural
/// exact-cancellation convention holds trivially there: compress keeps
/// every distinct key regardless of what the values would have combined
/// to, exactly as the valued formats keep tuples whose values combine to
/// S::zero().
template <TupleFormat F, typename S>
struct BinOps {
  using Key = typename StreamTraits<F>::Key;
  static constexpr bool kHasValues = StreamTraits<F>::kHasValues;

  StreamSpan<F> stream;
  const MaskSpec* mask = nullptr;
  const PostOp* post = nullptr;
  const BinLayout* layout = nullptr;
  int col_bits = 0;

  /// Bin `bin`, whose region starts at `off`, with its keys decoded.
  [[nodiscard]] BinTuples<F> tuples(int bin, nnz_t off) const {
    return {stream, off, *layout, bin, col_bits};
  }

  /// Stable LSD radix sort by key (common/radix_sort.hpp): the histogram
  /// and bit-scan passes read only the key array, and the value array
  /// rides along as SoA payload.  `scratch` holds at least `len` tuples.
  void sort(nnz_t off, std::size_t len, const StreamSpan<F>& scratch) const {
    if constexpr (kHasValues) {
      radix_sort_lsd_kv(stream.keys + off, stream.vals + off, len,
                        scratch.keys, scratch.vals);
    } else {
      radix_sort_lsd_keys(stream.keys + off, len, scratch.keys);
    }
  }

  // Two-pointer in-place merge (paper Sec. III-E): p1 scans the key array,
  // p2 marks the last surviving tuple, and each survivor's value is
  // compacted exactly once.  Duplicates combine with the semiring add;
  // survivors stay even when the combined value is S::zero().
  nnz_t compress(nnz_t off, std::size_t len) const {
    Key* k = stream.keys + off;
    std::size_t p2 = 0;
    if constexpr (kHasValues) {
      value_t* v = stream.vals + off;
      for (std::size_t p1 = 1; p1 < len; ++p1) {
        if (k[p1] == k[p2]) {
          v[p2] = S::add(v[p2], v[p1]);
        } else {
          ++p2;
          k[p2] = k[p1];
          v[p2] = v[p1];
        }
      }
    } else {
      for (std::size_t p1 = 1; p1 < len; ++p1) {
        if (k[p1] != k[p2]) k[++p2] = k[p1];
      }
    }
    return static_cast<nnz_t>(p2 + 1);
  }

  // Fused mask: keys decode to global coordinates through the bin's row
  // map.
  nnz_t filter(int bin, nnz_t off, nnz_t merged) const {
    if (!mask->active()) return merged;
    const BinTuples<F> t = tuples(bin, off);
    return detail::mask_filter_bin(
        merged, *mask->csr, mask->complement,
        [&](nnz_t i) { return t.row(i); }, [&](nnz_t i) { return t.col(i); },
        [&](nnz_t src, nnz_t dst) { t.move(src, dst); });
  }

  // Fused elementwise post-op, applied after the mask filter: row
  // segmentation needs only the key's bin-local row bits.
  nnz_t post_apply(int bin, nnz_t off, nnz_t kept) const {
    if constexpr (!kHasValues) {
      return kept;
    } else {
      if (post == nullptr || !post->active()) return kept;
      const BinTuples<F> t = tuples(bin, off);
      return detail::post_op_bin(
          kept, *post, [&](nnz_t i) { return t.local_row(i); },
          [&](nnz_t i) { return t.vals[i]; },
          [&](nnz_t i, value_t nv) { t.vals[i] = nv; },
          [&](nnz_t src, nnz_t dst) { t.move(src, dst); });
    }
  }
};

}  // namespace pbs::pb
