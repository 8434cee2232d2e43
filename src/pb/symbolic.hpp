// PB-SpGEMM symbolic phase (paper Algorithm 3).
//
// Streams only the pointer arrays of A (CSC) and B (CSR) to compute flop,
// picks the bin layout, and — one refinement over the paper's pseudocode —
// histograms flop *per bin* (an O(nnz(A)) pass over A's row ids) so the
// global bin array can be laid out as contiguous per-bin regions of a
// single uninitialized allocation.
//
// The same pass plans every expand write.  A's columns are split into
// *chunks* — contiguous column ranges of about equal flop, the expand
// phase's work items — and the histogram is kept per chunk, so each bin's
// region is cut into one *slice* per chunk, in chunk order.  A chunk writes
// only its own slices, at positions nobody else touches: expand needs no
// shared cursor, and every bin holds its tuples in ascending A-column order
// whatever thread ran which chunk.
#pragma once

#include <span>

#include "matrix/csc.hpp"
#include "matrix/csr.hpp"
#include "pb/binning.hpp"
#include "pb/pb_config.hpp"

namespace pbs::pb {

struct SymbolicResult {
  nnz_t flop = 0;
  BinLayout layout;

  /// Region start of each bin in Cˆ; size layout.nbins + 1.  Regions are
  /// padded to whole lanes of the format (lane_tuples, pb/tuple.hpp: one
  /// 64 B key line, and with it whole value lines — 16 tuples narrow, 8
  /// wide and key-only) so that every full local-bin flush lands
  /// cache-line aligned and the expand phase can use non-temporal
  /// streaming stores (write full lines with no read-for-ownership — the
  /// paper's "always write tuples in multiples of cache lines").
  /// bin_offsets.back() >= flop is the Cˆ buffer length.
  std::vector<nnz_t> bin_offsets;

  /// Actual tuple count of each bin; size layout.nbins.  Bin b's tuples
  /// occupy [bin_offsets[b], bin_offsets[b] + bin_fill[b]); the remainder
  /// of the region up to bin_offsets[b+1] is alignment slack.
  std::vector<nnz_t> bin_fill;

  /// Column bounds of the expand chunks: chunk c covers A's columns
  /// [chunk_cols[c], chunk_cols[c+1]).  A few chunks per thread of the
  /// planning team (never more than A's column count), split at about
  /// equal flop.  Chunks are work items, so a plan runs correctly at any
  /// team size.  Size nchunks() + 1.
  std::vector<index_t> chunk_cols;

  /// The slice of bin b that chunk c writes, indexed slice(c, b): its
  /// start in Cˆ and its planned tuple count.  A bin's slices are
  /// contiguous and in chunk order from bin_offsets[b], so their counts
  /// sum to bin_fill[b].  Only a bin's first slice is sure to start on a
  /// lane boundary.  Size nchunks() · layout.nbins each.
  std::vector<nnz_t> slice_offsets;
  std::vector<nnz_t> slice_fill;

  [[nodiscard]] int nchunks() const {
    return chunk_cols.empty() ? 0 : static_cast<int>(chunk_cols.size()) - 1;
  }
  [[nodiscard]] std::size_t slice(int chunk, int bin) const {
    return static_cast<std::size_t>(chunk) *
               static_cast<std::size_t>(layout.nbins) +
           static_cast<std::size_t>(bin);
  }

  /// Home NUMA node of each bin (size layout.nbins): a contiguous,
  /// flop-balanced partition of the bins over the machine's nodes
  /// (common/numa.hpp).  The placement layer first-touches each bin's
  /// tuple region from a thread on its home node.  The bin loop does not
  /// read it: pb_execute hands bins to whichever thread is free, whatever
  /// its node.  All zeros on single-node hosts.
  std::vector<int> bin_home;

  /// Number of distinct nodes bin_home spans (>= 1).
  int numa_nodes = 1;

  /// Stream format the plan selected (pb/tuple.hpp) and the column bit
  /// width of its keys, (local_row << col_bits) | col in every format.
  /// pb_execute dispatches the format-matched pipeline from these.
  TupleFormat format = TupleFormat::kWide;
  int col_bits = 0;

  /// Modeled memory traffic of this phase (for telemetry).
  double modeled_bytes = 0;
};

/// The symbolic phase.  Its chunk split sums the column flops once, which
/// also gives flop.  Throws std::invalid_argument when a.ncols != b.nrows.
SymbolicResult pb_symbolic(const mtx::CscMatrix& a, const mtx::CsrMatrix& b,
                           const PbConfig& cfg);

/// flop(A·B) = Σ_i nnz(A(:,i)) · nnz(B(i,:)) — Algorithm 3 lines 1-5.
/// O(k) over the pointer arrays only; the cheapest structural invariant of
/// a product, which the plan layer also uses as its invalidation check.
/// Like every flop pass here, throws std::invalid_argument when
/// a.ncols != b.nrows.
nnz_t pb_count_flop(const mtx::CscMatrix& a, const mtx::CsrMatrix& b);

/// Per-output-row flop histogram (row r of C receives
/// Σ_{A(r,i)≠0} nnz(B(i,:)) tuples) — feeds the compression-factor
/// estimator.  O(nnz(A)).
std::vector<nnz_t> pb_row_flops(const mtx::CscMatrix& a,
                                const mtx::CsrMatrix& b);

/// Output size of a product as pb_estimate_nnz_c estimates it.
struct NnzEstimate {
  nnz_t nnz = 0;     ///< ≈ nnz(A·B)
  nnz_t masked = 0;  ///< ≈ nnz(mask ∘ A·B); equals nnz when unmasked
};

/// Estimate of nnz(C) without running the multiplication, from a sample of
/// output rows counted exactly.  The sample is deterministic: every s-th
/// row that receives flop, with s = ceil(flop / budget) and budget =
/// max(2^16, flop/32).  Each sampled row's distinct columns are counted
/// from A's and B's CSR rows, and the estimate scales the sample's
/// nnz-per-flop up to the product: flop · Σ nnz_r / Σ flop_r.  So the pass
/// does at most about max(2^16, flop/32) accumulator updates, is exact when
/// flop ≤ 2^16, and, being a count rather than a model, sees banded and
/// correlated patterns compress.  The sums are integers, so the estimate is
/// bit-identical at any thread count.  Each thread's scratch is a column
/// stamp array when threads · ncols(B) ≤ nnz(A) + nnz(B), else a row buffer
/// that is sorted and deduplicated (a row of C has at most nnz(B) wedges).
/// The ratio flop / nnz is the compression factor cf the roofline-guided
/// algorithm selection runs on (model/selection.hpp).
///
/// `row_flops` is pb_row_flops(A, B).  A non-null `mask` is a plain
/// (non-complemented) output mask, pattern only: the same pass also counts
/// the sampled rows' columns the mask keeps, scaled the same way.  Throws
/// std::invalid_argument when a.ncols != b.nrows, row_flops does not have
/// a.nrows entries, or the mask is not a.nrows × b.ncols.
NnzEstimate pb_estimate_nnz_c(const mtx::CsrMatrix& a, const mtx::CsrMatrix& b,
                              std::span<const nnz_t> row_flops,
                              const mtx::CsrMatrix* mask = nullptr);

/// Whether any entry of `vals` is an explicit 0.0.  Value-freeness
/// promises presence ⇒ the semiring's present-value, which only holds
/// when no operand stores a zero: a stored 0.0 is bool-false, and its
/// products must surface as stored zeros (the library keeps exact-zero
/// entries structurally), so the value stream cannot be dropped.
/// pb_symbolic turns key-only down on it, and pb_execute refuses to run a
/// key-only plan on operands that have one.  O(nnz), parallel.
bool has_stored_zero(const std::vector<value_t>& vals);

/// Cheap prediction of the tuple format pb_symbolic would select, without
/// running symbolic: builds the same bin layout from the row count, flop
/// and L2 and tests the narrow fit.  Exact, except that it cannot see an
/// operand's stored zeros, which make pb_symbolic turn key-only down.
TupleFormat predict_tuple_format(index_t a_nrows, index_t b_ncols, nnz_t flop,
                                 const PbConfig& cfg);

}  // namespace pbs::pb
