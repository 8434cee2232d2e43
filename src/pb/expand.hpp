// PB-SpGEMM expand phase (paper Algorithm 2, lines 5-18).
//
// Performs the k outer products A(:,i) · B(i,:) and propagates each
// multiplied tuple toward its row's global bin *through a thread-private
// local bin* (paper Fig. 5): tuples accumulate in a small cache-resident
// buffer and are flushed to the global bin in one cache-line-multiple
// copy when it fills, so global-memory writes always use full cache
// lines.  Global bins are contiguous regions of one flop-sized allocation,
// and the symbolic phase has already cut each into one slice per chunk of
// A's columns (pb/symbolic.hpp).  A thread expanding a chunk owns that
// chunk's slices outright, so a flush is a plain copy to a private write
// position: no atomic, no fence.  Every flush is bounded by its slice's
// end, so operands that outgrew the plan never write past it.
// Synchronization happens once per thread, after its last chunk: one
// sfence, before the caller's barrier.
//
// One team-callable body serves every tuple format (pb/tuple.hpp) and
// runs inside pb_execute's parallel region (pipeline_impl.hpp).  It is
// templated on the format — key width, and whether a value lane exists —
// and on the semiring: the only algebraic operation it performs is the
// scalar multiply A(r,i) ⊗ B(i,c), which becomes S::mul.
// Routing, blocking and the store policy are semiring-independent, so
// every semiring's instantiation streams memory identically.
#pragma once

#if defined(__SSE2__)
#include <emmintrin.h>
#endif

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <span>
#include <vector>

#include "common/aligned_buffer.hpp"
#include "common/cancel.hpp"
#include "matrix/csc.hpp"
#include "matrix/csr.hpp"
#include "pb/symbolic.hpp"
#include "pb/tuple.hpp"

namespace pbs::pb {

/// Whether this run's expand phase should apply the fused output mask in
/// its scatter loop: when the kept-side density — nnz(mask)/cells,
/// complement-flipped — is at most cfg.expand_mask_max_density, so a
/// threshold of 1.0 engages for every mask and a negative one for none.
/// A per-run decision: the mask is run state, never plan state, so
/// pb_execute calls this with the mask actually passed to it.
inline bool engage_expand_mask(const MaskSpec& mask, const PbConfig& cfg,
                               index_t nrows, index_t ncols) {
  if (!mask.active() || cfg.expand_mask_max_density < 0) return false;
  const double cells = static_cast<double>(nrows) * static_cast<double>(ncols);
  if (cells <= 0) return true;
  const double density = static_cast<double>(mask.csr->nnz()) / cells;
  const double kept = mask.complement ? 1.0 - density : density;
  return kept <= cfg.expand_mask_max_density;
}

namespace detail {

// Flush copy: when the destination is cache-line aligned and the block is
// whole lines, use non-temporal stores — full-line writes with no
// read-for-ownership traffic, which is what lets the expand phase approach
// STREAM bandwidth (paper Sec. III-C).  Symbolic pads bin regions and
// expand phases each lane by its slice's offset, so full flushes stay
// aligned; a slice's short first flush and its partial drain fall back to
// memcpy.  A flush moves the key block and, for valued formats, the value
// block separately (non-temporal on both).
template <typename T>
inline void flush_copy(T* dst, const T* src, int count,
                       [[maybe_unused]] bool streaming) {
  const std::size_t bytes = static_cast<std::size_t>(count) * sizeof(T);
#if defined(__SSE2__)
  if (streaming && (reinterpret_cast<std::uintptr_t>(dst) & 63u) == 0 &&
      bytes % 64 == 0) {
    const auto* s = reinterpret_cast<const __m128i*>(src);
    auto* d = reinterpret_cast<__m128i*>(dst);
    const std::size_t blocks = bytes / sizeof(__m128i);
    for (std::size_t i = 0; i < blocks; ++i)
      _mm_stream_si128(d + i, _mm_load_si128(s + i));
    return;
  }
#endif
  std::memcpy(dst, src, bytes);
}

inline void flush_fence() {
#if defined(__SSE2__)
  _mm_sfence();  // make non-temporal stores visible before the barrier
#endif
}

// The per-(output row, B row) mask merge of the masked expand: the
// B row's columns and the mask row's columns are both ascending, so one
// forward scan of the mask row per pair decides every candidate tuple.
// Keep when membership != complement: `emit(bi)` for kept candidates.
template <typename Emit>
inline void masked_scan(std::span<const index_t> bcols,
                        std::span<const index_t> mrow, bool complement,
                        Emit&& emit) {
  std::size_t mi = 0;
  for (std::size_t bi = 0; bi < bcols.size(); ++bi) {
    const index_t c = bcols[bi];
    while (mi < mrow.size() && mrow[mi] < c) ++mi;
    const bool in_mask = mi < mrow.size() && mrow[mi] == c;
    if (in_mask != complement) emit(bi);
  }
}

/// Flush statistics of one thread's expand, which tests check against the
/// plan's slices and the local-bin capacity.
struct ExpandCounts {
  nnz_t flushes = 0;
  int largest_flush = 0;  ///< tuples in the largest single flush
  /// A chunk of this thread did not fit its slices: the operands are not
  /// the ones the plan was built for.
  bool stale = false;
};

// Team-callable expand: runs INSIDE an existing parallel region (every
// thread of the team must call it — it contains an `omp for`).  Writes the
// format's keys — (local_row << col_bits) | col, pb/tuple.hpp — and, for
// valued formats, the products S::mul(A(r,i), B(i,c)) into `out`.  Local
// bins are SoA like the stream: a key lane and a value lane per bin, whose
// capacity is rounded to whole lanes (StreamTraits::kLane tuples = one key
// line) so a full flush is whole cache lines on every array.  Key-only
// streams have no value lane, so S::mul and the value reads disappear.
//
// Threads take the plan's chunks dynamically (`omp for nowait`).  For each
// chunk a thread seeds private per-bin write positions with the chunk's
// slice starts.  Only a bin's first slice is sure to start on a lane
// boundary, so each local lane is phased by its slice start's offset from
// one: the slice's first flush is short (a plain memcpy), and every later
// full flush lands line-aligned and streams.  At the end of the chunk the
// thread drains its partial lanes and stores each slice's written count in
// `written` (indexed sym.slice(c, bin)).  An active expand mask (emask)
// never buffers a rejected tuple, so a masked slice may end short of its
// planned size; its written count says where.  After its last chunk the
// thread issues one sfence; the caller's barrier then publishes every
// slice.
//
// The plan is checked, not trusted: a flush that would run past its
// slice's end, or an unmasked slice that ends short of its planned size,
// is a *miss*.  A miss drops the flush, sets ExpandCounts::stale, which
// stops this thread's chunks, and fires `abort`, which stops the team's,
// so nothing is ever written outside a slice.  A non-null `abort` is also
// polled once per column of A; a stopped chunk drains nothing.  Returns
// this thread's statistics.
template <TupleFormat F, typename S>
ExpandCounts expand_team(const mtx::CscMatrix& a, const mtx::CsrMatrix& b,
                         const SymbolicResult& sym, const PbConfig& cfg,
                         StreamSpan<F> out, nnz_t* written,
                         const MaskSpec& emask = {},
                         const CancelToken* abort = nullptr) {
  using Key = typename StreamTraits<F>::Key;
  constexpr bool kValues = StreamTraits<F>::kHasValues;
  constexpr int kLane = StreamTraits<F>::kLane;
  constexpr auto kBytes = static_cast<int>(StreamTraits<F>::kBytes);
  const BinLayout& layout = sym.layout;
  const auto nbins = static_cast<std::size_t>(layout.nbins);
  const int cap =
      std::max<int>(kLane, cfg.local_bin_bytes / kBytes / kLane * kLane);
  const auto ucap = static_cast<std::size_t>(cap);
  const int col_bits = sym.col_bits;
  const bool masked = emask.active();

  // Thread-private local bins (paper: 1K bins x 512B fits comfortably in
  // L2): all key lanes, then all value lanes, each lane line-aligned.
  // Lane slot k of a bin maps to Cˆ position pos - phase + k, where
  // phase = pos mod kLane: lcnt counts the phase slots too.
  AlignedBuffer<Key> lkeys(nbins * ucap);
  AlignedBuffer<value_t> lvals(kValues ? nbins * ucap : 0);
  std::vector<int> lcnt(nbins, 0);
  std::vector<nnz_t> pos(nbins, 0);
  std::vector<nnz_t> end(nbins, 0);  // the chunk's slice ends
  auto phase = [&](std::size_t bin) {
    return static_cast<int>(pos[bin] & (kLane - 1));
  };
  ExpandCounts counts;
  auto miss = [&] {  // the plan is stale: stop this thread and the team
    counts.stale = true;
    if (abort != nullptr) abort->request_cancel();
  };

  auto flush = [&](std::size_t bin) {
    const int from = phase(bin);
    const int count = lcnt[bin] - from;
    if (pos[bin] + count > end[bin]) {  // a stale plan: drop, never overrun
      lcnt[bin] = from;
      miss();
      return;
    }
    flush_copy(out.keys + pos[bin], lkeys.data() + bin * ucap + from, count,
               cfg.streaming_stores);
    if constexpr (kValues) {
      flush_copy(out.vals + pos[bin], lvals.data() + bin * ucap + from, count,
                 cfg.streaming_stores);
    }
    pos[bin] += count;
    lcnt[bin] = 0;
    ++counts.flushes;
    counts.largest_flush = std::max(counts.largest_flush, count);
  };

#pragma omp for schedule(dynamic, 1) nowait
  for (int chunk = 0; chunk < sym.nchunks(); ++chunk) {
    const std::size_t first = sym.slice(chunk, 0);
    const nnz_t* start = sym.slice_offsets.data() + first;
    const nnz_t* planned = sym.slice_fill.data() + first;
    for (std::size_t bin = 0; bin < nbins; ++bin) {
      pos[bin] = start[bin];
      end[bin] = start[bin] + planned[bin];
      lcnt[bin] = phase(bin);
    }
    // Cooperative cancellation at column granularity: the chunk stops
    // where it is, and the caller raises the typed error after the join.
    bool stopped = false;
    const auto cols_end = sym.chunk_cols[static_cast<std::size_t>(chunk) + 1];
    for (index_t i = sym.chunk_cols[static_cast<std::size_t>(chunk)];
         i < cols_end && !counts.stale; ++i) {
      if (stop_requested(abort)) {
        stopped = true;
        break;
      }
      const auto arows = a.col_rows(i);
      const auto avals = a.col_vals(i);
      const auto bcols = b.row_cols(i);
      const auto bvals = b.row_vals(i);
      if (bcols.empty()) continue;

      for (std::size_t ai = 0; ai < arows.size(); ++ai) {
        const index_t r = arows[ai];
        const auto bin = static_cast<std::size_t>(layout.binid(r));
        // The row bits are constant across B(i,:): build them once.
        const Key rowkey = static_cast<Key>(layout.local_row(r)) << col_bits;
        Key* klane = lkeys.data() + bin * ucap;
        value_t* vlane = kValues ? lvals.data() + bin * ucap : nullptr;
        value_t av{};
        if constexpr (kValues) av = avals[ai];
        auto emit = [&](std::size_t bi) {
          if (lcnt[bin] == cap) flush(bin);
          const int at = lcnt[bin]++;
          klane[at] = rowkey | static_cast<Key>(bcols[bi]);
          if constexpr (kValues) vlane[at] = S::mul(av, bvals[bi]);
        };
        if (masked) {
          // An empty mask row keeps nothing: the whole B row is skipped
          // without touching the lane (the common case on sparse masks).
          const auto mrow = emask.csr->row_cols(r);
          if (!mrow.empty() || emask.complement) {
            masked_scan(bcols, mrow, emask.complement, emit);
          }
          continue;
        }
        for (std::size_t bi = 0; bi < bcols.size(); ++bi) emit(bi);
      }
    }
    if (stopped || counts.stale) continue;

    // Drain the partially-filled local bins (Algorithm 2, lines 15-18).
    // The flush bound keeps every slice within its planned size; an
    // unmasked one must also reach it, or its bin would sort stale tuples.
    for (std::size_t bin = 0; bin < nbins; ++bin) {
      if (lcnt[bin] > phase(bin)) flush(bin);
      written[first + bin] = pos[bin] - start[bin];
      if (!masked && pos[bin] != end[bin]) miss();
    }
  }
  // One fence per thread for all its non-temporal stores; the caller's
  // barrier orders them before any bin is read.
  flush_fence();
  return counts;
}

}  // namespace detail

}  // namespace pbs::pb
