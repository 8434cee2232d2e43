// PB-SpGEMM expand phase (paper Algorithm 2, lines 5-18).
//
// Performs the k outer products A(:,i) · B(i,:) and propagates each
// multiplied tuple toward its row's global bin *through a thread-private
// local bin* (paper Fig. 5): tuples accumulate in a small cache-resident
// buffer and are flushed to the global bin in one cache-line-multiple
// memcpy when it fills, so global-memory writes always use full cache
// lines.  Global bins are contiguous regions of one flop-sized allocation;
// a flush claims its destination with a relaxed atomic fetch-add.
//
// The bodies are templated on the semiring: the only algebraic operation
// they perform is the scalar multiply A(r,i) ⊗ B(i,c), which becomes
// S::mul.  Routing, blocking and the store policy are semiring-
// independent, so every instantiation streams memory identically.  One
// team-callable body per tuple format runs inside pb_execute's parallel
// region (pipeline_impl.hpp), which instantiates them per semiring.
#pragma once

#if defined(__SSE2__)
#include <emmintrin.h>
#endif

#include <algorithm>
#include <atomic>
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
/// its scatter loop (ExpandMaskMode): forced by kOn, and under kAuto
/// engaged when the kept-side density — nnz(mask)/cells, complement-
/// flipped — is at most cfg.expand_mask_max_density.  A per-run decision:
/// the mask is run state, never plan state, so pb_execute calls this with
/// the mask actually passed to it.
inline bool engage_expand_mask(const MaskSpec& mask, const PbConfig& cfg,
                               index_t nrows, index_t ncols) {
  if (!mask.active() || cfg.expand_mask == ExpandMaskMode::kOff) return false;
  if (cfg.expand_mask == ExpandMaskMode::kOn) return true;
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
// STREAM bandwidth (paper Sec. III-C).  Symbolic pads bin regions so full
// flushes stay aligned; partial drain flushes fall back to memcpy.  One
// template serves every format: wide flushes move Tuple lines, narrow
// flushes move a key block and a value block separately (non-temporal on
// both), key-only flushes move key lines.
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
  _mm_sfence();  // make non-temporal stores visible before the bin's sort
#endif
}

// The expand kernel is templated on the binning policy so the binid
// computation in the inner loop is a shift/mask, not a switch.
template <BinPolicy P>
int fast_binid(const BinLayout& layout, index_t row) {
  if constexpr (P == BinPolicy::kRange) {
    return static_cast<int>(row >> layout.shift);
  } else if constexpr (P == BinPolicy::kModulo) {
    return static_cast<int>(static_cast<std::uint32_t>(row) & layout.mask);
  } else {
    return layout.binid(row);
  }
}

// Bin-relative row for the narrow key, same specialization idea as
// fast_binid.  `mod_shift` is layout.modulo_shift(), hoisted by the caller
// so the modulo case is a plain shift here.
template <BinPolicy P>
index_t fast_local_row(const BinLayout& layout, int bin, index_t row,
                       int mod_shift) {
  if constexpr (P == BinPolicy::kRange) {
    return static_cast<index_t>(static_cast<std::uint32_t>(row) &
                                ((std::uint32_t{1} << layout.shift) - 1u));
  } else if constexpr (P == BinPolicy::kModulo) {
    return row >> mod_shift;
  } else {
    (void)mod_shift;
    return row - layout.bounds[static_cast<std::size_t>(bin)];
  }
}

// Flush sink: the team-callable expand bodies below notify it after every
// completed flush_copy — `sink.flushed(bin, count)` with the data already
// written to the bin's global region.  pb_execute's sink advances the
// bin's done-counter and, on completion, publishes the bin to a
// work-stealing deque (pipeline_impl.hpp).
//
// With an active expand-phase mask (emask), tuples the mask rejects are
// never buffered — the bodies instead batch per-bin *skip credits* and
// report them through `sink.skipped(bin, count)`.  A bin's done-counter
// thus still converges to its symbolic fill mark (flushed + skipped ==
// flop), so bin-completion detection is untouched; only the write cursor
// falls short of the mark, and the caller reads the cursors back as the
// bins' actual generated fills.  Credits ride the flush cycle (plus a
// final drain) rather than hitting the sink per tuple.

// The per-(output row, B row) mask merge used by all three team bodies: the
// B row's columns and the mask row's columns are both ascending, so one
// forward scan of the mask row per pair decides every candidate tuple.
// Keep when membership != complement.  Returns via `emit(bi)` for kept
// candidates and counts the rest.
template <typename Emit>
inline nnz_t masked_scan(std::span<const index_t> bcols,
                         std::span<const index_t> mrow, bool complement,
                         Emit&& emit) {
  nnz_t skipped = 0;
  std::size_t mi = 0;
  for (std::size_t bi = 0; bi < bcols.size(); ++bi) {
    const index_t c = bcols[bi];
    while (mi < mrow.size() && mrow[mi] < c) ++mi;
    const bool in_mask = mi < mrow.size() && mrow[mi] == c;
    if (in_mask == complement) {
      ++skipped;
      continue;
    }
    emit(bi);
  }
  return skipped;
}

// Team-callable wide expand: runs INSIDE an existing parallel region (every
// thread of the team must call it — it contains an `omp for`).  Writes the
// 16 B AoS tuples into `out`.  `cursor` is the shared per-bin write-cursor
// array, pre-seeded with the bin region origins.  Returns this thread's
// flush count (telemetry for the Fig. 6a bin-width study).
template <BinPolicy P, typename S, typename Sink>
nnz_t expand_team(const mtx::CscMatrix& a, const mtx::CsrMatrix& b,
                  const SymbolicResult& sym, const PbConfig& cfg, Tuple* out,
                  std::atomic<nnz_t>* cursor, Sink& sink,
                  const MaskSpec& emask = {}) {
  const BinLayout& layout = sym.layout;
  const auto nbins = static_cast<std::size_t>(layout.nbins);
  const int cap =
      std::max<int>(1, cfg.local_bin_bytes / static_cast<int>(sizeof(Tuple)));
  const bool masked = emask.active();

  // Thread-private local bins: nbins buffers of `cap` tuples in one
  // contiguous allocation (paper: 1K bins x 512B fits comfortably in L2).
  AlignedBuffer<Tuple> lbin(nbins * static_cast<std::size_t>(cap));
  std::vector<int> lcnt(nbins, 0);
  std::vector<nnz_t> lskip(masked ? nbins : 0, 0);
  nnz_t flushes = 0;

  auto flush = [&](std::size_t bin) {
    const int count = lcnt[bin];
    const nnz_t pos = cursor[bin].fetch_add(count, std::memory_order_relaxed);
    flush_copy(out + pos, lbin.data() + bin * static_cast<std::size_t>(cap),
               count, cfg.streaming_stores);
    lcnt[bin] = 0;
    ++flushes;
    sink.flushed(bin, count);
    if (masked && lskip[bin] != 0) {
      sink.skipped(bin, lskip[bin]);
      lskip[bin] = 0;
    }
  };

#pragma omp for schedule(guided) nowait
  for (index_t i = 0; i < a.ncols; ++i) {
    // Cooperative cancellation at column granularity (`break` is illegal
    // in an omp for; skipped columns just leave their bins short, and the
    // caller raises the typed error after the join).
    if (stop_requested(cfg.cancel)) continue;
    const auto arows = a.col_rows(i);
    const auto avals = a.col_vals(i);
    const auto bcols = b.row_cols(i);
    const auto bvals = b.row_vals(i);
    if (bcols.empty()) continue;

    for (std::size_t ai = 0; ai < arows.size(); ++ai) {
      const index_t r = arows[ai];
      const value_t av = avals[ai];
      const auto bin = static_cast<std::size_t>(fast_binid<P>(layout, r));
      Tuple* lane = lbin.data() + bin * static_cast<std::size_t>(cap);
      if (masked) {
        const auto mrow = emask.csr->row_cols(r);
        if (mrow.empty() && !emask.complement) {
          // Empty mask row keeps nothing: the whole B row is skipped
          // without touching the lane (the common case on sparse masks).
          lskip[bin] += static_cast<nnz_t>(bcols.size());
          continue;
        }
        lskip[bin] += masked_scan(bcols, mrow, emask.complement,
                                  [&](std::size_t bi) {
                                    if (lcnt[bin] == cap) flush(bin);
                                    lane[lcnt[bin]++] =
                                        Tuple{make_key(r, bcols[bi]),
                                              S::mul(av, bvals[bi])};
                                  });
        continue;
      }
      for (std::size_t bi = 0; bi < bcols.size(); ++bi) {
        if (lcnt[bin] == cap) flush(bin);
        lane[lcnt[bin]++] =
            Tuple{make_key(r, bcols[bi]), S::mul(av, bvals[bi])};
      }
    }
  }

  // Drain the partially-filled local bins (Algorithm 2, lines 15-18), plus
  // any skip credits batched for bins this thread never flushed again.
  for (std::size_t bin = 0; bin < nbins; ++bin) {
    if (lcnt[bin] != 0) flush(bin);
    if (masked && lskip[bin] != 0) {
      sink.skipped(bin, lskip[bin]);
      lskip[bin] = 0;
    }
  }
  flush_fence();
  return flushes;
}

// Narrow-format expand: identical routing and blocking, but local bins are
// SoA — a key lane and a value lane per bin — and a flush scatters the two
// streams separately, so the phase writes 12 bytes per tuple instead of
// 16.  The local-bin capacity is rounded to 16 tuples so a full flush is
// whole cache lines on both streams (one 64 B key line per 16 tuples, two
// value lines), keeping the non-temporal store path of flush_copy.
// Team-callable; same contract as expand_team.
template <BinPolicy P, typename S, typename Sink>
nnz_t expand_narrow_team(const mtx::CscMatrix& a, const mtx::CsrMatrix& b,
                         const SymbolicResult& sym, const PbConfig& cfg,
                         narrow_key_t* out_keys, value_t* out_vals,
                         std::atomic<nnz_t>* cursor, Sink& sink,
                         const MaskSpec& emask = {}) {
  const BinLayout& layout = sym.layout;
  const auto nbins = static_cast<std::size_t>(layout.nbins);
  const int cap = std::max<int>(
      16, cfg.local_bin_bytes /
              static_cast<int>(kBytesPerTupleNarrow) / 16 * 16);
  const int col_bits = sym.col_bits;
  const int mod_shift =
      layout.policy == BinPolicy::kModulo ? layout.modulo_shift() : 0;
  const bool masked = emask.active();

  // All key lanes, then all value lanes (both line-aligned: cap is a
  // multiple of 16, so each lane starts on a 64 B boundary).
  AlignedBuffer<narrow_key_t> lkeys(nbins * static_cast<std::size_t>(cap));
  AlignedBuffer<value_t> lvals(nbins * static_cast<std::size_t>(cap));
  std::vector<int> lcnt(nbins, 0);
  std::vector<nnz_t> lskip(masked ? nbins : 0, 0);
  nnz_t flushes = 0;

  auto flush = [&](std::size_t bin) {
    const int count = lcnt[bin];
    const nnz_t pos = cursor[bin].fetch_add(count, std::memory_order_relaxed);
    flush_copy(out_keys + pos,
               lkeys.data() + bin * static_cast<std::size_t>(cap), count,
               cfg.streaming_stores);
    flush_copy(out_vals + pos,
               lvals.data() + bin * static_cast<std::size_t>(cap), count,
               cfg.streaming_stores);
    lcnt[bin] = 0;
    ++flushes;
    sink.flushed(bin, count);
    if (masked && lskip[bin] != 0) {
      sink.skipped(bin, lskip[bin]);
      lskip[bin] = 0;
    }
  };

#pragma omp for schedule(guided) nowait
  for (index_t i = 0; i < a.ncols; ++i) {
    // Cooperative cancellation at column granularity (`break` is illegal
    // in an omp for; skipped columns just leave their bins short, and the
    // caller raises the typed error after the join).
    if (stop_requested(cfg.cancel)) continue;
    const auto arows = a.col_rows(i);
    const auto avals = a.col_vals(i);
    const auto bcols = b.row_cols(i);
    const auto bvals = b.row_vals(i);
    if (bcols.empty()) continue;

    for (std::size_t ai = 0; ai < arows.size(); ++ai) {
      const index_t r = arows[ai];
      const value_t av = avals[ai];
      const int bin_i = fast_binid<P>(layout, r);
      const auto bin = static_cast<std::size_t>(bin_i);
      // The row bits are constant across B(i,:): build them once.
      const narrow_key_t rowkey =
          static_cast<narrow_key_t>(
              fast_local_row<P>(layout, bin_i, r, mod_shift))
          << col_bits;
      narrow_key_t* klane = lkeys.data() + bin * static_cast<std::size_t>(cap);
      value_t* vlane = lvals.data() + bin * static_cast<std::size_t>(cap);
      if (masked) {
        const auto mrow = emask.csr->row_cols(r);
        if (mrow.empty() && !emask.complement) {
          lskip[bin] += static_cast<nnz_t>(bcols.size());
          continue;
        }
        lskip[bin] += masked_scan(bcols, mrow, emask.complement,
                                  [&](std::size_t bi) {
                                    if (lcnt[bin] == cap) flush(bin);
                                    const int at = lcnt[bin]++;
                                    klane[at] =
                                        rowkey |
                                        static_cast<narrow_key_t>(bcols[bi]);
                                    vlane[at] = S::mul(av, bvals[bi]);
                                  });
        continue;
      }
      for (std::size_t bi = 0; bi < bcols.size(); ++bi) {
        if (lcnt[bin] == cap) flush(bin);
        const int at = lcnt[bin]++;
        klane[at] = rowkey | static_cast<narrow_key_t>(bcols[bi]);
        vlane[at] = S::mul(av, bvals[bi]);
      }
    }
  }

  for (std::size_t bin = 0; bin < nbins; ++bin) {
    if (lcnt[bin] != 0) flush(bin);
    if (masked && lskip[bin] != 0) {
      sink.skipped(bin, lskip[bin]);
      lskip[bin] = 0;
    }
  }
  flush_fence();
  return flushes;
}

// Key-only expand: the stream carries nothing but the 8-byte global key —
// there is no value lane anywhere, so the multiply S::mul disappears and
// the kernel needs no semiring parameter at all.  Legal only when the
// caller established the semiring is value-free (pb/tuple.hpp).  Local
// bin capacity is rounded to 8 keys so a full flush is whole 64 B lines,
// keeping the non-temporal path of flush_copy.  Team-callable; same
// contract as expand_team.
template <BinPolicy P, typename Sink>
nnz_t expand_keyonly_team(const mtx::CscMatrix& a, const mtx::CsrMatrix& b,
                          const SymbolicResult& sym, const PbConfig& cfg,
                          wide_key_t* out_keys, std::atomic<nnz_t>* cursor,
                          Sink& sink, const MaskSpec& emask = {}) {
  const BinLayout& layout = sym.layout;
  const auto nbins = static_cast<std::size_t>(layout.nbins);
  const int cap = std::max<int>(
      8, cfg.local_bin_bytes / static_cast<int>(kBytesPerTupleKeyOnly) / 8 * 8);
  const bool masked = emask.active();

  AlignedBuffer<wide_key_t> lkeys(nbins * static_cast<std::size_t>(cap));
  std::vector<int> lcnt(nbins, 0);
  std::vector<nnz_t> lskip(masked ? nbins : 0, 0);
  nnz_t flushes = 0;

  auto flush = [&](std::size_t bin) {
    const int count = lcnt[bin];
    const nnz_t pos = cursor[bin].fetch_add(count, std::memory_order_relaxed);
    flush_copy(out_keys + pos,
               lkeys.data() + bin * static_cast<std::size_t>(cap), count,
               cfg.streaming_stores);
    lcnt[bin] = 0;
    ++flushes;
    sink.flushed(bin, count);
    if (masked && lskip[bin] != 0) {
      sink.skipped(bin, lskip[bin]);
      lskip[bin] = 0;
    }
  };

#pragma omp for schedule(guided) nowait
  for (index_t i = 0; i < a.ncols; ++i) {
    // Cooperative cancellation at column granularity (`break` is illegal
    // in an omp for; skipped columns just leave their bins short, and the
    // caller raises the typed error after the join).
    if (stop_requested(cfg.cancel)) continue;
    const auto arows = a.col_rows(i);
    const auto bcols = b.row_cols(i);
    if (bcols.empty()) continue;

    for (std::size_t ai = 0; ai < arows.size(); ++ai) {
      const index_t r = arows[ai];
      const auto bin = static_cast<std::size_t>(fast_binid<P>(layout, r));
      // The row half of the key is constant across B(i,:): build it once.
      const wide_key_t rowkey =
          static_cast<wide_key_t>(static_cast<std::uint32_t>(r)) << 32;
      wide_key_t* lane = lkeys.data() + bin * static_cast<std::size_t>(cap);
      if (masked) {
        const auto mrow = emask.csr->row_cols(r);
        if (mrow.empty() && !emask.complement) {
          lskip[bin] += static_cast<nnz_t>(bcols.size());
          continue;
        }
        lskip[bin] += masked_scan(bcols, mrow, emask.complement,
                                  [&](std::size_t bi) {
                                    if (lcnt[bin] == cap) flush(bin);
                                    lane[lcnt[bin]++] =
                                        rowkey |
                                        static_cast<std::uint32_t>(bcols[bi]);
                                  });
        continue;
      }
      for (std::size_t bi = 0; bi < bcols.size(); ++bi) {
        if (lcnt[bin] == cap) flush(bin);
        lane[lcnt[bin]++] =
            rowkey | static_cast<std::uint32_t>(bcols[bi]);
      }
    }
  }

  for (std::size_t bin = 0; bin < nbins; ++bin) {
    if (lcnt[bin] != 0) flush(bin);
    if (masked && lskip[bin] != 0) {
      sink.skipped(bin, lskip[bin]);
      lskip[bin] = 0;
    }
  }
  flush_fence();
  return flushes;
}

}  // namespace detail

}  // namespace pbs::pb
