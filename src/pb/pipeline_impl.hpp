// The body of pb_execute (plan_impl.hpp checks the arguments and calls
// pb_execute_pipeline): the paper's phases (Algorithm 2), run in one
// parallel region.
//
//   - expand: the team takes the plan's chunks of A's columns
//     dynamically (expand.hpp); every chunk writes its own slice of every
//     bin, so a bin is complete only when the last chunk is.  Each thread
//     issues one sfence after its last chunk, and the team meets at one
//     `omp barrier`, the only cross-thread handoff of the region;
//   - the bins: `omp for schedule(dynamic, 1)` over the nonempty bins,
//     each running sort + compress + mask filter + post-op + CSR row
//     count back to back while the bin is cache-hot (the row count is the
//     paper's convert pass 1);
//   - the tail, after the region: the prefix sum and the scatter (convert
//     pass 2).
//
// Every stage is written once against the tuple stream (pb/tuple.hpp):
// pb_execute_pipeline switches on the plan's format once, at its entry,
// and run_pipeline<F, S> instantiates expand.hpp's body, sort_compress.hpp's
// BinOps, output.hpp's count and scatter and output_accum.hpp's builder for
// that format.
#pragma once

#include <omp.h>

#include <algorithm>
#include <cstring>
#include <exception>
#include <stdexcept>
#include <vector>

#include "common/cancel.hpp"
#include "common/errors.hpp"
#include "common/fault.hpp"
#include "common/huge_pages.hpp"
#include "common/parallel.hpp"
#include "common/prefix_sum.hpp"
#include "common/timer.hpp"
#include "pb/expand.hpp"
#include "pb/output.hpp"
#include "pb/output_accum.hpp"
#include "pb/plan.hpp"
#include "pb/sort_compress.hpp"

namespace pbs::pb {

namespace detail {

// A masked expand may leave its slices short of their planned sizes:
// move each slice's written tuples down against the previous one, in
// chunk order, so bin `bin` holds them contiguously from its region start.
// Returns the bin's tuple count.
template <TupleFormat F>
nnz_t compact_slices(StreamSpan<F> stream, const SymbolicResult& sym,
                     const nnz_t* written, int bin) {
  using Key = typename StreamTraits<F>::Key;
  const nnz_t off = sym.bin_offsets[static_cast<std::size_t>(bin)];
  nnz_t at = off;
  for (int c = 0; c < sym.nchunks(); ++c) {
    const std::size_t s = sym.slice(c, bin);
    const nnz_t from = sym.slice_offsets[s];
    const auto n = static_cast<std::size_t>(written[s]);
    if (from != at && n != 0) {
      std::memmove(stream.keys + at, stream.keys + from, n * sizeof(Key));
      if constexpr (has_values(F)) {
        std::memmove(stream.vals + at, stream.vals + from,
                     n * sizeof(value_t));
      }
    }
    at += written[s];
  }
  return at - off;
}

// Per-thread accounting of the region, reduced into PbTelemetry after the
// join.
struct PipelineThreadStats {
  double sort_busy = 0;
  double compress_busy = 0;
  double count_busy = 0;
  double wait = 0;  ///< Σ over this thread's bins of (claimed − barrier)
  nnz_t dropped = 0;       ///< mask-filter drops in this thread's bins
  nnz_t post_dropped = 0;  ///< post-op drops in this thread's bins
  bool stale = false;      ///< a chunk of this thread missed its slices
};

/// The body of pb_execute for one tuple format (fingerprint, mask shape
/// and epilogue already checked by the caller).
///
/// Robustness: an internal abort token (linked to the caller's `cancel`)
/// is the region's single unwind signal.  Expand polls it per column, the
/// bin loop per bin; a scratch-acquire failure or a bin's exception is
/// captured once and fires it, and so does a chunk that misses its slices
/// (a stale plan).  Every thread still reaches both worksharing
/// constructs — throwing across an OpenMP region boundary is undefined —
/// and the first captured error, the caller's cancellation or the stale
/// plan is raised after the join, in that order.
template <TupleFormat F, typename S>
PbResult run_pipeline(const mtx::CscMatrix& a, const mtx::CsrMatrix& b,
                      const PbPlan& plan, PbWorkspace& workspace,
                      const MaskSpec& mask, const CancelToken* cancel,
                      const PbEpilogue& epi) {
  const SymbolicResult& sym = plan.sym;
  const auto nbins = static_cast<std::size_t>(sym.layout.nbins);
  const int nthreads = max_threads();

  PbResult result;
  PbTelemetry& tm = result.stats;
  tm.flop = sym.flop;
  tm.nbins = sym.layout.nbins;
  tm.rows_per_bin = sym.layout.rows_per_bin();
  tm.format = sym.format;
  tm.schedule = PbSchedule::kPipeline;
  const double bpt = tm.tuple_bytes();

  // Fused expand-time mask (a per-run decision: the mask is run state).
  // When it engages the slices may end short, so a bin compacts its slices
  // and takes its length from their written counts, and the compress-stage
  // filter is disabled (survivors are in-mask by construction).
  const bool expand_masked =
      engage_expand_mask(mask, plan.cfg, a.nrows, b.ncols);
  const MaskSpec emask = expand_masked ? mask : MaskSpec{};
  const MaskSpec cmask = expand_masked ? MaskSpec{} : mask;
  const bool accumulating = epi.accumulate != nullptr;

  // Phase fault hooks fire on the calling thread, outside the region, so an
  // injected fault never crosses the OpenMP join: expand and sort_compress
  // here (the region runs both), convert before the tail.
  FaultInjector::at(FaultPoint::kExpand);
  FaultInjector::at(FaultPoint::kSortCompress);

  // ---- shared state ----
  const auto buf_len = static_cast<std::size_t>(sym.bin_offsets.back());
  const StreamSpan<F> stream = workspace.acquire<F>(buf_len);
  workspace.place_bins(sym.bin_offsets, sym.bin_home, F);
  workspace.prepare_scratch(nthreads);

  std::vector<nnz_t> written(sym.slice_fill.size(), 0);
  std::vector<nnz_t> merged(nbins, 0);
  std::vector<int> nonempty;  // the bin loop's iterations
  nnz_t max_bin = 0;
  for (std::size_t bin = 0; bin < nbins; ++bin) {
    if (sym.bin_fill[bin] != 0) nonempty.push_back(static_cast<int>(bin));
    max_bin = std::max(max_bin, sym.bin_fill[bin]);
  }
  const auto nwork = static_cast<int>(nonempty.size());

  std::vector<PipelineThreadStats> tstats(static_cast<std::size_t>(nthreads));

  // Single unwind signal for the whole region (see the function comment).
  CancelToken abort;
  abort.link(cancel);
  std::exception_ptr error;
  auto capture = [&] {
#pragma omp critical(pbs_pipeline_error)
    {
      if (error == nullptr) error = std::current_exception();
    }
    abort.request_cancel();
  };

  // The result CSR is built incrementally: bins count rows into
  // rowptr[row + 1] while they are cache-hot (race-free — no row spans
  // two bins), and only the prefix sum + scatter run after the join.
  mtx::CsrMatrix c(a.nrows, b.ncols);

  const BinOps<F, S> ops{stream, &cmask, &epi.post_op, &sym.layout,
                         sym.col_bits};

  Timer region_timer;
  double expand_wall = 0;

#pragma omp parallel num_threads(nthreads)
  {
    const auto utid = static_cast<std::size_t>(omp_get_thread_num());
    PipelineThreadStats& ts = tstats[utid];

    // Per-thread sort scratch, acquired once (slot reuse across bins).
    // Acquisition can throw (budget rejection, injected OOM); the thread
    // must still reach both worksharing constructs, so failure is
    // captured here and the thread runs the region as a no-op.
    bool ok = true;
    StreamSpan<F> scratch;
    try {
      scratch = workspace.acquire_scratch<F>(
          utid, static_cast<std::size_t>(max_bin));
    } catch (...) {
      ok = false;
      capture();
    }

    // One bin: sort + compress + mask filter + post-op + row count, back
    // to back while the bin is cache-hot.
    auto run_bin = [&](int bin) {
      FaultInjector::on_bin();
      const auto ubin = static_cast<std::size_t>(bin);
      const double t0 = omp_get_wtime();
      const nnz_t off = sym.bin_offsets[ubin];
      // A masked expand generates fewer tuples than flop: the bin's length
      // is then its slices' written counts.
      const auto len = static_cast<std::size_t>(
          expand_masked ? compact_slices(stream, sym, written.data(), bin)
                        : sym.bin_fill[ubin]);

      double t1 = t0;
      nnz_t kept = 0;
      nnz_t pre_mask = 0;
      nnz_t kept_mask = 0;
      // A fully masked bin ends with every slice empty: nothing to sort
      // (the kernels assume non-empty bins), nothing to count.
      if (len != 0) {
        ops.sort(off, len, scratch);
        t1 = omp_get_wtime();
        pre_mask = ops.compress(off, len);
        kept_mask = ops.filter(bin, off, pre_mask);
        kept = ops.post_apply(bin, off, kept_mask);
      }
      merged[ubin] = kept;
      ts.dropped += pre_mask - kept_mask;
      ts.post_dropped += kept_mask - kept;
      const double t2 = omp_get_wtime();

      // The folded row count is skipped when accumulating: the union count
      // needs C_old's rows too, and the accumulate tail walks both streams
      // anyway (output_accum.hpp).
      if (!accumulating && kept != 0) {
        pb_count_bin(ops.tuples(bin, off), kept, c.rowptr.data());
      }
      const double t3 = omp_get_wtime();
      ts.sort_busy += t1 - t0;
      ts.compress_busy += t2 - t1;
      ts.count_busy += t3 - t2;
    };

    ts.stale = expand_team<F, S>(a, b, sym, plan.cfg, stream, written.data(),
                                 emask, &abort)
                   .stale;

#pragma omp barrier
#pragma omp master
    expand_wall = region_timer.elapsed_s();
    const double ready = omp_get_wtime();

#pragma omp for schedule(dynamic, 1)
    for (int k = 0; k < nwork; ++k) {
      if (!ok || abort.stop_requested_now()) continue;
      ts.wait += omp_get_wtime() - ready;
      try {
        run_bin(nonempty[static_cast<std::size_t>(k)]);
      } catch (...) {
        capture();
      }
    }
  }
  const double region_wall = region_timer.elapsed_s();

  if (error != nullptr) std::rethrow_exception(error);
  throw_if_stopped(cancel);
  for (const PipelineThreadStats& ts : tstats) {
    if (ts.stale) {
      throw StaleLayoutError(
          "pb_execute: the operands' tuples do not fit the plan's slices "
          "(their structure changed since the plan was built)");
    }
  }

  // ---- tail: prefix sum + scatter; with an accumulate epilogue the tail
  // is the fused union build instead (output_accum.hpp — count + prefix +
  // merge-scatter against C_old) ----
  FaultInjector::at(FaultPoint::kConvert);
  Timer tail_timer;
  if (accumulating) {
    result.c = build_csr_accum<S>(stream, sym.col_bits, sym.bin_offsets,
                                  merged, *epi.accumulate, sym.layout,
                                  a.nrows, b.ncols, cancel);
  } else {
    const nnz_t total =
        counts_to_rowptr(c.rowptr.data(), static_cast<std::size_t>(a.nrows));
    resize_on_huge_pages(c.colids, static_cast<std::size_t>(total));
    resize_on_huge_pages(c.vals, static_cast<std::size_t>(total));
#pragma omp parallel for schedule(dynamic, 1)
    for (int bin = 0; bin < sym.layout.nbins; ++bin) {
      // Deadline may expire inside the tail: skip the remaining bins (the
      // partial CSR is discarded) and raise after the join.
      if (stop_requested(cancel)) continue;
      const auto ubin = static_cast<std::size_t>(bin);
      pb_scatter_bin(ops.tuples(bin, sym.bin_offsets[ubin]), merged[ubin],
                     c.rowptr.data(), c.colids.data(), c.vals.data());
    }
    result.c = std::move(c);
  }
  throw_if_stopped(cancel);
  const double tail_wall = tail_timer.elapsed_s();

  // ---- telemetry ----
  // The phase seconds are walls that sum to wall_seconds: expand up to the
  // barrier, the bin loop split by the team's busy seconds in each stage,
  // the tail added to convert.  The Table III byte models count traffic,
  // not scheduling.
  tm.wall_seconds = region_wall + tail_wall;
  nnz_t nnz_c = 0;
  for (const nnz_t m : merged) nnz_c += m;
  tm.nnz_c = nnz_c;
  // Tuples this run actually generated (== flop unless expand masked).
  nnz_t generated = sym.flop;
  if (expand_masked) {
    generated = 0;
    for (const nnz_t w : written) generated += w;
    tm.mask_skipped_expand = sym.flop - generated;
    tm.expand_masked = true;
  }
  double sort_busy = 0;
  double compress_busy = 0;
  double count_busy = 0;
  for (const PipelineThreadStats& ts : tstats) {
    sort_busy += ts.sort_busy;
    compress_busy += ts.compress_busy;
    count_busy += ts.count_busy;
    tm.bin_wait_seconds += ts.wait;
    tm.mask_dropped += ts.dropped;
    tm.post_dropped += ts.post_dropped;
  }
  const double bins_wall = region_wall - expand_wall;
  const double busy = sort_busy + compress_busy + count_busy;
  tm.expand.seconds = expand_wall;
  if (busy > 0) {
    tm.sort.seconds = bins_wall * (sort_busy / busy);
    tm.compress.seconds = bins_wall * (compress_busy / busy);
  }
  tm.convert.seconds =
      bins_wall - tm.sort.seconds - tm.compress.seconds + tail_wall;
  tm.expand.bytes =
      static_cast<double>(kBytesPerTuple) *
          (static_cast<double>(a.nnz()) + static_cast<double>(b.nnz())) +
      bpt * static_cast<double>(generated);
  tm.sort.bytes = bpt * static_cast<double>(generated);
  tm.compress.bytes =
      bpt * static_cast<double>(nnz_c + tm.mask_dropped + tm.post_dropped);
  tm.convert.bytes =
      (bpt + static_cast<double>(sizeof(index_t) + sizeof(value_t))) *
          static_cast<double>(nnz_c) +
      2.0 * static_cast<double>(sizeof(nnz_t)) * static_cast<double>(a.nrows);
  if (accumulating) {
    const auto entry = static_cast<double>(sizeof(index_t) + sizeof(value_t));
    tm.convert.bytes +=
        entry * static_cast<double>(epi.accumulate->nnz()) +      // C_old in
        entry * static_cast<double>(result.c.nnz() - nnz_c);      // extra out
  }

  return result;
}

}  // namespace detail

/// The body of pb_execute (plan_impl.hpp): the one switch on the tuple
/// format, into the pipeline instantiated for it.
template <typename S>
PbResult pb_execute_pipeline(const mtx::CscMatrix& a, const mtx::CsrMatrix& b,
                             const PbPlan& plan, PbWorkspace& workspace,
                             const MaskSpec& mask,
                             const CancelToken* cancel = nullptr,
                             const PbEpilogue& epi = {}) {
  switch (plan.sym.format) {
    case TupleFormat::kWide:
      return detail::run_pipeline<TupleFormat::kWide, S>(
          a, b, plan, workspace, mask, cancel, epi);
    case TupleFormat::kNarrow:
      return detail::run_pipeline<TupleFormat::kNarrow, S>(
          a, b, plan, workspace, mask, cancel, epi);
    case TupleFormat::kKeyOnly:
      return detail::run_pipeline<TupleFormat::kKeyOnly, S>(
          a, b, plan, workspace, mask, cancel, epi);
  }
  throw std::logic_error("pb_execute: unknown tuple format");
}

}  // namespace pbs::pb
