// Per-bin task-dataflow execution of a PB plan — the body of pb_execute
// (plan_impl.hpp checks the arguments and calls pb_execute_pipeline).
//
// Paper Algorithm 2 fixes the per-bin work — expand, then sort, compress
// and convert each bin — not barriers between the phases.  Run as three
// team-wide loops, every thread would wait for the slowest thread of
// every phase, and the whole Cˆ buffer would go cold between the expand
// that wrote a bin and the sort that reads it.  But the dependence
// structure is per bin, not per phase: bin b is sortable the moment the
// *last* chunk that writes into b is done, regardless of how much
// expanding remains elsewhere.  This file exploits that, at every thread
// count:
//
//   - expand runs expand.hpp's team body over the plan's chunks; a done
//     chunk credits each bin it wrote with its slice's planned size, and
//     the credit that completes a bin's fill publishes the bin to the
//     crediting thread's work-stealing deque (common/parallel.hpp),
//   - every thread, after finishing its share of expand, becomes a
//     worker: pop own deque LIFO (the Chase–Lev deque's owner end), else
//     steal FIFO from a victim, running each bin's sort + compress +
//     mask filter + CSR row count as one task,
//   - the row count folds into the task (the paper's convert pass 1),
//     reading the survivors while they are cache-hot; only the prefix
//     sum and the scatter (pass 2) remain as a short tail after the
//     region.
//
// Every stage is written once against the tuple stream (pb/tuple.hpp):
// pb_execute_pipeline switches on the plan's format once, at its entry,
// and run_pipeline<F, S> instantiates expand.hpp's body, sort_compress.hpp's
// BinOps, output.hpp's count and scatter and output_accum.hpp's builder for
// that format.
//
// Memory-ordering contract (the reason this is TSan-clean by design):
// a chunk's tuple stores and its slices' written counts are ordered before
// its credits, the done counters' fetch_adds (acq_rel, preceded by one
// sfence for the non-temporal stores); the completing credit joins the
// same RMW chain, so by the release-sequence rule every chunk's stores
// into the bin happen-before the completion; the deque's release/acquire
// handoff then carries that ordering to whichever worker pops or steals
// the bin.
#pragma once

#include <omp.h>

#include <algorithm>
#include <atomic>
#include <cstring>
#include <exception>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "common/cancel.hpp"
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
// Returns the bin's tuple count.  Only slices with a planned size are
// read: a chunk that plans none of the bin's tuples never credits it, so
// it may still be running.
template <TupleFormat F>
nnz_t compact_slices(StreamSpan<F> stream, const SymbolicResult& sym,
                     const nnz_t* written, int bin) {
  using Key = typename StreamTraits<F>::Key;
  const nnz_t off = sym.bin_offsets[static_cast<std::size_t>(bin)];
  nnz_t at = off;
  for (int c = 0; c < sym.nchunks(); ++c) {
    const std::size_t s = sym.slice(c, bin);
    if (sym.slice_fill[s] == 0) continue;
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

// Per-thread accounting of the pipelined region, reduced into PbTelemetry
// after the join.
struct PipelineThreadStats {
  double expand_busy = 0;
  double sort_busy = 0;
  double compress_busy = 0;
  double count_busy = 0;
  double wait = 0;  ///< Σ over processed bins of (task start − ready)
  double run = 0;   ///< Σ task durations
  nnz_t dropped = 0;       ///< mask-filter drops in this thread's tasks
  nnz_t post_dropped = 0;  ///< post-op drops in this thread's tasks
  int stolen = 0;
};

/// The body of pb_execute for one tuple format (fingerprint, mask shape
/// and epilogue already checked by the caller).  One thread runs the same
/// task list: it expands everything, publishing bins to its own deque,
/// then drains it.
///
/// Robustness: an internal abort token (linked to the caller's `cancel`)
/// is the region's single unwind signal.  Expand polls it per column, the
/// worker loop per iteration; any in-region exception is captured once,
/// fires the abort, and every thread drains to the join — throwing across
/// an OpenMP region boundary is undefined, and a cancelled expand leaves
/// bins forever unpublished, so the steal loop must not wait on
/// bins_remaining alone.
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
  // When it engages, the done counters still reach the symbolic fill marks
  // — a chunk credits its slices' planned sizes — but the slices may end
  // short, so a task compacts its bin's slices and takes its length from
  // their written counts, and the compress-stage filter is disabled
  // (survivors are in-mask by construction).
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

  std::vector<std::atomic<nnz_t>> done(nbins);  // credited tuples per bin
  for (auto& d : done) d.store(0, std::memory_order_relaxed);
  std::vector<nnz_t> written(sym.slice_fill.size(), 0);
  std::vector<double> ready_ts(nbins, 0.0);
  std::vector<int> completer(nbins, -1);
  std::vector<nnz_t> merged(nbins, 0);

  int nonempty = 0;
  nnz_t max_bin = 0;
  for (std::size_t bin = 0; bin < nbins; ++bin) {
    if (sym.bin_fill[bin] != 0) ++nonempty;
    max_bin = std::max(max_bin, sym.bin_fill[bin]);
  }
  std::atomic<int> bins_remaining{nonempty};

  // One deque per thread; a bin enters exactly one deque (its completer's),
  // so per-deque capacity nbins can never overflow.
  std::vector<std::unique_ptr<WorkStealingDeque<int>>> deques(
      static_cast<std::size_t>(nthreads));
  for (auto& d : deques) {
    d = std::make_unique<WorkStealingDeque<int>>(std::max<std::size_t>(nbins, 1));
  }

  std::vector<PipelineThreadStats> tstats(static_cast<std::size_t>(nthreads));

  // Single unwind signal for the whole region (see the function comment);
  // expand polls it per column.
  CancelToken abort;
  abort.link(cancel);
  std::exception_ptr error;

  // The result CSR is built incrementally: tasks count rows into
  // rowptr[row + 1] while their bin is cache-hot (race-free — no row spans
  // two bins), and only the prefix sum + scatter run after the join.
  mtx::CsrMatrix c(a.nrows, b.ncols);

  const BinOps<F, S> ops{stream, &cmask, &epi.post_op, &sym.layout,
                         sym.col_bits};

  Timer region_timer;

#pragma omp parallel num_threads(nthreads)
  {
    const int tid = omp_get_thread_num();
    const auto utid = static_cast<std::size_t>(tid);
    PipelineThreadStats& ts = tstats[utid];

    // Per-thread sort scratch, acquired once (slot reuse across tasks).
    // Acquisition can throw (budget rejection, injected OOM); the thread
    // must still reach expand's worksharing construct, so failure is
    // captured here and the thread runs the region as a no-op.
    bool ok = true;
    StreamSpan<F> scratch;
    try {
      scratch = workspace.acquire_scratch<F>(
          utid, static_cast<std::size_t>(max_bin));
    } catch (...) {
      ok = false;
#pragma omp critical(pbs_pipeline_error)
      {
        if (error == nullptr) error = std::current_exception();
      }
      abort.request_cancel();
    }

    // One bin's task: sort + compress + mask filter + row count, back to
    // back while the bin is cache-hot.
    auto run_task = [&](int bin) {
      FaultInjector::on_bin();
      const auto ubin = static_cast<std::size_t>(bin);
      const double t0 = omp_get_wtime();
      const nnz_t off = sym.bin_offsets[ubin];
      // A masked expand generates fewer tuples than flop: the bin's length
      // is then its slices' written counts, each stored before its chunk's
      // credit (see the memory-ordering contract).
      const auto len = static_cast<std::size_t>(
          expand_masked ? compact_slices(stream, sym, written.data(), bin)
                        : sym.bin_fill[ubin]);

      double t1 = t0;
      nnz_t kept = 0;
      nnz_t pre_mask = 0;
      nnz_t kept_mask = 0;
      // A fully masked bin completes with every slice empty: nothing to
      // sort (the kernels assume non-empty bins), nothing to count.
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
      ts.wait += std::max(0.0, t0 - ready_ts[ubin]);
      ts.run += t3 - t0;
      if (completer[ubin] != tid) ++ts.stolen;
      bins_remaining.fetch_sub(1, std::memory_order_acq_rel);
    };

    // Task exceptions must not cross the region join: capture the first,
    // fire the abort, and let every worker drain out.
    auto try_run = [&](int bin) {
      try {
        run_task(bin);
      } catch (...) {
#pragma omp critical(pbs_pipeline_error)
        {
          if (error == nullptr) error = std::current_exception();
        }
        abort.request_cancel();
      }
    };

    // A done chunk credits every bin it wrote with its slice's planned
    // size; the credit that completes a bin publishes it to this thread's
    // deque.
    auto credit_chunk = [&](int chunk) {
      for (std::size_t bin = 0; bin < nbins; ++bin) {
        const nnz_t n = sym.slice_fill[sym.slice(chunk, 0) + bin];
        if (n == 0) continue;
        const nnz_t prev = done[bin].fetch_add(n, std::memory_order_acq_rel);
        if (prev + n == sym.bin_fill[bin]) {
          ready_ts[bin] = omp_get_wtime();
          completer[bin] = tid;
          deques[utid]->push(static_cast<int>(bin));
        }
      }
    };

    // Expand this thread's chunks, interleaved (by the credits) with
    // publishing completed bins.  `omp for nowait` inside: threads fall
    // straight through to the worker loop.
    const double e0 = omp_get_wtime();
    expand_team<F, S>(a, b, sym, plan.cfg, stream, written.data(),
                      credit_chunk, emask, &abort);
    ts.expand_busy = omp_get_wtime() - e0;

    // Worker loop: own deque first (LIFO, the deque's owner end), then
    // steal FIFO round-robin.  Runs until every nonempty bin has been
    // processed by someone — or the abort fires (a cancelled expand
    // leaves bins unpublished, so bins_remaining alone would spin
    // forever).
    int bin = -1;
    while (ok && bins_remaining.load(std::memory_order_acquire) > 0) {
      if (abort.stop_requested_now()) break;
      if (deques[utid]->pop(bin)) {
        try_run(bin);
        continue;
      }
      bool got = false;
      for (int k = 1; k < nthreads && !got; ++k) {
        got = deques[static_cast<std::size_t>((tid + k) % nthreads)]->steal(
            bin);
      }
      if (got) {
        try_run(bin);
      } else {
        // Bins still in flight inside other threads' expand: let them run.
        std::this_thread::yield();
      }
    }
  }

  // Unwind before the validate pass: a cancelled or faulted region leaves
  // slices unwritten and done counters legitimately short of their fill
  // marks, and the typed error must win over the (misleading) logic_error.
  if (error != nullptr) std::rethrow_exception(error);
  throw_if_stopped(cancel);

  if (plan.cfg.validate) {
    // A masked expand legitimately leaves a slice short of its planned
    // size (rejected tuples were never written); it must still never
    // overshoot.
    for (std::size_t s = 0; s < written.size(); ++s) {
      const nnz_t planned = sym.slice_fill[s];
      if (expand_masked ? written[s] > planned : written[s] != planned) {
        throw std::logic_error(
            "pb_execute: chunk " + std::to_string(s / nbins) + " wrote " +
            std::to_string(written[s]) + " of its " +
            std::to_string(planned) + " planned tuples into bin " +
            std::to_string(s % nbins));
      }
    }
    for (std::size_t bin = 0; bin < nbins; ++bin) {
      if (done[bin].load(std::memory_order_relaxed) != sym.bin_fill[bin]) {
        throw std::logic_error("pb_execute: bin " + std::to_string(bin) +
                               " done counter does not meet its fill mark");
      }
    }
  }

  const double region_wall = region_timer.elapsed_s();

  // ---- tail: prefix sum + scatter (the only barrier left); with an
  // accumulate epilogue the tail is the fused union build instead
  // (output_accum.hpp — count + prefix + merge-scatter against C_old) ----
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
  // Per-phase seconds are max per-thread *busy* times: they overlap one
  // another inside the region, so their sum can exceed wall_seconds — that
  // surplus is exactly what overlap_seconds() reports.  The Table III byte
  // models count traffic, not scheduling.
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
  for (const auto& ts : tstats) {
    tm.expand.seconds = std::max(tm.expand.seconds, ts.expand_busy);
    tm.sort.seconds = std::max(tm.sort.seconds, ts.sort_busy);
    tm.compress.seconds = std::max(tm.compress.seconds, ts.compress_busy);
    tm.convert.seconds = std::max(tm.convert.seconds, ts.count_busy);
    tm.bin_wait_seconds += ts.wait;
    tm.bin_run_seconds += ts.run;
    tm.bins_stolen += ts.stolen;
    tm.mask_dropped += ts.dropped;
    tm.post_dropped += ts.post_dropped;
  }
  tm.convert.seconds += tail_wall;
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
