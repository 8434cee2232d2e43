#include "pb/symbolic.hpp"

#include <omp.h>

#include <algorithm>
#include <cassert>
#include <stdexcept>
#include <string>

#include "common/cache_info.hpp"
#include "common/numa.hpp"
#include "common/parallel.hpp"
#include "common/prefix_sum.hpp"

namespace pbs::pb {

namespace {

// Every flop pass reads b's row i for each inner index i of a: mismatched
// inner dimensions must fail here, not read past b.rowptr.
void check_inner_dims(const char* fn, index_t a_ncols, index_t b_nrows) {
  if (a_ncols != b_nrows) {
    throw std::invalid_argument(std::string(fn) +
                                ": inner dimensions differ (" +
                                std::to_string(a_ncols) + " vs " +
                                std::to_string(b_nrows) + ")");
  }
}

}  // namespace

nnz_t pb_count_flop(const mtx::CscMatrix& a, const mtx::CsrMatrix& b) {
  check_inner_dims("pb_count_flop", a.ncols, b.nrows);
  nnz_t flop = 0;
#pragma omp parallel for reduction(+ : flop) schedule(static)
  for (index_t i = 0; i < a.ncols; ++i) {
    flop += a.col_nnz(i) * b.row_nnz(i);
  }
  return flop;
}

std::vector<nnz_t> pb_row_flops(const mtx::CscMatrix& a,
                                const mtx::CsrMatrix& b) {
  check_inner_dims("pb_row_flops", a.ncols, b.nrows);
  std::vector<nnz_t> flops(static_cast<std::size_t>(a.nrows), 0);
#pragma omp parallel for schedule(guided)
  for (index_t i = 0; i < a.ncols; ++i) {
    const nnz_t weight = b.row_nnz(i);
    if (weight == 0) continue;
    for (const index_t r : a.col_rows(i)) {
#pragma omp atomic
      flops[static_cast<std::size_t>(r)] += weight;
    }
  }
  return flops;
}

NnzEstimate pb_estimate_nnz_c(const mtx::CsrMatrix& a, const mtx::CsrMatrix& b,
                              std::span<const nnz_t> row_flops,
                              const mtx::CsrMatrix* mask) {
  check_inner_dims("pb_estimate_nnz_c", a.ncols, b.nrows);
  if (row_flops.size() != static_cast<std::size_t>(a.nrows)) {
    throw std::invalid_argument(
        "pb_estimate_nnz_c: row_flops has " +
        std::to_string(row_flops.size()) + " entries for " +
        std::to_string(a.nrows) + " rows");
  }
  if (mask != nullptr && (mask->nrows != a.nrows || mask->ncols != b.ncols)) {
    throw std::invalid_argument("pb_estimate_nnz_c: mask is not shaped like "
                                "the product");
  }

  // The sample: every stride-th row that receives flop (see the header).
  constexpr nnz_t kMinBudget = nnz_t{1} << 16;
  nnz_t flop = 0;
  for (const nnz_t f : row_flops) flop += f;
  if (flop == 0) return {};
  const nnz_t budget = std::max(kMinBudget, flop / 32);
  const nnz_t stride = (flop + budget - 1) / budget;
  std::vector<index_t> rows;
  nnz_t busy_rows = 0;
  for (index_t r = 0; r < a.nrows; ++r) {
    if (row_flops[static_cast<std::size_t>(r)] != 0 &&
        busy_rows++ % stride == 0) {
      rows.push_back(r);
    }
  }

  const bool stamps =
      static_cast<nnz_t>(b.ncols) * max_threads() <= a.nnz() + b.nnz();
  const auto nsampled = static_cast<std::int64_t>(rows.size());
  nnz_t sampled_flop = 0;
  nnz_t sampled_nnz = 0;
  nnz_t sampled_kept = 0;
#pragma omp parallel reduction(+ : sampled_flop, sampled_nnz, sampled_kept)
  {
    // stamp[j] == r: column j already counted for row r.  Without stamps,
    // the row's columns are gathered, sorted and deduplicated instead.
    std::vector<index_t> stamp;
    std::vector<index_t> cols;
    if (stamps) stamp.assign(static_cast<std::size_t>(b.ncols), -1);
#pragma omp for schedule(dynamic, 16)
    for (std::int64_t s = 0; s < nsampled; ++s) {
      const index_t r = rows[static_cast<std::size_t>(s)];
      sampled_flop += row_flops[static_cast<std::size_t>(r)];
      if (stamps) {
        // Branch-free: whether a column repeats is data-dependent noise
        // to the branch predictor.
        nnz_t distinct = 0;
        for (const index_t k : a.row_cols(r)) {
          for (const index_t j : b.row_cols(k)) {
            auto& st = stamp[static_cast<std::size_t>(j)];
            distinct += st != r ? 1 : 0;
            st = r;
          }
        }
        sampled_nnz += distinct;
        if (mask == nullptr) continue;
        for (const index_t j : mask->row_cols(r)) {
          sampled_kept += stamp[static_cast<std::size_t>(j)] == r ? 1 : 0;
        }
      } else {
        cols.clear();
        for (const index_t k : a.row_cols(r)) {
          const auto bj = b.row_cols(k);
          cols.insert(cols.end(), bj.begin(), bj.end());
        }
        std::sort(cols.begin(), cols.end());
        cols.erase(std::unique(cols.begin(), cols.end()), cols.end());
        sampled_nnz += static_cast<nnz_t>(cols.size());
        if (mask == nullptr) continue;
        for (const index_t j : mask->row_cols(r)) {
          sampled_kept +=
              std::binary_search(cols.begin(), cols.end(), j) ? 1 : 0;
        }
      }
    }
  }

  // stride 1 samples every row: scale is exactly 1 and the count exact.
  const double scale =
      static_cast<double>(flop) / static_cast<double>(sampled_flop);
  NnzEstimate est;
  est.nnz = static_cast<nnz_t>(static_cast<double>(sampled_nnz) * scale + 0.5);
  est.masked =
      mask == nullptr
          ? est.nnz
          : static_cast<nnz_t>(static_cast<double>(sampled_kept) * scale + 0.5);
  return est;
}

namespace {

// Expand chunks per thread of the planning team: enough that a dynamic
// schedule evens out chunks of unequal cost, few enough that the
// per-chunk drains and slice checks stay negligible.
constexpr int kChunksPerThread = 4;

// Column bounds of `nchunks` chunks of about flop/nchunks each: chunk c
// ends after the first column at which the running flop reaches
// (c+1)/nchunks of the total.  A column heavier than a chunk's share
// leaves the chunks after it empty.  Each thread sums a static block of
// columns, then, knowing the flop before its block, cuts the bounds that
// fall inside it.  The block sums also give `flop`.
std::vector<index_t> chunk_columns(const mtx::CscMatrix& a,
                                   const mtx::CsrMatrix& b, int nchunks,
                                   nnz_t& flop) {
  std::vector<index_t> bounds(static_cast<std::size_t>(nchunks) + 1, a.ncols);
  bounds[0] = 0;
  const int nthreads = max_threads();
  std::vector<nnz_t> before(static_cast<std::size_t>(nthreads) + 1, 0);
#pragma omp parallel num_threads(nthreads)
  {
    const int t = omp_get_thread_num();
    const int nt = omp_get_num_threads();
    const auto lo = static_cast<index_t>(static_cast<nnz_t>(a.ncols) * t / nt);
    const auto hi =
        static_cast<index_t>(static_cast<nnz_t>(a.ncols) * (t + 1) / nt);
    nnz_t sum = 0;
    for (index_t i = lo; i < hi; ++i) sum += a.col_nnz(i) * b.row_nnz(i);
    before[static_cast<std::size_t>(t) + 1] = sum;
#pragma omp barrier
#pragma omp single
    {
      for (int k = 0; k < nt; ++k) {
        before[static_cast<std::size_t>(k) + 1] +=
            before[static_cast<std::size_t>(k)];
      }
      flop = before[static_cast<std::size_t>(nt)];
    }
    const nnz_t total = flop;
    nnz_t seen = before[static_cast<std::size_t>(t)];
    int c = 1;  // the first bound not yet reached before this block
    while (t > 0 && c < nchunks && seen * nchunks >= total * c) ++c;
    for (index_t i = lo; i < hi && c < nchunks; ++i) {
      seen += a.col_nnz(i) * b.row_nnz(i);
      while (c < nchunks && seen * nchunks >= total * c) {
        bounds[static_cast<std::size_t>(c++)] = i + 1;
      }
    }
  }
  return bounds;
}

// Per-chunk bin histogram: every nonzero A(r, i) of chunk c contributes
// nnz(B(i,:)) tuples to slice (c, bin of r).  Each chunk fills its own row.
// A static schedule, like the flop pass's: every plan of one structure
// gives a thread the same columns, which its cache may still hold.
std::vector<nnz_t> slice_histogram(const mtx::CscMatrix& a,
                                   const mtx::CsrMatrix& b,
                                   const SymbolicResult& sym) {
  const int nchunks = sym.nchunks();
  std::vector<nnz_t> fill(static_cast<std::size_t>(nchunks) *
                              static_cast<std::size_t>(sym.layout.nbins),
                          0);
#pragma omp parallel for schedule(static)
  for (int c = 0; c < nchunks; ++c) {
    nnz_t* hist = fill.data() + sym.slice(c, 0);
    for (index_t i = sym.chunk_cols[static_cast<std::size_t>(c)];
         i < sym.chunk_cols[static_cast<std::size_t>(c) + 1]; ++i) {
      const nnz_t weight = b.row_nnz(i);
      if (weight == 0) continue;
      for (const index_t r : a.col_rows(i)) {
        hist[sym.layout.binid(r)] += weight;
      }
    }
  }
  return fill;
}

}  // namespace

bool has_stored_zero(const std::vector<value_t>& vals) {
  bool found = false;
  const auto n = static_cast<std::ptrdiff_t>(vals.size());
#pragma omp parallel for reduction(|| : found)
  for (std::ptrdiff_t i = 0; i < n; ++i) {
    found = found || vals[static_cast<std::size_t>(i)] == 0.0;
  }
  return found;
}

namespace {

// Format selection.  The narrow format fits when every bin's varying key
// bits pack into 32; wide and key-only keys are 64 bits, which hold any
// local row beside any column, so they fit any geometry — key-only is
// only legal when the caller asserted the semiring is value-free
// (cfg.value_free).  Requests are preferences:
// an illegal or unfitting request falls back (keyonly -> the kAuto
// choice, narrow -> wide); the CLI enforces strictness for explicit
// user requests before planning.
TupleFormat pick_format(const BinLayout& layout, int col_bits,
                        const PbConfig& cfg) {
  const bool fits = layout.local_row_bits() + col_bits <= 32;
  switch (cfg.format) {
    case FormatPolicy::kWide:
      return TupleFormat::kWide;
    case FormatPolicy::kNarrow:
      return fits ? TupleFormat::kNarrow : TupleFormat::kWide;
    case FormatPolicy::kKeyOnly:
    case FormatPolicy::kAuto:
      if (cfg.value_free) return TupleFormat::kKeyOnly;
      return fits ? TupleFormat::kNarrow : TupleFormat::kWide;
  }
  return TupleFormat::kWide;
}

// The bin layout of an nrows-row product of `flop` tuples: cfg.nbins, or
// the paper's L2 rule when that is 0.  pb_symbolic and
// predict_tuple_format both build it here, so the prediction is exact.
BinLayout plan_layout(index_t nrows, nnz_t flop, const PbConfig& cfg) {
  const int target =
      cfg.nbins > 0 ? cfg.nbins : auto_nbins(flop, cache_info().l2_bytes);
  return make_range_layout(nrows, target);
}

}  // namespace

SymbolicResult pb_symbolic(const mtx::CscMatrix& a, const mtx::CsrMatrix& b,
                           const PbConfig& cfg) {
  if (a.ncols != b.nrows) {
    throw std::invalid_argument("pb_symbolic: inner dimensions differ (" +
                                std::to_string(a.ncols) + " vs " +
                                std::to_string(b.nrows) + ")");
  }

  SymbolicResult out;
  const int nchunks = static_cast<int>(std::min<index_t>(
      kChunksPerThread * max_threads(), a.ncols));
  out.chunk_cols = chunk_columns(a, b, nchunks, out.flop);

  out.layout = plan_layout(a.nrows, out.flop, cfg);
  out.col_bits = ceil_log2(static_cast<std::uint64_t>(b.ncols));
  // Key-only is only reachable under cfg.value_free, and the assertion is
  // about the *semiring*; the operands must also be free of explicit
  // stored zeros (see has_stored_zero) — downgrade the flag here, where
  // the values are in hand (predict_tuple_format has no operands and
  // predicts the common no-stored-zero case).
  PbConfig ecfg = cfg;
  if (ecfg.value_free &&
      (ecfg.format == FormatPolicy::kAuto ||
       ecfg.format == FormatPolicy::kKeyOnly) &&
      (has_stored_zero(a.vals) || has_stored_zero(b.vals))) {
    ecfg.value_free = false;
  }
  out.format = pick_format(out.layout, out.col_bits, ecfg);
  out.slice_fill = slice_histogram(a, b, out);

  // Each bin's fill, and its slices' starts relative to the bin: a running
  // sum over the chunks in order.
  const auto nbins = static_cast<std::size_t>(out.layout.nbins);
  out.bin_fill.assign(nbins, 0);
  out.slice_offsets.resize(out.slice_fill.size());
  for (int c = 0; c < nchunks; ++c) {
    const std::size_t row = out.slice(c, 0);
    for (std::size_t bin = 0; bin < nbins; ++bin) {
      out.slice_offsets[row + bin] = out.bin_fill[bin];
      out.bin_fill[bin] += out.slice_fill[row + bin];
    }
  }

  // Region layout: pad every bin to whole lanes — one 64 B key line, and
  // with it whole value lines (lane_tuples: 16 narrow, 8 wide/key-only) —
  // so full local-bin flushes are line aligned (see SymbolicResult).
  const nnz_t pad = lane_tuples(out.format);
  out.bin_offsets.assign(nbins + 1, 0);
  nnz_t cursor = 0;
  nnz_t total_fill = 0;
  for (std::size_t bin = 0; bin < nbins; ++bin) {
    out.bin_offsets[bin] = cursor;
    cursor += (out.bin_fill[bin] + pad - 1) / pad * pad;
    total_fill += out.bin_fill[bin];
  }
  out.bin_offsets[nbins] = cursor;
  assert(total_fill == out.flop);
  (void)total_fill;
  for (int c = 0; c < nchunks; ++c) {
    const std::size_t row = out.slice(c, 0);
    for (std::size_t bin = 0; bin < nbins; ++bin) {
      out.slice_offsets[row + bin] += out.bin_offsets[bin];
    }
  }

  // Bin -> home-node map: contiguous flop-balanced partition over the
  // machine's NUMA nodes.  Contiguity keeps each node's share of the
  // tuple pool one address range (bins are row ranges in row order, so it
  // is also a row partition); balancing by fill gives every node
  // roughly flop/nnodes tuples to serve from local memory.
  const int nnodes = numa_topology().nnodes;
  out.numa_nodes = 1;
  out.bin_home.assign(static_cast<std::size_t>(out.layout.nbins), 0);
  if (nnodes > 1 && out.flop > 0) {
    const double share =
        static_cast<double>(out.flop) / static_cast<double>(nnodes);
    nnz_t seen = 0;
    for (int bin = 0; bin < out.layout.nbins; ++bin) {
      const int node = std::min(
          nnodes - 1, static_cast<int>(static_cast<double>(seen) / share));
      out.bin_home[static_cast<std::size_t>(bin)] = node;
      out.numa_nodes = std::max(out.numa_nodes, node + 1);
      seen += out.bin_fill[static_cast<std::size_t>(bin)];
    }
  }

  // Traffic model: the two pointer arrays (Algorithm 3 streams them) plus
  // one pass over A's row-id array for the bin histogram.
  out.modeled_bytes =
      static_cast<double>(a.ncols + 1) * sizeof(nnz_t) +
      static_cast<double>(b.nrows + 1) * sizeof(nnz_t) +
      static_cast<double>(a.nnz()) * sizeof(index_t);
  return out;
}

TupleFormat predict_tuple_format(index_t a_nrows, index_t b_ncols, nnz_t flop,
                                 const PbConfig& cfg) {
  if (cfg.format == FormatPolicy::kWide) return TupleFormat::kWide;
  const int col_bits = ceil_log2(static_cast<std::uint64_t>(b_ncols));
  return pick_format(plan_layout(a_nrows, flop, cfg), col_bits, cfg);
}

}  // namespace pbs::pb
