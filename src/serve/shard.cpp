#include "serve/shard.hpp"

#include <algorithm>
#include <exception>
#include <stdexcept>
#include <thread>

#include "common/errors.hpp"
#include "common/huge_pages.hpp"
#include "common/numa.hpp"

#ifdef __linux__
#include <sched.h>
#endif

namespace pbs::serve {

namespace {

/// Best-effort affinity to one NUMA node's cpu set.  A no-op when the
/// topology is unknown or single-node — then first-touch already lands
/// everything on the only node there is.
void pin_to_node(int node) {
#ifdef __linux__
  const NumaTopology& topo = numa_topology();
  if (topo.nnodes <= 1 || topo.cpu_to_node.empty()) return;
  cpu_set_t set;
  CPU_ZERO(&set);
  bool any = false;
  for (std::size_t cpu = 0; cpu < topo.cpu_to_node.size(); ++cpu) {
    if (topo.cpu_to_node[cpu] == node && cpu < CPU_SETSIZE) {
      CPU_SET(cpu, &set);
      any = true;
    }
  }
  if (any) (void)sched_setaffinity(0, sizeof(set), &set);
#else
  (void)node;
#endif
}

/// Bounds of `k` contiguous, balanced ranges covering [0, n): k+1
/// ascending cut points with front() == 0 and back() == n.  Requires
/// k >= 1; ranges are empty only when k > n.
std::vector<index_t> split_ranges(index_t n, int k) {
  std::vector<index_t> bounds(static_cast<std::size_t>(k) + 1);
  const index_t per = (n + k - 1) / k;
  for (int i = 0; i <= k; ++i) {
    bounds[static_cast<std::size_t>(i)] =
        std::min<index_t>(n, static_cast<index_t>(i) * per);
  }
  return bounds;
}

/// Rows [row_lo, row_hi) of A — a contiguous copy, no filtering pass.
mtx::CsrMatrix slice_rows(const mtx::CsrMatrix& a, index_t row_lo,
                          index_t row_hi) {
  mtx::CsrMatrix out(row_hi - row_lo, a.ncols);
  const nnz_t base = a.rowptr[row_lo];
  for (index_t r = row_lo; r < row_hi; ++r) {
    out.rowptr[static_cast<std::size_t>(r - row_lo) + 1] =
        a.rowptr[static_cast<std::size_t>(r) + 1] - base;
  }
  const auto lo = static_cast<std::size_t>(base);
  const auto n = static_cast<std::size_t>(a.rowptr[row_hi] - base);
  out.colids.assign(a.colids.begin() + lo, a.colids.begin() + lo + n);
  out.vals.assign(a.vals.begin() + lo, a.vals.begin() + lo + n);
  return out;
}

/// Columns [col_lo, col_hi) of A with column ids rebased to 0.  Columns
/// are sorted within each row, so the kept entries of row r form one
/// contiguous run found by binary search.
mtx::CsrMatrix slice_cols(const mtx::CsrMatrix& a, index_t col_lo,
                          index_t col_hi) {
  mtx::CsrMatrix out(a.nrows, col_hi - col_lo);
  std::vector<nnz_t> lo(static_cast<std::size_t>(a.nrows));
  for (index_t r = 0; r < a.nrows; ++r) {
    const auto cols = a.row_cols(r);
    const auto first =
        std::lower_bound(cols.begin(), cols.end(), col_lo) - cols.begin();
    const auto last =
        std::lower_bound(cols.begin(), cols.end(), col_hi) - cols.begin();
    lo[static_cast<std::size_t>(r)] = a.rowptr[r] + first;
    out.rowptr[static_cast<std::size_t>(r) + 1] =
        out.rowptr[r] + (last - first);
  }
  resize_on_huge_pages(out.colids, static_cast<std::size_t>(out.rowptr.back()));
  resize_on_huge_pages(out.vals, static_cast<std::size_t>(out.rowptr.back()));
  for (index_t r = 0; r < a.nrows; ++r) {
    const auto src = static_cast<std::size_t>(lo[static_cast<std::size_t>(r)]);
    const auto dst = static_cast<std::size_t>(out.rowptr[r]);
    const auto n = static_cast<std::size_t>(out.row_nnz(r));
    for (std::size_t i = 0; i < n; ++i) {
      out.colids[dst + i] = a.colids[src + i] - col_lo;
      out.vals[dst + i] = a.vals[src + i];
    }
  }
  return out;
}

/// Stacks row blocks owning disjoint, ascending row ranges into one
/// (nrows × ncols) CSR: the blocks are concatenated in order, and rows
/// past the last block stay empty.
mtx::CsrMatrix stack_row_blocks(const std::vector<mtx::CsrMatrix>& pieces,
                                index_t nrows, index_t ncols) {
  mtx::CsrMatrix c;
  c.nrows = nrows;
  c.ncols = ncols;
  c.rowptr.assign(static_cast<std::size_t>(nrows) + 1, 0);
  nnz_t total = 0;
  for (const mtx::CsrMatrix& piece : pieces) total += piece.nnz();
  resize_on_huge_pages(c.colids, static_cast<std::size_t>(total));
  resize_on_huge_pages(c.vals, static_cast<std::size_t>(total));

  index_t row_base = 0;
  nnz_t nnz_base = 0;
  for (const mtx::CsrMatrix& piece : pieces) {
    for (index_t r = 0; r < piece.nrows; ++r) {
      c.rowptr[static_cast<std::size_t>(row_base + r) + 1] =
          nnz_base + piece.rowptr[static_cast<std::size_t>(r) + 1];
    }
    const auto dst = static_cast<std::size_t>(nnz_base);
    std::copy(piece.colids.begin(), piece.colids.end(),
              c.colids.begin() + dst);
    std::copy(piece.vals.begin(), piece.vals.end(), c.vals.begin() + dst);
    row_base += piece.nrows;
    nnz_base += piece.nnz();
  }
  // Rows past the last block keep the running total so rowptr stays
  // monotone.
  for (std::size_t r = static_cast<std::size_t>(row_base) + 1;
       r < c.rowptr.size(); ++r) {
    c.rowptr[r] = nnz_base;
  }
  return c;
}

/// Re-bases a tile's column ids into the global column space: the tile
/// computed columns [col_lo, col_lo + tile.ncols) of a ncols-wide C.
mtx::CsrMatrix widen_cols(const mtx::CsrMatrix& tile, index_t col_lo,
                          index_t ncols) {
  mtx::CsrMatrix out = tile;
  out.ncols = ncols;
  for (index_t& c : out.colids) c += col_lo;
  return out;
}

}  // namespace

ShardRouter::ShardRouter(ShardOptions opts)
    : rows_(std::max(opts.rows, 1)),
      cols_(std::max(opts.cols, 1)),
      pin_numa_(opts.pin_numa) {
  shards_.reserve(static_cast<std::size_t>(nshards()));
  for (int s = 0; s < nshards(); ++s) {
    shards_.push_back(std::make_unique<SpGemmExecutor>(opts.executor));
  }
}

mtx::CsrMatrix ShardRouter::run(const SpGemmProblem& p, const SpGemmOp& op,
                                const RunOptions& ropts, RunInfo* info) {
  return run_impl(p, op, ropts, info, /*values_only=*/false);
}

mtx::CsrMatrix ShardRouter::run_values_updated(const SpGemmProblem& p,
                                               const SpGemmOp& op,
                                               const RunOptions& ropts,
                                               RunInfo* info) {
  return run_impl(p, op, ropts, info, /*values_only=*/true);
}

mtx::CsrMatrix ShardRouter::run_impl(const SpGemmProblem& p,
                                     const SpGemmOp& op,
                                     const RunOptions& ropts, RunInfo* info,
                                     bool values_only) {
  if (nshards() == 1) {
    return values_only ? shards_[0]->run_values_updated(p, op, ropts, info)
                       : shards_[0]->run(p, op, ropts, info);
  }
  if (p.a_csr.ncols != p.b_csr.nrows) {
    throw std::invalid_argument("ShardRouter: dimensions differ");
  }
  if (op.accumulate) {
    throw std::logic_error(
        "ShardRouter: accumulating ops are not routable (accumulate "
        "client-side over the returned product)");
  }

  const index_t nrows = p.a_csr.nrows;
  const index_t ncols = p.b_csr.ncols;
  const std::vector<index_t> rb = split_ranges(nrows, rows_);
  const std::vector<index_t> cb = split_ranges(ncols, cols_);

  const int n = nshards();
  std::vector<mtx::CsrMatrix> tiles(static_cast<std::size_t>(n));
  std::vector<RunInfo> infos(static_cast<std::size_t>(n));
  std::vector<std::exception_ptr> errors(static_cast<std::size_t>(n));
  std::vector<std::thread> threads;
  threads.reserve(static_cast<std::size_t>(n));
  const int nnodes = numa_topology().nnodes;

  for (int s = 0; s < n; ++s) {
    threads.emplace_back([&, s] {
      try {
        if (pin_numa_) pin_to_node(s % nnodes);
        const int r = s / cols_;
        const int c = s % cols_;
        // Slice on the shard's own thread: with pinning, first touch
        // places every tile operand on the shard's node.
        const mtx::CsrMatrix a_tile =
            slice_rows(p.a_csr, rb[static_cast<std::size_t>(r)],
                           rb[static_cast<std::size_t>(r) + 1]);
        const mtx::CsrMatrix b_tile =
            slice_cols(p.b_csr, cb[static_cast<std::size_t>(c)],
                           cb[static_cast<std::size_t>(c) + 1]);
        mtx::CsrMatrix mask_tile;
        SpGemmOp tile_op = op;
        if (op.mask != nullptr) {
          mask_tile = slice_cols(
              slice_rows(*op.mask, rb[static_cast<std::size_t>(r)],
                             rb[static_cast<std::size_t>(r) + 1]),
              cb[static_cast<std::size_t>(c)],
              cb[static_cast<std::size_t>(c) + 1]);
          tile_op.mask = &mask_tile;
        }
        const SpGemmProblem tp = SpGemmProblem::multiply(a_tile, b_tile);
        auto& exec = *shards_[static_cast<std::size_t>(s)];
        tiles[static_cast<std::size_t>(s)] =
            values_only
                ? exec.run_values_updated(tp, tile_op, ropts,
                                          &infos[static_cast<std::size_t>(s)])
                : exec.run(tp, tile_op, ropts,
                           &infos[static_cast<std::size_t>(s)]);
      } catch (...) {
        errors[static_cast<std::size_t>(s)] = std::current_exception();
      }
    });
  }
  for (std::thread& t : threads) t.join();

  // Root-cause preference: a tile that failed for a real reason beats
  // tiles that merely got cancelled in its wake.
  std::exception_ptr first;
  std::exception_ptr non_cancel;
  for (const std::exception_ptr& e : errors) {
    if (e == nullptr) continue;
    if (first == nullptr) first = e;
    if (non_cancel == nullptr) {
      try {
        std::rethrow_exception(e);
      } catch (const CancelledError&) {
      } catch (...) {
        non_cancel = e;
      }
    }
  }
  if (non_cancel != nullptr) std::rethrow_exception(non_cancel);
  if (first != nullptr) std::rethrow_exception(first);

  // Merge: per row block, fold the widened column tiles with the
  // semiring's e-wise add (disjoint patterns: values copy through), then
  // stack the row blocks.
  std::vector<mtx::CsrMatrix> row_blocks;
  row_blocks.reserve(static_cast<std::size_t>(rows_));
  for (int r = 0; r < rows_; ++r) {
    mtx::CsrMatrix merged =
        widen_cols(tiles[static_cast<std::size_t>(r * cols_)], cb[0], ncols);
    for (int c = 1; c < cols_; ++c) {
      merged = semiring_ewise_add(
          op.semiring, merged,
          widen_cols(tiles[static_cast<std::size_t>(r * cols_ + c)],
                     cb[static_cast<std::size_t>(c)], ncols));
    }
    row_blocks.push_back(std::move(merged));
  }
  mtx::CsrMatrix out = stack_row_blocks(row_blocks, nrows, ncols);

  if (info != nullptr) {
    *info = infos[0];
    for (int s = 1; s < n; ++s) {
      const RunInfo& i = infos[static_cast<std::size_t>(s)];
      info->cache_hit = info->cache_hit && i.cache_hit;
      info->value_only = info->value_only && i.value_only;
      info->used_pb = info->used_pb || i.used_pb;
      if (i.degraded && !info->degraded) {
        info->degraded = true;
        info->degrade_reason = i.degrade_reason;
      }
      info->plan_seconds += i.plan_seconds;
      info->flop += i.flop;
    }
  }
  return out;
}

void ShardRouter::cancel() {
  for (const auto& s : shards_) s->cancel();
}

std::vector<ExecutorStats> ShardRouter::shard_stats() const {
  std::vector<ExecutorStats> out;
  out.reserve(shards_.size());
  for (const auto& s : shards_) out.push_back(s->stats());
  return out;
}

ExecutorStats ShardRouter::aggregate_stats() const {
  ExecutorStats agg;
  for (const auto& s : shards_) {
    const ExecutorStats st = s->stats();
    agg.executes += st.executes;
    agg.cache_hits += st.cache_hits;
    agg.cache_misses += st.cache_misses;
    agg.value_only_hits += st.value_only_hits;
    agg.passthrough += st.passthrough;
    agg.evictions += st.evictions;
    agg.cache_entries += st.cache_entries;
    agg.cache_bytes += st.cache_bytes;
    agg.bytes_evicted += st.bytes_evicted;
    agg.degraded_plans += st.degraded_plans;
    agg.degraded_runs += st.degraded_runs;
    agg.oom_fallbacks += st.oom_fallbacks;
    agg.cancelled += st.cancelled;
    agg.stale_replans += st.stale_replans;
  }
  return agg;
}

}  // namespace pbs::serve
