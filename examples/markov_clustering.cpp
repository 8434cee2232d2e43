// Markov clustering (MCL) — the paper's headline machine-learning workload
// (Sec. I cites HipMCL [9]; squaring a column-stochastic matrix is exactly
// the "expansion" step that dominates MCL's runtime).
//
// The loop:  expand  M <- M·M           (SpGEMM — PB-SpGEMM here)
//            inflate M <- M .^ r        (element-wise power)
//            prune   drop tiny entries, keep top-k per column
//            normalize columns to 1
// until M reaches a (near) fixed point.  Clusters are then the connected
// sets of rows that "attract" each column.
//
// The prune step is FUSED into the expansion: inflation is monotone on
// the product's non-negative values, so "inflate then drop |v| < t and
// keep the top-k" selects exactly the entries "drop |v| < t^(1/r), keep
// the top-k" selects on the raw product.  The op's post_op carries that
// selection into the multiply: PB applies it per bin, before CSR
// conversion ever sizes the output, and hash (which "auto" picks for the
// large middle expansions) per row in one pass with no symbolic phase, so
// under either the unpruned expansion — the iteration's peak-memory spike
// in a post-pass formulation — is never materialized; after heap and spa
// the executor prunes the full product in one parallel pass.  Only the
// surviving entries are inflated.
//
// The expansion step runs through a SpGemmExecutor: MCL multiplies every
// iteration and its structure ALTERNATES as pruning kicks in and the
// matrix settles, so the executor's fingerprint-keyed plan cache analyzes
// each distinct structure once (with algo "auto": roofline-selected once
// per structure), leases pipeline scratch from one pooled workspace
// across all iterations, and serves revisited structures from the cache
// — the counters printed at the end show the cache hit ratio and how
// much analysis was amortized away.
//
//   ./markov_clustering [n] [avg_degree] [inflation] [algo]   (algo: auto)
#include <pbs/pbs.hpp>

#include <cmath>
#include <cstdlib>
#include <iostream>
#include <vector>

namespace {

// Cluster extraction: attractor rows are rows with a diagonal-dominant
// entry; every column joins the cluster of its largest entry's row.
std::vector<pbs::index_t> extract_clusters(const pbs::mtx::CsrMatrix& m) {
  // Work column-wise: transpose so each row lists a column's support.
  const pbs::mtx::CsrMatrix mt = pbs::mtx::transpose(m);
  std::vector<pbs::index_t> owner(static_cast<std::size_t>(mt.nrows), -1);
  for (pbs::index_t c = 0; c < mt.nrows; ++c) {
    const auto cols = mt.row_cols(c);
    const auto vals = mt.row_vals(c);
    pbs::value_t best = -1;
    for (std::size_t i = 0; i < cols.size(); ++i) {
      if (vals[i] > best) {
        best = vals[i];
        owner[c] = cols[i];
      }
    }
  }
  return owner;
}

}  // namespace

int main(int argc, char** argv) {
  const pbs::index_t n = argc > 1 ? std::atoi(argv[1]) : 4096;
  const double degree = argc > 2 ? std::atof(argv[2]) : 6.0;
  const double inflation = argc > 3 ? std::atof(argv[3]) : 2.0;
  const std::string algo = argc > 4 ? argv[4] : "auto";

  std::cout << "Markov clustering (" << algo << "): n = " << n
            << ", degree = " << degree << ", inflation = " << inflation
            << "\n";

  // A graph with planted structure: a banded "community" backbone plus
  // random long-range edges.
  const pbs::mtx::CsrMatrix backbone =
      pbs::mtx::coo_to_csr(pbs::mtx::generate_banded(n, degree, 24, 3));
  const pbs::mtx::CsrMatrix noise =
      pbs::mtx::coo_to_csr(pbs::mtx::generate_er(n, n, 0.5, 4));
  const pbs::mtx::CsrMatrix graph = pbs::mtx::symmetrize(
      pbs::mtx::add(backbone, noise));

  // MCL works on a column-stochastic matrix with self-loops.
  pbs::mtx::CsrMatrix m = pbs::mtx::normalize_columns(
      pbs::mtx::add(graph, pbs::mtx::CsrMatrix::identity(n)));

  constexpr int kMaxIters = 20;
  constexpr pbs::value_t kPruneThreshold = 1e-5;
  constexpr pbs::index_t kKeepPerRow = 64;

  // One executor for the expansion site; pruning changes M's structure
  // between iterations, so each new shape is analyzed once and cached —
  // when MCL revisits a shape (or converges structurally) the multiply is
  // a cache hit, and the pooled workspace persists across all of it.
  pbs::SpGemmOp op;
  op.algo = algo;
  // Fused inflate-prune (header comment): the raw-product threshold whose
  // survivors are exactly the post-inflation kPruneThreshold survivors,
  // plus the top-k per row, both applied by the multiply.
  op.post_op.prune_threshold = std::pow(kPruneThreshold, 1.0 / inflation);
  op.post_op.top_k = kKeepPerRow;
  pbs::SpGemmExecutor exec;
  pbs::RunInfo info;
  exec.prepare(pbs::SpGemmProblem::square(m), op, &info);
  std::cout << "expansion algorithm: " << info.algo;
  if (algo == "auto") std::cout << " (" << info.choice.rationale << ")";
  std::cout << "\n";

  double spgemm_seconds = 0;
  int iter = 0;
  for (; iter < kMaxIters; ++iter) {
    const pbs::mtx::CsrMatrix prev = m;

    const pbs::nnz_t flop = pbs::mtx::count_flops(m, m);
    pbs::Timer timer;
    const pbs::SpGemmProblem p = pbs::SpGemmProblem::square(m);
    const pbs::mtx::CsrMatrix expanded = exec.run(p, op);
    spgemm_seconds += timer.elapsed_s();
    const double cf = expanded.nnz() > 0
                          ? static_cast<double>(flop) /
                                static_cast<double>(expanded.nnz())
                          : 0.0;

    // `expanded` is already pruned and top-k-selected (fused post-op):
    // inflate the survivors and renormalize.
    m = pbs::mtx::normalize_columns(
        pbs::mtx::element_power(expanded, inflation));

    const pbs::value_t delta = pbs::mtx::max_abs_diff(m, prev);
    std::cout << "  iter " << iter << ": nnz = " << m.nnz()
              << ", expansion cf = " << cf << ", delta = " << delta
              << "\n";
    if (delta < 1e-6) break;
  }

  const std::vector<pbs::index_t> owner = extract_clusters(m);
  std::vector<bool> seen(static_cast<std::size_t>(n), false);
  int clusters = 0;
  for (const pbs::index_t o : owner) {
    if (o >= 0 && !seen[static_cast<std::size_t>(o)]) {
      seen[static_cast<std::size_t>(o)] = true;
      ++clusters;
    }
  }
  const pbs::ExecutorStats es = exec.stats();
  const pbs::pb::WorkspacePool::Stats pool = exec.pool_stats();
  const pbs::pb::PbWorkspace::Stats ws = exec.workspace_stats();
  std::cout << "converged after " << iter + 1 << " iterations; " << clusters
            << " clusters; SpGEMM time " << spgemm_seconds * 1e3 << " ms\n"
            << "executor: " << es.executes << " executes, " << es.cache_hits
            << " cache hits / " << es.cache_misses << " misses (hit ratio "
            << es.hit_ratio() << "); workspace pool " << pool.created
            << " created / " << pool.reused << " reused leases, buffers "
            << ws.allocations << " allocations / " << ws.reuses
            << " reuses\n";
  return 0;
}
