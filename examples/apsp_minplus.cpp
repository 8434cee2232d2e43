// All-pairs shortest paths by min-plus matrix squaring.
//
// Over the tropical semiring (min, +), D_{2k} = D_k ⊗ D_k doubles the
// maximum path length captured by the distance matrix, so ceil(log2(n))
// squarings compute the full APSP closure — every squaring is a SpGEMM.
// Each squaring runs the bandwidth-optimized PB pipeline over (min, +)
// through one executor; pass a different algorithm name to compare (e.g.
// spa runs the dense-accumulator fallback).
//
//   ./apsp_minplus [n] [avg_degree] [algo]
#include <pbs/pbs.hpp>

#include <cmath>
#include <cstdlib>
#include <iostream>

int main(int argc, char** argv) {
  const pbs::index_t n = argc > 1 ? std::atoi(argv[1]) : 1024;
  const double degree = argc > 2 ? std::atof(argv[2]) : 4.0;
  const std::string algo = argc > 3 ? argv[3] : "pb";
  pbs::SpGemmOp op;
  op.algo = algo;
  op.semiring = "min_plus";
  pbs::SpGemmExecutor exec;

  std::cout << "APSP via min-plus squaring (" << algo << "): n = " << n
            << ", degree = " << degree << "\n";

  // Random weighted digraph with unit-ish weights and 0-weight self-loops
  // (the identity of the tropical semiring's matrix monoid).
  pbs::mtx::CooMatrix coo = pbs::mtx::generate_er(n, n, degree, 5);
  for (auto& v : coo.val) v = 1.0 + v;  // weights in (1, 2]
  for (pbs::index_t i = 0; i < n; ++i) coo.add(i, i, 0.0);
  coo.canonicalize();
  // canonicalize() sums duplicates; the self-loop slots held only one entry
  // each unless the generator emitted (i, i), whose weight only shortens
  // trivial cycles — harmless for distances.
  pbs::mtx::CsrMatrix dist = pbs::mtx::coo_to_csr(coo);

  const int rounds = static_cast<int>(std::ceil(std::log2(std::max(2, n))));
  double total_ms = 0;
  for (int round = 0; round < rounds; ++round) {
    pbs::Timer t;
    pbs::mtx::CsrMatrix next = exec.run(pbs::SpGemmProblem::square(dist), op);
    const double ms = t.elapsed_ms();
    total_ms += ms;
    const pbs::value_t delta = pbs::mtx::max_abs_diff(next, dist);
    std::cout << "  squaring " << round << ": nnz " << next.nnz() << " ("
              << ms << " ms), max distance change " << delta << "\n";
    dist = std::move(next);
    if (delta < 1e-12) break;  // closure reached (up to FP noise)
  }

  // Report reachability coverage and the distance spectrum.
  const auto reachable = static_cast<double>(dist.nnz());
  pbs::value_t max_finite = 0;
  for (const pbs::value_t v : dist.vals) max_finite = std::max(max_finite, v);
  std::cout << "closure: " << reachable / (static_cast<double>(n) * n) * 100
            << "% of pairs reachable, diameter (weighted) = " << max_finite
            << ", SpGEMM time " << total_ms << " ms\n";
  return 0;
}
