// Per-semiring PB-SpGEMM throughput (companion to the algorithm×semiring
// registry).
//
// Squares one ER matrix with every registered semiring-capable algorithm
// (pb, heap, spa) over every built-in semiring and reports MFLOPS (one
// "flop" = one semiring multiply).  Two properties to look for:
//
//   * Down a column, pb stays ahead of the Gustavson baselines on every
//     semiring — the bandwidth-optimized pipeline is what the min_plus /
//     bool_or_and applications (APSP, multi-source BFS) actually run.
//   * Across the pb row, plus_times matches the other semirings: the
//     semiring arrives as a template parameter (S::mul in expand, S::add
//     in compress), so the generalization adds no dispatch cost to the
//     numeric specialization — cross-check against bench/fig7_er_perf.
//
//   --scale 13  --ef 8  --reps 3  --warmup 1  --algos pb,heap,spa
#include "bench_common.hpp"

#include "matrix/convert.hpp"
#include "matrix/generate.hpp"
#include "spgemm/semiring.hpp"

int main(int argc, char** argv) {
  using namespace pbs;
  const bench::Args args(argc, argv);
  const int scale = args.get_int("scale", 13);
  const double ef = args.get_double("ef", 8.0);
  const int reps = args.get_int("reps", 3);
  const int warmup = args.get_int("warmup", 1);
  const std::vector<std::string> algos =
      args.get_string_list("algos", {"pb", "heap", "spa"});

  bench::print_header(
      "algorithm × semiring throughput matrix (registry dispatch)",
      "MFLOPS, best of " + std::to_string(reps) + "; ER scale " +
          std::to_string(scale) + ", edge factor " + std::to_string(ef));

  const mtx::CsrMatrix a =
      mtx::coo_to_csr(mtx::generate_er(mtx::RandomScale{scale, ef}, 1));
  const SpGemmProblem problem = SpGemmProblem::square(a);
  const nnz_t flop = mtx::count_flops(a, a);

  std::vector<std::string> headers = {"semiring"};
  for (const std::string& algo : algos) headers.push_back(algo);
  bench::Table table(headers);

  for (const std::string& semiring : semiring_names()) {
    std::vector<std::string> cells = {semiring};
    for (const std::string& algo : algos) {
      const SpGemmFn fn = bench::timed_kernel(algo, semiring);
      const RunStats s = bench::measure_seconds(
          [&] { (void)fn(problem); }, reps, warmup);
      std::ostringstream cell;
      cell << std::setprecision(4)
           << (s.min > 0 ? static_cast<double>(flop) / s.min / 1e6 : 0.0);
      cells.push_back(cell.str());
    }
    table.row_cells(std::move(cells));
  }
  table.print(std::cout);
  return 0;
}
