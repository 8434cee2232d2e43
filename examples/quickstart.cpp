// Quickstart: generate a sparse matrix, square it with PB-SpGEMM, inspect
// the telemetry, and cross-check against a baseline algorithm.
//
//   ./quickstart [scale] [edge_factor]
//
// This is the five-minute tour of the public API; the other examples show
// real workloads built on top of it.
#include <pbs/pbs.hpp>

#include <cstdlib>
#include <iostream>

int main(int argc, char** argv) {
  const int scale = argc > 1 ? std::atoi(argv[1]) : 14;
  const double edge_factor = argc > 2 ? std::atof(argv[2]) : 8.0;

  std::cout << "PB-SpGEMM quickstart: squaring an ER matrix, scale " << scale
            << " (n = " << (1 << scale) << "), edge factor " << edge_factor
            << "\n\n";

  // 1. Build a random matrix (COO from the generator, converted to CSR).
  const pbs::mtx::CsrMatrix a = pbs::mtx::coo_to_csr(
      pbs::mtx::generate_er(pbs::mtx::RandomScale{scale, edge_factor},
                            /*seed=*/42));
  std::cout << "A: " << a.nrows << " x " << a.ncols << ", nnz = " << a.nnz()
            << ", d = " << a.avg_degree() << "\n";

  // 2. A SpGemmProblem packages A in every format an algorithm may want.
  const pbs::SpGemmProblem problem = pbs::SpGemmProblem::square(a);

  // 3. Every product runs through an executor.  Asking for "pb" and
  //    passing a RunInfo returns PB-SpGEMM's per-phase telemetry.
  pbs::SpGemmExecutor exec;
  pbs::SpGemmOp op;
  op.algo = "pb";
  pbs::RunInfo info;
  const pbs::mtx::CsrMatrix c = exec.run(problem, op, &info);
  const pbs::pb::PbTelemetry& tm = info.pb_stats;
  std::cout << "\nC = A^2: nnz = " << c.nnz() << ", flop = " << tm.flop
            << ", compression factor = " << tm.cf() << "\n";
  std::cout << "bins: " << tm.nbins << " (" << tm.rows_per_bin
            << " rows per bin)\n\n";

  auto report = [](const char* name, const pbs::pb::PhaseStats& s) {
    std::cout << "  " << name << ": " << s.seconds * 1e3 << " ms, "
              << s.gbs() << " GB/s (modeled traffic)\n";
  };
  std::cout << "  analysis: " << info.plan_seconds * 1e3
            << " ms (paid once per structure; a repeat run skips it)\n";
  report("expand  ", tm.expand);
  report("sort    ", tm.sort);
  report("compress", tm.compress);
  report("convert ", tm.convert);
  const double total = info.plan_seconds + tm.total_seconds();
  std::cout << "  total   : " << total * 1e3 << " ms -> "
            << static_cast<double>(tm.flop) / total / 1e6 << " MFLOPS\n\n";

  // 4. Compare with the Roofline prediction for this multiplication.
  const pbs::StreamResult stream = pbs::run_stream(1 << 22, 3);
  const pbs::model::SpGemmBounds bounds =
      pbs::model::bounds(stream.best_gbs(), tm.cf());
  std::cout << "Roofline (beta = " << stream.best_gbs()
            << " GB/s STREAM): outer-product bound = "
            << bounds.perf_outer * 1e3 << " MFLOPS, upper bound = "
            << bounds.perf_upper * 1e3 << " MFLOPS\n\n";

  // 5. Every baseline is one descriptor field away; results agree.
  op.algo = "hash";
  const pbs::mtx::CsrMatrix via_hash = exec.run(problem, op);
  std::cout << "hash baseline agrees: "
            << (pbs::mtx::equal_approx(c, via_hash) ? "yes" : "NO")
            << "\n";
  return 0;
}
