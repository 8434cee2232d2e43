// Fig. 13 — PB-SpGEMM per-phase scaling breakdown on ER (left) and R-MAT
// (right), scale 16 / edge factor 16 in the paper (default 14 here).
//
// Expected shape (paper Sec. V-C): each phase (expand/sort/compress)
// scales; on R-MAT the sort/compress phases scale worse because skewed
// rows concentrate tuples in few bins.
#include "bench_sweeps.hpp"

int main(int argc, char** argv) {
  using namespace pbs;
  const bench::Args args(argc, argv);
  const int scale = args.get_int("scale", 14);
  const double ef = args.get_double("ef", 16.0);
  const int reps = args.get_int("reps", 3);
  const int warmup = args.get_int("warmup", 2);

  bench::print_header("Fig. 13 — PB-SpGEMM per-phase strong scaling, scale " +
                      std::to_string(scale) + ", ef " +
                      std::to_string(static_cast<int>(ef)));

  for (const auto kind :
       {bench::MatrixKind::kEr, bench::MatrixKind::kRmat}) {
    const bool er = kind == bench::MatrixKind::kEr;
    std::cout << "## " << (er ? "ER" : "R-MAT") << "\n";
    const mtx::CsrMatrix a = bench::make_random(kind, scale, ef, 81);
    const mtx::CsrMatrix b = bench::make_random(kind, scale, ef, 82);
    const SpGemmProblem problem = SpGemmProblem::multiply(a, b);

    bench::Table t({"threads", "symbolic(ms)", "expand(ms)", "sort(ms)",
                    "compress(ms)", "convert(ms)", "total(ms)", "speedup"});
    double base_total = 0;
    for (int threads = 1; threads <= max_threads(); ++threads) {
      ThreadCountGuard guard(threads);
      const pb::PbTelemetry tm =
          bench::pb_best_telemetry(PlusTimes::name, problem, pb::PbConfig{},
                                   reps, warmup);
      if (threads == 1) base_total = tm.total_seconds();
      t.row(threads, tm.symbolic.seconds * 1e3, tm.expand.seconds * 1e3,
            tm.sort.seconds * 1e3, tm.compress.seconds * 1e3,
            tm.convert.seconds * 1e3, tm.total_seconds() * 1e3,
            base_total > 0 ? base_total / tm.total_seconds() : 0.0);
    }
    t.print(std::cout);
    std::cout << "\n";
  }
  return 0;
}
