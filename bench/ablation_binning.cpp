// Ablation — two design choices beyond what the paper plots, on ER and
// R-MAT inputs:
//
//  1. Streaming stores: the expand flush with non-temporal stores
//     (PbConfig::streaming_stores, the default) vs regular stores.
//  2. The ESC family ladder on the same inputs: plain row-partitioned ESC
//     (no propagation blocking) vs PB, plus SPA for a dense-accumulator
//     reference — isolating how much of PB's win is the blocking itself.
//
//   ./bench_ablation_binning [--scale 14] [--ef 8] [--reps 3] [--warmup 2]
#include "bench_sweeps.hpp"

int main(int argc, char** argv) {
  using namespace pbs;
  const bench::Args args(argc, argv);
  const int scale = args.get_int("scale", 14);
  const double ef = args.get_double("ef", 8.0);
  const int reps = args.get_int("reps", 3);
  const int warmup = args.get_int("warmup", 2);

  bench::print_header(
      "Ablation — streaming stores and the ESC ladder, scale " +
      std::to_string(scale) + ", ef " + std::to_string(static_cast<int>(ef)));

  for (const auto kind :
       {bench::MatrixKind::kEr, bench::MatrixKind::kRmat}) {
    const bool er = kind == bench::MatrixKind::kEr;
    const mtx::CsrMatrix a = bench::make_random(kind, scale, ef, 91);
    const mtx::CsrMatrix b = bench::make_random(kind, scale, ef, 92);
    const SpGemmProblem problem = SpGemmProblem::multiply(a, b);
    const nnz_t flop = mtx::count_flops(a, b);

    std::cout << "## " << (er ? "ER" : "R-MAT")
              << " — streaming (non-temporal) stores in the expand flush\n";
    bench::Table ts({"streaming_stores", "expand(GB/s)", "total(MF/s)"});
    for (const bool streaming : {true, false}) {
      pb::PbConfig cfg;
      cfg.streaming_stores = streaming;
      const pb::PbTelemetry t =
          bench::pb_best_telemetry(PlusTimes::name, problem, cfg, reps,
                                   warmup);
      ts.row(streaming ? "on" : "off", t.expand.gbs(), t.mflops());
    }
    ts.print(std::cout);

    std::cout << "\n## " << (er ? "ER" : "R-MAT")
              << " — ESC ladder (blocking isolated)\n";
    bench::Table tl({"algorithm", "MF/s"});
    for (const char* name : {"esc", "pb", "spa", "hash"}) {
      tl.row(name, bench::algo_mflops(algorithm(name), problem, flop, reps,
                                      warmup));
    }
    tl.print(std::cout);
    std::cout << "\n";
  }
  return 0;
}
