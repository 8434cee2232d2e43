// Ablation — the design choices DESIGN.md calls out, beyond what the paper
// plots:
//
//  1. Binning policy: range (Fig. 4's depiction, our default) vs modulo
//     (Algorithm 2 line 9's literal `rowid % nbins`) vs adaptive
//     variable-range bins (Sec. V-C's skew mitigation).
//  2. The ESC family ladder on the same inputs: plain row-partitioned ESC
//     (no propagation blocking) vs PB, plus SPA for a dense-accumulator
//     reference — isolating how much of PB's win is the blocking itself.
#include "bench_sweeps.hpp"

int main(int argc, char** argv) {
  using namespace pbs;
  const bench::Args args(argc, argv);
  const int scale = args.get_int("scale", 14);
  const double ef = args.get_double("ef", 8.0);
  const int reps = args.get_int("reps", 3);
  const int warmup = args.get_int("warmup", 2);

  bench::print_header("Ablation — binning policy and the ESC ladder, scale " +
                      std::to_string(scale) + ", ef " +
                      std::to_string(static_cast<int>(ef)));

  for (const auto kind :
       {bench::MatrixKind::kEr, bench::MatrixKind::kRmat}) {
    const bool er = kind == bench::MatrixKind::kEr;
    const mtx::CsrMatrix a = bench::make_random(kind, scale, ef, 91);
    const mtx::CsrMatrix b = bench::make_random(kind, scale, ef, 92);
    const SpGemmProblem problem = SpGemmProblem::multiply(a, b);
    const nnz_t flop = mtx::count_flops(a, b);

    std::cout << "## " << (er ? "ER" : "R-MAT")
              << " — binning policy (same auto bin count)\n";
    bench::Table tp({"policy", "nbins", "expand(GB/s)", "sort(GB/s)",
                     "total(MF/s)"});
    for (const pb::BinPolicy policy :
         {pb::BinPolicy::kRange, pb::BinPolicy::kModulo,
          pb::BinPolicy::kAdaptive}) {
      pb::PbConfig cfg;
      cfg.policy = policy;
      const pb::PbTelemetry t =
          bench::pb_best_telemetry(PlusTimes::name, problem, cfg, reps,
                                   warmup);
      tp.row(pb::to_string(policy), t.nbins, t.expand.gbs(), t.sort.gbs(),
             t.mflops());
    }
    tp.print(std::cout);

    std::cout << "\n## " << (er ? "ER" : "R-MAT")
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
