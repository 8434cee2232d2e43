// Fig. 6 — PB-SpGEMM tuning parameters on an ER matrix:
//   (a) expand-phase bandwidth vs local-bin width (paper: small bins waste
//       cache lines; 512 B is the sweet spot), and
//   (b) expand vs sort bandwidth as the number of global bins grows
//       (paper: more bins -> in-cache sort speeds up, too many bins ->
//       expand loses bandwidth).
//
// The paper uses ER scale 20, edge factor 4; default here is scale 15 so
// the sweep finishes on a laptop (override with --scale 20 --ef 4).
#include "bench_common.hpp"
#include "matrix/convert.hpp"
#include "matrix/generate.hpp"

int main(int argc, char** argv) {
  using namespace pbs;
  const bench::Args args(argc, argv);
  const int scale = args.get_int("scale", 15);
  const double ef = args.get_double("ef", 4.0);
  const int reps = args.get_int("reps", 3);
  const int warmup = args.get_int("warmup", 2);

  bench::print_header("Fig. 6 — local-bin width (a) and bin count (b)",
                      "ER scale " + std::to_string(scale) + ", edge factor " +
                          std::to_string(ef));

  const mtx::CsrMatrix a =
      mtx::coo_to_csr(mtx::generate_er(mtx::RandomScale{scale, ef}, 61));
  const mtx::CsrMatrix b =
      mtx::coo_to_csr(mtx::generate_er(mtx::RandomScale{scale, ef}, 62));
  const SpGemmProblem problem = SpGemmProblem::multiply(a, b);

  std::cout << "## (a) expand bandwidth vs local bin width\n";
  bench::Table ta({"lbin_bytes", "expand(GB/s)", "total(MF/s)"});
  for (const int width : {16, 32, 64, 128, 256, 512, 1024, 2048, 4096}) {
    pb::PbConfig cfg;
    cfg.local_bin_bytes = width;
    const pb::PbTelemetry t =
        bench::pb_best_telemetry(PlusTimes::name, problem, cfg, reps,
                                 warmup);
    ta.row(width, t.expand.gbs(), t.mflops());
  }
  ta.print(std::cout);

  std::cout << "\n## (b) expand/sort bandwidth vs number of global bins\n";
  bench::Table tb({"nbins", "expand(GB/s)", "sort(GB/s)", "compress(GB/s)",
                   "total(MF/s)"});
  for (int nbins = 2; nbins <= (1 << 12); nbins *= 4) {
    pb::PbConfig cfg;
    cfg.nbins = nbins;
    const pb::PbTelemetry t =
        bench::pb_best_telemetry(PlusTimes::name, problem, cfg, reps,
                                 warmup);
    tb.row(t.nbins, t.expand.gbs(), t.sort.gbs(), t.compress.gbs(),
           t.mflops());
  }
  tb.print(std::cout);
  std::cout << "\n# paper's defaults: 512-byte local bins, 1K-2K global "
               "bins (auto rule: one bin fits half of L2)\n";
  return 0;
}
