// Extension — partitioned PB-SpGEMM (paper Sec. V-D / the first author's
// thesis): A split into row blocks, each multiplied with B independently.
//
// On the paper's dual-socket machine this keeps bins socket-local at the
// cost of reading B once per partition.  On any machine it also shrinks
// the expanded-buffer working set per part.  The variant is an R×1 grid of
// serve::ShardRouter: R row blocks of A, each multiplied with the whole B
// by its own executor, the shards running concurrently (one thread each,
// every shard's OpenMP team at the process's thread count).  This bench
// sweeps R on ER and R-MAT inputs; the paper's observation — "it does not
// perform uniformly well for all matrices due to the additional cost of
// reading B more than once" — shows up as the nparts > 1 rows winning or
// losing depending on the input.
#include "bench_sweeps.hpp"
#include "serve/shard.hpp"

int main(int argc, char** argv) {
  using namespace pbs;
  const bench::Args args(argc, argv);
  const int scale = args.get_int("scale", 14);
  const double ef = args.get_double("ef", 8.0);
  const int reps = args.get_int("reps", 3);
  const int warmup = args.get_int("warmup", 2);

  bench::print_header(
      "Extension — partitioned PB-SpGEMM (paper Sec. V-D), scale " +
      std::to_string(scale) + ", ef " + std::to_string(static_cast<int>(ef)));

  SpGemmOp op;
  op.algo = "pb";
  for (const auto kind :
       {bench::MatrixKind::kEr, bench::MatrixKind::kRmat}) {
    const bool er = kind == bench::MatrixKind::kEr;
    std::cout << "## " << (er ? "ER" : "R-MAT") << "\n";
    const mtx::CsrMatrix a = bench::make_random(kind, scale, ef, 98);
    const mtx::CsrMatrix b = bench::make_random(kind, scale, ef, 99);
    const SpGemmProblem problem = SpGemmProblem::multiply(a, b);
    const nnz_t flop = mtx::count_flops(a, b);

    bench::Table t({"nparts", "MF/s"});
    for (const int nparts : {1, 2, 4, 8}) {
      serve::ShardOptions so;
      so.rows = nparts;
      serve::ShardRouter router(so);
      const RunStats s = bench::measure_seconds(
          [&] { (void)router.run(problem, op); }, reps, warmup);
      t.row(nparts, static_cast<double>(flop) / s.min / 1e6);
    }
    t.print(std::cout);
    std::cout << "\n";
  }
  return 0;
}
