// Executor serving modes (no paper artifact; this measures the PR 5
// serving layer the ROADMAP's "heavy traffic" north star asks for).
//
// Two experiments:
//
//  alternate — an MCL-style workload flipping between two structures
//    every multiply.  "replan" runs it through an executor whose plan
//    cache holds ONE entry (every flip re-analyzes), "cached" through the
//    default LRU — the speedup is what the fingerprint-keyed cache is
//    worth when structures alternate.
//
//  concurrent — N threads multiplying through one cached plan
//    simultaneously, each leasing its own pooled workspace and running a
//    single OpenMP lane (the serving configuration).  Reported as
//    aggregate MFLOPS vs the same single-lane executor driven by one
//    thread — above 1× means concurrent serving scales.
//
// The cache's margin is the analysis share of a multiply, so it is
// largest exactly where serving traffic lives: small/medium repeated
// products (BFS/BC frontiers, MCL pruning epochs) — ≥1.2× at the default
// scales on one core, shrinking toward the fingerprint-pass cost as the
// execute grows.  Concurrent scaling needs physical cores: on a 1-CPU
// container the 4-thread aggregate sits just below 1× (pure overhead).
//
//   ./bench_executor_serve [--scales 9,10] [--efs 8] [--rounds 30]
//                          [--threads 4] [--iters 8] [--algo auto]
//                          [--json out.json]
#include "bench_common.hpp"

#include <thread>

#include "matrix/convert.hpp"
#include "matrix/generate.hpp"
#include "spgemm/executor.hpp"

namespace {

using namespace pbs;

double alternate_ms_per_multiply(const SpGemmProblem& pa,
                                 const SpGemmProblem& pb_,
                                 const SpGemmOp& op, std::size_t capacity,
                                 int rounds, ExecutorStats* stats_out) {
  ExecutorOptions eo;
  eo.cache_capacity = capacity;
  SpGemmExecutor exec(eo);
  // One untimed warm round: pages, instantiations — and, for the cached
  // mode, the two analyses the workload then never repeats.
  (void)exec.run(pa, op);
  (void)exec.run(pb_, op);
  Timer t;
  for (int r = 0; r < rounds; ++r) {
    (void)exec.run(pa, op);
    (void)exec.run(pb_, op);
  }
  const double seconds = t.elapsed_s();
  if (stats_out != nullptr) *stats_out = exec.stats();
  return seconds / (2.0 * rounds) * 1e3;
}

double concurrent_aggregate_mflops(const SpGemmProblem& p, const SpGemmOp& op,
                                   nnz_t flop, int nthreads, int iters) {
  SpGemmExecutor exec;
  (void)exec.run(p, op);  // analysis out of the timed region
  Timer t;
  std::vector<std::thread> threads;
  threads.reserve(static_cast<std::size_t>(nthreads));
  for (int i = 0; i < nthreads; ++i) {
    threads.emplace_back([&] {
      set_threads(1);  // one OpenMP lane per request (serving config)
      for (int it = 0; it < iters; ++it) (void)exec.run(p, op);
    });
  }
  for (std::thread& th : threads) th.join();
  const double seconds = t.elapsed_s();
  return seconds > 0 ? static_cast<double>(flop) * nthreads * iters /
                           seconds / 1e6
                     : 0.0;
}

}  // namespace

int main(int argc, char** argv) {
  const bench::Args args(argc, argv);
  const std::vector<int> scales = args.get_int_list("scales", {9, 10});
  const std::vector<int> efs = args.get_int_list("efs", {8});
  const int rounds = args.get_int("rounds", 30);
  const int nthreads = args.get_int("threads", 4);
  const int iters = args.get_int("iters", 8);
  const std::string algo = args.get_string("algo", "auto");

  bench::print_header(
      "executor serving: plan-cache hit vs replan on alternating "
      "structures; concurrent execute scaling through one cached plan",
      "rounds = " + std::to_string(rounds) + ", threads = " +
          std::to_string(nthreads) + ", algo = " + algo);

  bench::Table alt({"input", "replan ms", "cached ms", "speedup",
                    "hit ratio"});
  bench::Table conc({"input", "1-thread MFLOPS",
                     std::to_string(nthreads) + "-thread MFLOPS",
                     "scaling"});
  bench::JsonSink json(args);

  SpGemmOp op;
  op.algo = algo;

  for (const int scale : scales) {
    for (const int ef : efs) {
      // The two structures of the alternating workload: same size,
      // different density — MCL's expand/prune flip without the app
      // logic.  (Two seeds at one density would also work now that the
      // fingerprint's structural hash tells same-aggregate structures
      // apart; different densities keep the flip realistic.)
      const mtx::CsrMatrix a = mtx::coo_to_csr(
          mtx::generate_er(mtx::RandomScale{scale, double(ef)}, 7));
      const mtx::CsrMatrix b = mtx::coo_to_csr(mtx::generate_er(
          mtx::RandomScale{scale, 0.75 * double(ef)}, 8));
      const SpGemmProblem pa = SpGemmProblem::square(a);
      const SpGemmProblem pb_ = SpGemmProblem::square(b);
      const std::string input =
          "er-s" + std::to_string(scale) + "-ef" + std::to_string(ef);

      ExecutorStats cached_stats;
      const double replan_ms = alternate_ms_per_multiply(
          pa, pb_, op, /*capacity=*/1, rounds, nullptr);
      const double cached_ms = alternate_ms_per_multiply(
          pa, pb_, op, ExecutorOptions{}.cache_capacity, rounds,
          &cached_stats);
      const double speedup = cached_ms > 0 ? replan_ms / cached_ms : 0.0;
      alt.row(input, replan_ms, cached_ms, speedup,
              cached_stats.hit_ratio());

      const nnz_t flop = pb::pb_count_flop(pa.a_csc, pa.b_csr);
      const double one = concurrent_aggregate_mflops(pa, op, flop, 1, iters);
      const double many =
          concurrent_aggregate_mflops(pa, op, flop, nthreads, iters);
      const double scaling = one > 0 ? many / one : 0.0;
      conc.row(input, one, many, scaling);

      if (json.enabled()) {
        json.add(bench::Json()
                     .field("bench", std::string("executor_serve"))
                     .field("kind", std::string("alternate"))
                     .field("input", input)
                     .field("algo", algo)
                     .field("replan_ms_per_mult", replan_ms)
                     .field("cached_ms_per_mult", cached_ms)
                     .field("speedup", speedup)
                     .field("hit_ratio", cached_stats.hit_ratio()));
        json.add(bench::Json()
                     .field("bench", std::string("executor_serve"))
                     .field("kind", std::string("concurrent"))
                     .field("input", input)
                     .field("algo", algo)
                     .field("threads", static_cast<std::int64_t>(nthreads))
                     .field("single_mflops", one)
                     .field("aggregate_mflops", many)
                     .field("scaling", scaling));
      }
    }
  }

  std::cout << "# alternating two structures (cached plans vs replan per "
               "flip)\n";
  alt.print(std::cout);
  std::cout << "\n# concurrent executes through one cached plan (1 OpenMP "
               "lane per request)\n";
  conc.print(std::cout);
  return 0;
}
