// Plan-once/execute-N vs N fresh multiplies — the amortization the
// executor's plan cache exists to deliver (no paper artifact; this
// measures the repeated-traffic serving mode of the library).
//
// For each input × semiring the bench multiplies the same problem N times
// with algo = "pb", two ways: a new SpGemmExecutor per multiply, each
// paying the analysis and a cold workspace, and one executor running all
// N, whose first run plans and whose pooled workspace stays warm.
// Reported: amortized ms/multiply for both modes, the speedup, and the
// fraction of the fresh cost recovered — which bounds at the
// analysis+allocation share of a fresh multiply as N grows.
//
//   ./bench_plan_reuse [--scales 11,13] [--efs 8] [--execs 10]
//                      [--semirings plus_times,min_plus]
#include "bench_common.hpp"

#include "matrix/convert.hpp"
#include "matrix/generate.hpp"

namespace {

using namespace pbs;

struct Mode {
  const char* kind;
  mtx::CsrMatrix matrix;
};

}  // namespace

int main(int argc, char** argv) {
  const bench::Args args(argc, argv);
  const std::vector<int> scales = args.get_int_list("scales", {11, 13});
  const std::vector<int> efs = args.get_int_list("efs", {8});
  const int execs = args.get_int("execs", 10);
  const std::vector<std::string> semirings =
      args.get_string_list("semirings", {"plus_times", "min_plus"});

  bench::print_header(
      "plan reuse: amortized plan-once/execute-N vs N fresh multiplies",
      "execs = " + std::to_string(execs));

  bench::Table table({"input", "semiring", "fresh ms", "planned ms",
                      "speedup", "recovered", "plan ms"});
  bench::JsonSink json(args);

  for (const int scale : scales) {
    for (const int ef : efs) {
      std::vector<Mode> modes;
      modes.push_back({"er", mtx::coo_to_csr(mtx::generate_er(
                                 mtx::RandomScale{scale, double(ef)}, 7))});
      mtx::RmatParams rp;
      rp.scale = scale;
      rp.edge_factor = ef;
      rp.seed = 7;
      modes.push_back({"rmat", mtx::coo_to_csr(mtx::generate_rmat(rp))});

      for (const Mode& mode : modes) {
        const SpGemmProblem p = SpGemmProblem::square(mode.matrix);
        const std::string input = std::string(mode.kind) + "-s" +
                                  std::to_string(scale) + "-ef" +
                                  std::to_string(ef);

        for (const std::string& s : semirings) {
          SpGemmOp op;
          op.algo = "pb";
          op.semiring = s;
          // Warm both code paths (instantiation, page cache) once.
          (void)SpGemmExecutor().run(p, op);

          // N fresh multiplies: every call re-analyzes and re-allocates.
          Timer t;
          for (int i = 0; i < execs; ++i) {
            (void)SpGemmExecutor().run(p, op);  // cold executor, by design
          }
          const double fresh_s = t.elapsed_s();

          // One executor: the first run plans, every run reuses its pool.
          SpGemmExecutor exec;
          RunInfo info;
          double plan_s = 0;
          t.reset();
          for (int i = 0; i < execs; ++i) {
            (void)exec.run(p, op, &info);
            if (i == 0) plan_s = info.plan_seconds;
          }
          const double planned_s = t.elapsed_s();
          const pb::TupleFormat format = info.pb_stats.format;

          const double fresh_per = fresh_s / execs * 1e3;
          const double planned_per = planned_s / execs * 1e3;
          table.row(input, s, fresh_per, planned_per,
                    fresh_per / planned_per,
                    std::to_string(
                        static_cast<int>((1.0 - planned_per / fresh_per) *
                                         100.0 + 0.5)) + "%",
                    plan_s * 1e3);
          if (json.enabled()) {
            json.add(bench::Json()
                         .field("bench", std::string("plan_reuse"))
                         .field("input", input)
                         .field("semiring", s)
                         .field("format", std::string(pb::to_string(format)))
                         .field("bytes_per_tuple",
                                static_cast<double>(
                                    pb::bytes_per_tuple(format)))
                         .field("fresh_ms_per_mult", fresh_per)
                         .field("planned_ms_per_mult", planned_per)
                         .field("speedup", fresh_per / planned_per)
                         .field("plan_ms", plan_s * 1e3));
          }
        }
      }
    }
  }
  table.print(std::cout);
  return 0;
}
