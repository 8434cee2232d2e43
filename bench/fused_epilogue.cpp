// Fused epilogues vs their two-pass formulations — the PR 10 wins.
//
// Three measurements per input, all through SpGemmExecutor (cached plans,
// pooled workspaces) so the delta is the epilogue, not planning:
//
//   accumulate   C ⊞= A·B iterated: fused merge-at-convert vs the product
//                materialized and combined with semiring_ewise_add.  The
//                post-pass reads and writes the accumulator once more per
//                round — exactly the traffic the fusion deletes.
//   expand_mask  masked A·A: mask applied in the expand scatter loop
//                (expand_mask_max_density 1.0) vs filtered at compress
//                (-1.0).  Reports generated tuples against the
//                mask-bounded count — the CI gate holds generated <= 1.05x
//                that bound.
//   post_op      prune+top-k fused into pb's per-bin filter, and into
//                hash's one-pass row loop, vs the same algorithm's plain
//                product followed by apply_post_op.
//
//   ./bench_fused_epilogue [--scales 11,12] [--efs 8] [--rounds 6]
//                          [--reps 5] [--warmup 1] [--mask_ef 2]
//                          [--json out.json]
#include "bench_common.hpp"

#include "matrix/convert.hpp"
#include "matrix/generate.hpp"
#include "spgemm/epilogue.hpp"
#include "spgemm/executor.hpp"

namespace {

using namespace pbs;

struct Input {
  std::string name;
  mtx::CsrMatrix matrix;
};

}  // namespace

int main(int argc, char** argv) {
  const bench::Args args(argc, argv);
  const std::vector<int> scales = args.get_int_list("scales", {11, 12});
  const std::vector<int> efs = args.get_int_list("efs", {8});
  const int rounds = args.get_int("rounds", 6);
  const int reps = args.get_int("reps", 5);
  const int warmup = args.get_int("warmup", 1);
  const int mask_ef = args.get_int("mask_ef", 2);

  bench::print_header(
      "fused epilogues: in-kernel accumulate / expand mask / post-op vs "
      "their two-pass formulations",
      "rounds = " + std::to_string(rounds));

  bench::Table table({"input", "mode", "detail", "fused ms", "two-pass ms",
                      "speedup"});
  bench::JsonSink json(args);

  for (const int scale : scales) {
    for (const int ef : efs) {
      std::vector<Input> inputs;
      inputs.push_back({"er-s" + std::to_string(scale) + "-ef" +
                            std::to_string(ef),
                        mtx::coo_to_csr(mtx::generate_er(
                            mtx::RandomScale{scale, double(ef)}, 7))});
      mtx::RmatParams rp;
      rp.scale = scale;
      rp.edge_factor = ef;
      rp.seed = 7;
      inputs.push_back({"rmat-s" + std::to_string(scale) + "-ef" +
                            std::to_string(ef),
                        mtx::coo_to_csr(mtx::generate_rmat(rp))});
      const mtx::CsrMatrix mask = mtx::coo_to_csr(mtx::generate_er(
          mtx::RandomScale{scale, double(mask_ef)}, 11));

      for (const Input& in : inputs) {
        const SpGemmProblem p = SpGemmProblem::square(in.matrix);
        SpGemmExecutor exec;

        // ---- fused accumulate vs semiring_ewise_add post-pass ------------
        for (const char* semiring : {"plus_times", "min_plus"}) {
          SpGemmOp op;
          op.algo = "pb";
          op.semiring = semiring;
          // The iterative shape: every round folds the same product into
          // the running aggregate, so after round one the accumulator
          // carries the product's pattern.
          const mtx::CsrMatrix c0 = exec.run(p, op);  // warms the plan too

          const auto fused = bench::measure_seconds(
              [&] {
                mtx::CsrMatrix c = c0;
                for (int r = 0; r < rounds; ++r) c = exec.run(p, op, c);
              },
              reps, warmup);
          const auto post = bench::measure_seconds(
              [&] {
                mtx::CsrMatrix c = c0;
                for (int r = 0; r < rounds; ++r) {
                  c = semiring_ewise_add(op.semiring, c, exec.run(p, op));
                }
              },
              reps, warmup);

          const double fused_ms = fused.min / rounds * 1e3;
          const double post_ms = post.min / rounds * 1e3;
          table.row(in.name, "accumulate", semiring, fused_ms, post_ms,
                    post_ms / fused_ms);
          if (json.enabled()) {
            json.add(bench::Json()
                         .field("bench", std::string("fused_epilogue"))
                         .field("mode", std::string("accumulate"))
                         .field("input", in.name)
                         .field("semiring", std::string(semiring))
                         .field("fused_ms_per_round", fused_ms)
                         .field("postpass_ms_per_round", post_ms)
                         .field("speedup", post_ms / fused_ms));
          }
        }

        // ---- expand-stage masking vs compress-stage filtering ------------
        {
          SpGemmOp op;
          op.algo = "pb";
          op.mask = &mask;

          op.pb.expand_mask_max_density = -1.0;
          RunInfo off_info;
          (void)exec.run(p, op, &off_info);
          const auto off = bench::measure_seconds(
              [&] { (void)exec.run(p, op); }, reps, warmup);

          op.pb.expand_mask_max_density = 1.0;
          RunInfo on_info;
          (void)exec.run(p, op, &on_info);
          const auto on = bench::measure_seconds(
              [&] { (void)exec.run(p, op); }, reps, warmup);

          // The nnz(mask)-bounded tuple count: a mask-aware kernel
          // generates at most min(nnz(A(i,:)), nnz(B(:,j))) tuples per
          // mask entry (i,j); the filtering run generates all `flop` of
          // them regardless of the mask.
          const auto generated = static_cast<double>(
              on_info.pb_stats.flop - on_info.pb_stats.mask_skipped_expand);
          double bound = 0;
          for (index_t r = 0; r < mask.nrows; ++r) {
            const double row_nnz = static_cast<double>(
                in.matrix.rowptr[static_cast<std::size_t>(r) + 1] -
                in.matrix.rowptr[r]);
            for (nnz_t i = mask.rowptr[r];
                 i < mask.rowptr[static_cast<std::size_t>(r) + 1]; ++i) {
              const index_t col = mask.colids[i];
              const double col_nnz = static_cast<double>(
                  p.a_csc.colptr[static_cast<std::size_t>(col) + 1] -
                  p.a_csc.colptr[col]);
              bound += std::min(row_nnz, col_nnz);
            }
          }
          const double on_ms = on.min * 1e3;
          const double off_ms = off.min * 1e3;
          table.row(in.name, "expand_mask",
                    "tuples " + std::to_string(static_cast<long long>(
                                    generated)) +
                        "/" +
                        std::to_string(static_cast<long long>(bound)),
                    on_ms, off_ms, off_ms / on_ms);
          if (json.enabled()) {
            json.add(bench::Json()
                         .field("bench", std::string("fused_epilogue"))
                         .field("mode", std::string("expand_mask"))
                         .field("input", in.name)
                         .field("generated_tuples", generated)
                         .field("mask_bounded_tuples", bound)
                         .field("tuple_ratio",
                                bound > 0 ? generated / bound : 1.0)
                         .field("masked_ms", on_ms)
                         .field("filtered_ms", off_ms)
                         .field("speedup", off_ms / on_ms));
          }
        }

        // ---- fused post-op vs plain product + apply_post_op --------------
        for (const char* algo : {"pb", "hash"}) {
          PostOp post;
          post.prune_threshold = 2.0;
          post.top_k = 16;

          SpGemmOp plain;
          plain.algo = algo;
          SpGemmOp op = plain;
          op.post_op = post;
          (void)exec.run(p, op);  // warm the fused plan

          const auto fused = bench::measure_seconds(
              [&] { (void)exec.run(p, op); }, reps, warmup);
          const auto separate = bench::measure_seconds(
              [&] {
                mtx::CsrMatrix c = exec.run(p, plain);
                apply_post_op(c, post);
              },
              reps, warmup);

          const double fused_ms = fused.min * 1e3;
          const double sep_ms = separate.min * 1e3;
          table.row(in.name, "post_op",
                    std::string(algo) + " prune:2,topk:16", fused_ms, sep_ms,
                    sep_ms / fused_ms);
          if (json.enabled()) {
            json.add(bench::Json()
                         .field("bench", std::string("fused_epilogue"))
                         .field("mode", std::string("post_op"))
                         .field("algo", std::string(algo))
                         .field("input", in.name)
                         .field("fused_ms", fused_ms)
                         .field("separate_ms", sep_ms)
                         .field("speedup", sep_ms / fused_ms));
          }
        }
      }
    }
  }
  table.print(std::cout);
  return 0;
}
