// The random-matrix sweep driver shared by the Fig. 7/8 (ER) and Fig. 9/10
// (R-MAT) benches: for each (scale, edge factor), time the paper's four
// algorithms and report PB's per-phase sustained bandwidth.
#pragma once

#include <cmath>
#include <string>

#include "bench_common.hpp"
#include "matrix/convert.hpp"
#include "matrix/generate.hpp"

namespace pbs::bench {

enum class MatrixKind { kEr, kRmat };

inline mtx::CsrMatrix make_random(MatrixKind kind, int scale, double ef,
                                  std::uint64_t seed) {
  if (kind == MatrixKind::kEr) {
    return mtx::coo_to_csr(mtx::generate_er(mtx::RandomScale{scale, ef}, seed));
  }
  mtx::RmatParams p;  // Graph500 skew parameters are the defaults
  p.scale = scale;
  p.edge_factor = ef;
  p.seed = seed;
  return mtx::coo_to_csr(mtx::generate_rmat(p));
}

/// Figs. 7a/8/9a/10 (performance) + 7b/9b (PB sustained bandwidth).
/// Multiplies two *distinct* random matrices of the same scale/edge factor,
/// as the paper does for random inputs (Sec. IV-C).
inline void run_random_sweep(const std::string& artifact, MatrixKind kind,
                             const Args& args) {
  const std::vector<int> scales = args.get_int_list("scales", {12, 13, 14});
  const std::vector<int> efs = args.get_int_list("efs", {4, 8, 16});
  const int reps = args.get_int("reps", 3);
  const int warmup = args.get_int("warmup", 2);
  const int threads = args.get_int("threads", 0);
  const auto algo_names = args.get_string_list(
      "algos", {"pb", "heap", "hash", "hashvec"});

  if (threads > 0) set_threads(threads);
  print_header(artifact,
               "multiplying two random matrices per point; MFLOPS = flop / "
               "best wall time of " +
                   std::to_string(reps) + " runs");

  Table perf([&] {
    std::vector<std::string> h{"scale", "ef", "flop", "cf"};
    for (const auto& a : algo_names) h.push_back(a + "(MF/s)");
    return h;
  }());

  // Per format (the auto-selected one first, then wide-forced as the
  // ablation): phase bandwidths plus the sort+compress seconds the
  // narrow-key stream is meant to shrink.
  Table bw({"scale", "ef", "format", "B/t", "expand(GB/s)", "sort(GB/s)",
            "compress(GB/s)", "convert(GB/s)", "sort+comp(ms)",
            "overall(MF/s)"});

  // Compressed-stream ablation: the same points multiplied over
  // bool_or_and with the 8 B key-only stream (auto) vs the 12 B narrow
  // stream (forced).  The key-only compress drops the semiring add and the value
  // scatter from every radix pass, so sort+compress is where the win
  // concentrates.
  Table stream({"scale", "ef", "semiring", "format", "B/t", "sort+comp(ms)",
                "vs narrow", "overall(MF/s)"});

  JsonSink json(args);
  double sc_speedup_product = 1.0;
  int sc_speedup_points = 0;
  double keyonly_speedup_product = 1.0;
  int keyonly_speedup_points = 0;

  for (const int scale : scales) {
    for (const int ef : efs) {
      const mtx::CsrMatrix a =
          make_random(kind, scale, ef, 1000 + static_cast<std::uint64_t>(scale));
      const mtx::CsrMatrix b =
          make_random(kind, scale, ef, 2000 + static_cast<std::uint64_t>(scale));
      const SpGemmProblem problem = SpGemmProblem::multiply(a, b);
      const nnz_t flop = mtx::count_flops(a, b);
      const nnz_t nnzc = mtx::symbolic_nnz(a, b);
      const double cf = nnzc > 0 ? static_cast<double>(flop) / nnzc : 0.0;

      std::vector<double> mflops;
      for (const auto& name : algo_names) {
        mflops.push_back(
            algo_mflops(algorithm(name), problem, flop, reps, warmup));
      }

      std::vector<std::string> cells{std::to_string(scale),
                                     std::to_string(ef),
                                     std::to_string(flop)};
      {
        std::ostringstream ss;
        ss << std::setprecision(3) << cf;
        cells.push_back(ss.str());
      }
      for (const double m : mflops) {
        std::ostringstream ss;
        ss << std::setprecision(4) << m;
        cells.push_back(ss.str());
      }
      perf.row_cells(std::move(cells));

      pb::PbConfig auto_cfg;  // FormatPolicy::kAuto — narrow when it fits
      pb::PbConfig wide_cfg;
      wide_cfg.format = pb::FormatPolicy::kWide;
      const pb::PbTelemetry t =
          pb_best_telemetry(PlusTimes::name, problem, auto_cfg, reps,
                            warmup);
      // The wide-forced ablation only measures something new when auto
      // actually packed narrow.
      const pb::PbTelemetry tw =
          t.format == pb::TupleFormat::kWide
              ? t
              : pb_best_telemetry(PlusTimes::name, problem, wide_cfg, reps,
                                  warmup);
      for (const pb::PbTelemetry* tm : {&t, &tw}) {
        bw.row(scale, ef, to_string(tm->format), tm->tuple_bytes(),
               tm->expand.gbs(), tm->sort.gbs(), tm->compress.gbs(),
               tm->convert.gbs(),
               (tm->sort.seconds + tm->compress.seconds) * 1e3, tm->mflops());
      }
      if (t.format == pb::TupleFormat::kNarrow) {
        const double sc_auto = t.sort.seconds + t.compress.seconds;
        const double sc_wide = tw.sort.seconds + tw.compress.seconds;
        if (sc_auto > 0) {
          sc_speedup_product *= sc_wide / sc_auto;
          ++sc_speedup_points;
        }
      }

      pb::PbConfig narrow_cfg;
      narrow_cfg.format = pb::FormatPolicy::kNarrow;
      // Boolean sweep: auto resolves to key-only (bool_or_and is
      // value-free); the narrow-forced run is the 12 B baseline the
      // acceptance floor compares against.
      const pb::PbTelemetry tko =
          pb_best_telemetry("bool_or_and", problem, auto_cfg, reps, warmup);
      const pb::PbTelemetry tbn =
          pb_best_telemetry("bool_or_and", problem, narrow_cfg, reps,
                            warmup);
      const double sc_narrow = tbn.sort.seconds + tbn.compress.seconds;
      auto stream_row = [&](const std::string& semiring,
                            const pb::PbTelemetry& tm) {
        const double sc = tm.sort.seconds + tm.compress.seconds;
        stream.row(scale, ef, semiring, to_string(tm.format),
                   tm.tuple_bytes(), sc * 1e3,
                   sc > 0 ? sc_narrow / sc : 0.0, tm.mflops());
      };
      stream_row("bool_or_and", tko);
      stream_row("bool_or_and", tbn);
      if (tko.format == pb::TupleFormat::kKeyOnly &&
          tbn.format == pb::TupleFormat::kNarrow) {
        const double sc_keyonly = tko.sort.seconds + tko.compress.seconds;
        if (sc_keyonly > 0) {
          keyonly_speedup_product *= sc_narrow / sc_keyonly;
          ++keyonly_speedup_points;
        }
      }

      if (json.enabled()) {
        Json algos;
        for (std::size_t i = 0; i < algo_names.size(); ++i) {
          algos.field(algo_names[i], mflops[i]);
        }
        auto pb_record = [](const pb::PbTelemetry& tm) {
          return Json()
              .field("format", std::string(to_string(tm.format)))
              .field("bytes_per_tuple", tm.tuple_bytes())
              .field("expand_s", tm.expand.seconds)
              .field("sort_s", tm.sort.seconds)
              .field("compress_s", tm.compress.seconds)
              .field("convert_s", tm.convert.seconds)
              .field("gflops", tm.mflops() / 1e3)
              .str();
        };
        json.add(Json()
                     .field("bench", std::string("random_sweep"))
                     .field("kind", std::string(kind == MatrixKind::kEr
                                                    ? "er"
                                                    : "rmat"))
                     .field("scale", std::int64_t{scale})
                     .field("ef", std::int64_t{ef})
                     .field("flop", std::int64_t{flop})
                     .field("cf", cf)
                     .raw("mflops", algos.str())
                     .raw("pb", pb_record(t))
                     .raw("pb_wide", pb_record(tw))
                     .raw("pb_bool_keyonly", pb_record(tko))
                     .raw("pb_bool_narrow", pb_record(tbn)));
      }
    }
  }

  std::cout << "## Performance (paper plots MFLOPS; its text's 'GFLOPS' is a "
               "units typo — the Roofline caps ER at ~3 GFLOPS)\n";
  perf.print(std::cout);
  std::cout << "\n## PB-SpGEMM sustained bandwidth per phase (Table III byte "
               "model), auto-selected format vs wide-forced\n";
  bw.print(std::cout);
  if (sc_speedup_points > 0) {
    std::cout << "\n# narrow-format sort+compress speedup vs wide (geomean over "
              << sc_speedup_points << " points): "
              << std::pow(sc_speedup_product, 1.0 / sc_speedup_points)
              << "x\n";
  }
  std::cout << "\n## Compressed streams: key-only (8 B) vs narrow (12 B) on "
               "bool_or_and\n";
  stream.print(std::cout);
  if (keyonly_speedup_points > 0) {
    std::cout << "\n# key-only sort+compress speedup vs narrow on bool_or_and "
                 "(geomean over "
              << keyonly_speedup_points << " points): "
              << std::pow(keyonly_speedup_product,
                          1.0 / keyonly_speedup_points)
              << "x\n";
  }
}

}  // namespace pbs::bench
