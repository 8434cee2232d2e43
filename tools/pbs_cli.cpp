// pbs_cli — command-line front end for the library.
//
//   pbs_cli gen      --kind er|rmat|banded --scale N [--ef F] [--n N]
//                    [--halfwidth W] [--seed S] --out FILE.mtx
//   pbs_cli stats    --a FILE.mtx
//   pbs_cli multiply --a FILE.mtx [--b FILE.mtx] [--algo pb|auto|...]
//                    [--format auto|wide|narrow|keyonly]
//                    [--reps R] [--repeat N] [--out FILE.mtx]
//                    [--semiring plus_times]
//                    [--mask FILE.mtx] [--complement]
//                    [--post-op prune:T,topk:K,scale:X]
//                    [--mem-budget-mb N] [--deadline-ms T]
//                    [--cache-capacity N] [--cache-capacity-mb M]
//   pbs_cli semiring --a FILE.mtx [--algo auto] [--repeat N]
//   pbs_cli calibrate [--scale N] [--reps R]
//   pbs_cli info
//   pbs_cli stream   [--mb N]
//   pbs_cli roofline [--beta GBS] [--cf CF]
//
// Matrices are Matrix Market files; `multiply` with no --b squares A (the
// paper's evaluation mode) and prints per-phase PB telemetry when the
// algorithm is "pb".  Every multiply runs through one SpGemmExecutor: it
// plans once and executes --reps times (best of) or --repeat N times
// (reporting the amortization), and prints the executor's cache-hit/miss
// and workspace-pool reuse counters.  --algo auto resolves to a concrete
// algorithm via the roofline selection model (mask-density-aware when
// --mask is given) and reports the decision.  `calibrate` refits
// the selection model's derating constants from recorded
// predicted-vs-achieved MFLOPS pairs.  --mask restricts the output to the mask's pattern with
// the mask *fused* into the kernel (PB skips masked-out tuples in its
// expand scatter loop when the kept side is sparse, or drops them at the
// compress stage when dense, reporting both counts); --complement flips
// the polarity.  --post-op applies an elementwise epilogue (scale, then
// prune |v| < T, then keep the top-k per row): pb fuses it into its
// per-bin filter and hash and hashvec into their row loop (one pass with
// no symbolic phase when it prunes), so none of them materializes the
// unpruned product; after heap, spa and the other baselines it runs as
// one parallel pass over the full product.  It is an error on value-free
// semirings.
// `semiring` demonstrates runtime semiring registration: it registers the
// tropical (max, +) semiring "plus_max" through SemiringRegistry and runs
// the multiplication over it through the executor.  `info` prints
// the (algorithm × semiring) support matrix and the detected cache
// hierarchy.  An option a command does not read, or an option missing its
// value, is an error: a mistyped or retired option never silently runs
// the default.
#include <pbs/pbs.hpp>

#include <algorithm>
#include <iostream>
#include <limits>
#include <map>
#include <optional>
#include <string>
#include <vector>

namespace {

using namespace pbs;

class Cli {
 public:
  /// Parses argv[2..] against `known`, the options the command reads.
  /// Throws std::invalid_argument on an unknown option, a stray argument,
  /// or an option whose value is missing (end of line, or the next token
  /// is itself an option).
  Cli(int argc, char** argv, const std::vector<std::string>& known) {
    for (int i = 2; i < argc; ++i) {
      const std::string arg = argv[i];
      if (arg.rfind("--", 0) != 0) {
        throw std::invalid_argument("unexpected argument '" + arg + "'");
      }
      const std::string name = arg.substr(2);
      if (std::find(known.begin(), known.end(), name) == known.end()) {
        throw std::invalid_argument("unknown option " + arg + " for '" +
                                    argv[1] + "' (pbs_cli help)");
      }
      // The one value-less flag; every other option takes the next token.
      if (name == "complement") {
        kv_[name] = "1";
      } else if (i + 1 < argc &&
                 std::string(argv[i + 1]).rfind("--", 0) != 0) {
        kv_[name] = argv[++i];
      } else {
        throw std::invalid_argument("option " + arg + " needs a value");
      }
    }
  }

  [[nodiscard]] std::optional<std::string> get(const std::string& key) const {
    const auto it = kv_.find(key);
    return it == kv_.end() ? std::nullopt : std::optional(it->second);
  }

  [[nodiscard]] std::string require(const std::string& key) const {
    const auto v = get(key);
    if (!v) throw std::invalid_argument("missing required option --" + key);
    return *v;
  }

  [[nodiscard]] double number(const std::string& key, double fallback) const {
    const auto v = get(key);
    return v ? std::stod(*v) : fallback;
  }

 private:
  std::map<std::string, std::string> kv_;
};

int cmd_gen(const Cli& cli) {
  const std::string kind = cli.require("kind");
  const auto seed = static_cast<std::uint64_t>(cli.number("seed", 1));
  mtx::CooMatrix coo;
  if (kind == "er") {
    const int scale = static_cast<int>(cli.number("scale", 14));
    coo = mtx::generate_er(mtx::RandomScale{scale, cli.number("ef", 8.0)}, seed);
  } else if (kind == "rmat") {
    mtx::RmatParams p;
    p.scale = static_cast<int>(cli.number("scale", 14));
    p.edge_factor = cli.number("ef", 8.0);
    p.seed = seed;
    coo = mtx::generate_rmat(p);
  } else if (kind == "banded") {
    coo = mtx::generate_banded(static_cast<index_t>(cli.number("n", 1 << 14)),
                               cli.number("ef", 8.0),
                               static_cast<index_t>(cli.number("halfwidth", 16)),
                               seed);
  } else {
    throw std::invalid_argument("unknown --kind '" + kind +
                                "' (er, rmat, banded)");
  }
  const std::string out = cli.require("out");
  mtx::write_matrix_market(out, coo);
  std::cout << "wrote " << out << ": " << coo.nrows << " x " << coo.ncols
            << ", nnz " << coo.nnz() << "\n";
  return 0;
}

int cmd_stats(const Cli& cli) {
  const mtx::CsrMatrix a =
      mtx::coo_to_csr(mtx::read_matrix_market(cli.require("a")));
  const mtx::SquareStats s = mtx::square_stats(a);
  std::cout << "n " << s.n << "\nnnz " << s.nnz << "\nd " << s.d << "\nflop(A^2) "
            << s.flops << "\nnnz(A^2) " << s.nnz_c << "\ncf " << s.cf << "\n";
  return 0;
}

void print_pb_phases(const pb::PbTelemetry& tm) {
  std::cout << "  format " << to_string(tm.format) << " ("
            << tm.tuple_bytes() << " B/tuple), symbolic "
            << tm.symbolic.seconds * 1e3 << " ms, expand "
            << tm.expand.seconds * 1e3 << " ms (" << tm.expand.gbs()
            << " GB/s), sort " << tm.sort.seconds * 1e3 << " ms ("
            << tm.sort.gbs() << " GB/s), compress "
            << tm.compress.seconds * 1e3 << " ms, convert "
            << tm.convert.seconds * 1e3 << " ms\n"
            << "  pipeline: numeric wall " << tm.wall_seconds * 1e3
            << " ms (the phase walls above sum to it)\n";
}

// The multiply path: analyze + select once into the executor's plan
// cache, execute `execs` times through it.  With --repeat the report
// centers on amortization and the executor's cache/pool counters (the
// serving layer's reason to exist); with --reps it is best-of-N timing.
// A non-null mask runs the fused masked descriptor.
int multiply_planned(const Cli& cli, const SpGemmProblem& problem,
                     const std::string& algo, const std::string& semiring,
                     pb::FormatPolicy format, int execs,
                     bool amortization_report,
                     const mtx::CsrMatrix* mask = nullptr,
                     bool complement = false, const PostOp& post_op = {}) {
  SpGemmOp opts;
  opts.algo = algo;
  opts.semiring = semiring;
  opts.pb.format = format;
  opts.mask = mask;
  opts.complement = complement;
  opts.post_op = post_op;
  // Robust-serving knobs: a byte cap on pooled workspace memory (PB
  // degrades to the row-wise fallback rather than exceeding it) and a
  // per-execute deadline (DeadlineError once it expires).
  ExecutorOptions eopts;
  const double budget_mb = cli.number("mem-budget-mb", 0);
  if (budget_mb > 0) {
    eopts.mem_budget_bytes =
        static_cast<std::size_t>(budget_mb * 1024.0 * 1024.0);
  }
  // Plan-cache knobs: --cache-capacity N bounds the entry count,
  // --cache-capacity-mb M switches to the byte-budgeted policy the
  // serving daemon uses (cost-aware eviction; overrides N).
  const double cache_entries = cli.number("cache-capacity", 0);
  if (cache_entries > 0) {
    eopts.cache_capacity = static_cast<std::size_t>(cache_entries);
  }
  const double cache_mb = cli.number("cache-capacity-mb", 0);
  if (cache_mb > 0) {
    eopts.cache_capacity_bytes =
        static_cast<std::size_t>(cache_mb * 1024.0 * 1024.0);
  }
  RunOptions ropts;
  const double deadline_ms = cli.number("deadline-ms", 0);
  if (deadline_ms > 0) {
    ropts.timeout =
        std::chrono::milliseconds(static_cast<long long>(deadline_ms));
  }
  SpGemmExecutor exec(eopts);
  Timer t;
  RunInfo info;
  exec.prepare(problem, opts, &info);
  const double plan_s = t.elapsed_s();

  if (algo == "auto") {
    std::cout << "auto -> " << info.algo << " (" << info.choice.rationale
              << ")\n";
  }

  const nnz_t flop = info.flop;  // computed by the analysis
  const double predicted = info.predicted_mflops;
  mtx::CsrMatrix c;
  double first_s = 0, rest_s = 0, best_s = 0;
  for (int i = 0; i < execs; ++i) {
    t.reset();
    c = exec.run(problem, opts, ropts, &info);
    const double s = t.elapsed_s();
    (i == 0 ? first_s : rest_s) += s;
    if (i == 0 || s < best_s) best_s = s;
  }

  std::cout << info.algo << " (" << semiring << "): nnz(C) = " << c.nnz()
            << ", flop = " << flop << ", "
            << static_cast<double>(flop) / best_s / 1e6
            << " MFLOPS (best of " << execs << " executes)\n"
            << "  plan " << plan_s * 1e3 << " ms, first execute "
            << first_s * 1e3 << " ms";
  if (execs > 1)
    std::cout << ", steady execute " << rest_s / (execs - 1) * 1e3 << " ms";
  std::cout << "\n";
  if (algo == "auto") {
    // The estimator's error, visible: the cf the choice ran on against
    // the product's.
    std::cout << "  cf estimated " << info.choice.cf << ", actual "
              << static_cast<double>(flop) /
                     static_cast<double>(std::max<nnz_t>(c.nnz(), 1))
              << "\n";
  }
  if (amortization_report && execs > 1) {
    const double fresh_per_mult = plan_s + first_s;  // analysis paid in-line
    const double amortized = (plan_s + first_s + rest_s) / execs;
    std::cout << "  amortized over " << execs << ": " << amortized * 1e3
              << " ms/multiply vs " << fresh_per_mult * 1e3
              << " fresh (recovered "
              << (1.0 - amortized / fresh_per_mult) * 100 << "%)\n";
  }
  const ExecutorStats es = exec.stats();
  const pb::WorkspacePool::Stats pool = exec.pool_stats();
  const pb::PbWorkspace::Stats ws = exec.workspace_stats();
  std::cout << "  executor cache: " << es.executes << " executes, "
            << es.cache_hits << " hits / " << es.cache_misses
            << " misses (hit ratio " << es.hit_ratio() << "), "
            << es.cache_entries << " entries / "
            << static_cast<double>(es.cache_bytes) / 1024.0 << " KiB held, "
            << es.evictions << " evicted";
  if (es.passthrough > 0) {
    std::cout << ", " << es.passthrough << " pass-through";
  }
  std::cout << "\n  workspace pool: " << pool.leases << " leases, "
            << pool.created << " workspace(s) created, " << pool.reused
            << " reuses; pooled buffers: " << ws.allocations
            << " allocations, " << ws.reuses << " reuses\n";
  if (eopts.mem_budget_bytes > 0 || deadline_ms > 0 ||
      es.degraded_plans > 0 || es.degraded_runs > 0 || es.cancelled > 0) {
    std::cout << "  robustness:";
    if (eopts.mem_budget_bytes > 0)
      std::cout << " budget " << budget_mb << " MiB,";
    if (deadline_ms > 0) std::cout << " deadline " << deadline_ms << " ms,";
    std::cout << " " << es.degraded_plans << " plan(s) degraded, "
              << es.degraded_runs << " run(s) fell back (" << es.oom_fallbacks
              << " oom), " << es.cancelled << " cancelled\n";
    if (info.degraded) {
      std::cout << "  last execute degraded ('" << info.degrade_reason
                << "') -> ran " << info.algo << "\n";
    }
  }
  if (predicted > 0) {
    std::cout << "  model: predicted " << predicted
              << " MFLOPS, last execute achieved " << info.achieved_mflops
              << "\n";
  }
  if (mask != nullptr) {
    std::cout << "  mask: nnz " << mask->nnz()
              << (complement ? " (complemented)" : "");
    if (info.used_pb) {
      // The two fused mask sites are disjoint: a sparse mask skips tuple
      // generation in the expand scatter loops, a dense one drops after
      // the per-bin compress.
      std::cout << ", tuples skipped at expand "
                << info.pb_stats.mask_skipped_expand
                << ", tuples dropped at compress "
                << info.pb_stats.mask_dropped;
    }
    std::cout << "\n";
  }
  if (post_op.active()) {
    std::cout << "  post-op: " << post_op_to_string(post_op);
    if (info.used_pb) {
      std::cout << ", entries dropped in-kernel "
                << info.pb_stats.post_dropped;
    }
    std::cout << "\n";
  }
  if (info.used_pb) {
    print_pb_phases(info.pb_stats);
  } else if (info.passthrough) {
    std::cout << "  note: nothing is cached for a fixed " << info.algo
              << "; each execute is a fresh multiply\n";
  } else {
    std::cout << "  note: the executor caches "
              << (algo == "auto" ? "the roofline selection"
                                 : "kernel resolution")
              << " for " << info.algo
              << "; each execute is a fresh multiply\n";
  }
  if (cli.get("out")) mtx::write_matrix_market(*cli.get("out"), mtx::csr_to_coo(c));
  return 0;
}

pb::FormatPolicy parse_format(const std::string& name) {
  if (name == "auto") return pb::FormatPolicy::kAuto;
  if (name == "wide") return pb::FormatPolicy::kWide;
  if (name == "narrow") return pb::FormatPolicy::kNarrow;
  if (name == "keyonly") return pb::FormatPolicy::kKeyOnly;
  throw std::invalid_argument("unknown --format '" + name +
                              "' (auto, wide, narrow, keyonly)");
}

// Inside the library a format request is a preference (an illegal choice
// falls back silently); an explicit --format from the user is strict —
// requesting the 8 B key-only stream for a semiring that carries values
// is an error, not a silent downgrade to 12 or 16 B.
void check_format_legal(pb::FormatPolicy format, const std::string& semiring) {
  if (format == pb::FormatPolicy::kKeyOnly &&
      is_registered_semiring(semiring) && !semiring_value_free(semiring)) {
    throw std::invalid_argument(
        "--format keyonly requires a value-free semiring (bool_or_and, or a "
        "runtime semiring registered with value_free = true); '" +
        semiring + "' carries values — use wide or narrow");
  }
}

int cmd_multiply(const Cli& cli) {
  const mtx::CsrMatrix a =
      mtx::coo_to_csr(mtx::read_matrix_market(cli.require("a")));
  const mtx::CsrMatrix b =
      cli.get("b") ? mtx::coo_to_csr(mtx::read_matrix_market(*cli.get("b"))) : a;
  const std::string algo = cli.get("algo").value_or("pb");
  const std::string semiring = cli.get("semiring").value_or("plus_times");
  const int reps = static_cast<int>(cli.number("reps", 1));
  const int repeat = static_cast<int>(cli.number("repeat", 0));
  const pb::FormatPolicy format =
      parse_format(cli.get("format").value_or("auto"));
  if (cli.get("format")) check_format_legal(format, semiring);
  const SpGemmProblem problem = SpGemmProblem::multiply(a, b);

  if (repeat > 0 && reps > 1) {
    throw std::invalid_argument(
        "--reps (best-of-N timing) and --repeat (plan amortization) are "
        "mutually exclusive; pass one");
  }
  std::optional<mtx::CsrMatrix> mask;
  if (cli.get("mask")) {
    mask = mtx::coo_to_csr(mtx::read_matrix_market(*cli.get("mask")));
  }
  const bool complement = cli.number("complement", 0) != 0;
  // --post-op runs the fused epilogue: strict about value-free semirings
  // (nothing to scale or prune) rather than silently ignoring the flag.
  PostOp post_op;
  if (cli.get("post-op")) {
    post_op = parse_post_op(*cli.get("post-op"));
    if (post_op.active() && semiring_value_free(semiring)) {
      throw std::invalid_argument(
          "--post-op on value-free semiring '" + semiring +
          "': every output value is the present-value 1.0; there is "
          "nothing to scale, prune or rank");
    }
  }
  // Every multiply runs through the executor: best-of-N timing with
  // --reps, plan amortization and the cache counters with --repeat.
  const int execs = repeat > 0 ? repeat : reps;
  return multiply_planned(cli, problem, algo, semiring, format,
                          std::max(execs, 1),
                          /*amortization_report=*/repeat > 0,
                          mask ? &*mask : nullptr, complement, post_op);
}

// Runtime semiring registration demo: register the tropical (max, +)
// semiring and run the multiplication over it through the executor — the
// round trip a user-defined semiring takes.
int cmd_semiring(const Cli& cli) {
  const std::string name = cli.get("name").value_or("plus_max");
  SemiringRegistry& reg = SemiringRegistry::instance();
  if (!reg.contains(name)) {
    RuntimeSemiring rs;
    rs.name = name;
    rs.zero = -std::numeric_limits<value_t>::infinity();
    rs.add = [](value_t x, value_t y) { return std::max(x, y); };
    rs.mul = [](value_t x, value_t y) { return x + y; };
    reg.register_semiring(rs);
    std::cout << "registered runtime semiring '" << name
              << "' (tropical max-plus: zero = -inf, add = max, mul = +)\n";
  } else {
    std::cout << "semiring '" << name << "' already registered\n";
  }
  std::cout << "support matrix now:\n" << algorithm_semiring_matrix() << "\n";

  const mtx::CsrMatrix a =
      mtx::coo_to_csr(mtx::read_matrix_market(cli.require("a")));
  const SpGemmProblem problem = SpGemmProblem::multiply(a, a);
  const int repeat = static_cast<int>(cli.number("repeat", 1));
  return multiply_planned(cli, problem, cli.get("algo").value_or("auto"),
                          name, pb::FormatPolicy::kAuto,
                          std::max(repeat, 1),
                          /*amortization_report=*/repeat > 1);
}

// Closes the telemetry loop from the command line: runs an "auto" sweep
// over generated problems spanning the compression-factor range (sparse
// ER squarings sit at cf ≈ 1-2 and select pb; dense squarings compress
// heavily and select hash), records the predicted-vs-achieved MFLOPS pair
// of every fingerprint-verified execute, and refits the selection model's
// two derating constants from them (SelectionModel::calibrate).
int cmd_calibrate(const Cli& cli) {
  const int scale = static_cast<int>(cli.number("scale", 11));
  const int reps = std::max(1, static_cast<int>(cli.number("reps", 3)));

  SpGemmExecutor exec;
  SpGemmOp op;  // algo = "auto": every execute records a sample

  // The pb-family probe: an ER squaring at the paper's ef = 8 (cf ≈ 1-2).
  const mtx::CsrMatrix sparse = mtx::coo_to_csr(
      mtx::generate_er(mtx::RandomScale{scale, 8.0}, 7));
  // The column-family probe: a small dense-ish squaring (high cf).
  const index_t dn = 1 << std::max(4, scale - 4);
  const mtx::CsrMatrix dense =
      mtx::coo_to_csr(mtx::generate_er(dn, dn, 40.0, 8));

  for (const mtx::CsrMatrix* m : {&sparse, &dense}) {
    const SpGemmProblem p = SpGemmProblem::square(*m);
    RunInfo info;
    exec.prepare(p, op, &info);
    std::cout << "probe n = " << m->nrows << ", nnz = " << m->nnz()
              << ": auto -> " << info.algo << " (cf " << info.choice.cf
              << ")\n";
    for (int i = 0; i < reps + 1; ++i) (void)exec.run(p, op);  // +1 warmup
  }

  const std::vector<model::PerfSample> samples = exec.samples();
  std::cout << samples.size() << " predicted-vs-achieved samples recorded\n";
  const model::SelectionModel defaults;
  model::SelectionModel fitted;
  const model::CalibrationResult r = fitted.calibrate(samples);
  if (!r.changed) {
    std::cout << "no usable samples; model unchanged\n";
    return 1;
  }
  std::cout << "refit derating constants from " << r.pb_samples
            << " pb + " << r.column_samples << " column samples:\n"
            << "  pb_efficiency          " << defaults.pb_efficiency
            << " -> " << r.pb_efficiency << "\n"
            << "  column_latency_penalty " << defaults.column_latency_penalty
            << " -> " << r.column_latency_penalty << "\n"
            << "apply via SelectionModel{.pb_efficiency = " << r.pb_efficiency
            << ", .column_latency_penalty = " << r.column_latency_penalty
            << "} in SpGemmOp::model\n";
  return 0;
}

int cmd_info(const Cli&) {
  std::cout << "algorithm x semiring support matrix (multiply --algo A "
               "--semiring S; generalized algorithms also accept any "
               "semiring registered at runtime):\n"
            << algorithm_semiring_matrix();
  const CacheInfo& c = cache_info();
  std::cout << "\ndetected cache hierarchy (sizes the PB bin layout):\n"
            << "  L1d  " << c.l1d_bytes / 1024 << " KiB\n"
            << "  L2   " << c.l2_bytes / 1024 << " KiB  (bins sized to L2/2)\n"
            << "  L3   " << c.l3_bytes / 1024 << " KiB\n"
            << "  line " << c.line_bytes << " B\n"
            << "\nOpenMP threads: " << max_threads() << "\n"
            << "transparent huge pages: " << collect_env_report().thp_mode
            << " (outputs of " << (kHugePageMinBytes >> 20)
            << " MiB or more are advised huge pages)\n";
  return 0;
}

int cmd_stream(const Cli& cli) {
  const auto elements = static_cast<std::size_t>(cli.number("mb", 256)) *
                        1024 * 1024 / (3 * sizeof(double));
  const StreamResult r = run_stream(elements);
  std::cout << "copy " << r.copy_gbs << " GB/s, scale " << r.scale_gbs
            << ", add " << r.add_gbs << ", triad " << r.triad_gbs << "\n";
  return 0;
}

int cmd_roofline(const Cli& cli) {
  const double beta = cli.number("beta", 0.0) > 0
                          ? cli.number("beta", 0.0)
                          : run_stream(1 << 23, 3).best_gbs();
  const double cf = cli.number("cf", 1.0);
  const model::SpGemmBounds b = model::bounds(beta, cf);
  std::cout << "beta = " << beta << " GB/s, cf = " << cf << "\n"
            << "upper bound  : " << b.perf_upper * 1e3 << " MFLOPS (AI "
            << b.ai_upper << ")\n"
            << "column bound : " << b.perf_column * 1e3 << " MFLOPS (AI "
            << b.ai_column << ")\n"
            << "outer bound  : " << b.perf_outer * 1e3 << " MFLOPS (AI "
            << b.ai_outer << ")\n";
  return 0;
}

void usage() {
  std::cout <<
      "pbs_cli <command> [options]\n"
      "  gen      --kind er|rmat|banded --out FILE.mtx [--scale N --ef F --seed S]\n"
      "           [--n N --halfwidth W]   (banded: N x N, nonzeros within W\n"
      "                                    of the diagonal)\n"
      "  stats    --a FILE.mtx\n"
      "  multiply --a FILE.mtx [--b FILE.mtx] [--algo NAME|auto] [--semiring NAME]\n"
      "           [--format auto|wide|narrow|keyonly]\n"
      "           [--reps R] [--repeat N] [--out FILE.mtx]\n"
      "           [--mask FILE.mtx] [--complement]\n"
      "           [--post-op prune:T,topk:K,scale:X]\n"
      "           [--mem-budget-mb N] [--deadline-ms T]\n"
      "           [--cache-capacity N] [--cache-capacity-mb M]\n"
      "  semiring --a FILE.mtx [--name plus_max] [--algo auto] [--repeat N]\n"
      "           [--out FILE.mtx] [--mem-budget-mb N] [--deadline-ms T]\n"
      "           [--cache-capacity N] [--cache-capacity-mb M]\n"
      "  calibrate [--scale N] [--reps R]\n"
      "  info\n"
      "  stream   [--mb N]\n"
      "  roofline [--beta GBS] [--cf CF]\n"
      "\n"
      "multiply computes A ⊗ B with --algo over --semiring (defaults: pb,\n"
      "plus_times).  Every (algorithm, semiring) pair runs that actual\n"
      "algorithm — pb over min_plus executes the propagation-blocking\n"
      "pipeline, not a fallback; unsupported pairs are an error (run\n"
      "`pbs_cli info` for the support matrix).  --algo auto selects\n"
      "pb/hash/heap from the roofline model and reports why; --repeat N\n"
      "plans once and executes N times, reporting the amortized cost.\n"
      "PB expands every column, meets at one barrier, then runs a dynamic\n"
      "loop over bins (sort, compress, mask, post-op) and the CSR\n"
      "convert; pb runs report each phase's wall and the numeric wall\n"
      "they sum to.\n"
      "--mask M restricts the output to M's pattern with the mask fused\n"
      "into the kernel (a sparse mask skips tuple generation at expand, a\n"
      "dense one drops at compress; both counts are reported);\n"
      "--complement keeps the positions NOT in M.  --post-op applies an\n"
      "elementwise epilogue — scale, then prune |v| < T, then top-k per\n"
      "row.  pb fuses it into its per-bin filter and hash and hashvec into\n"
      "their row loop, so they never materialize the unpruned product;\n"
      "after heap, spa and the other baselines it runs as one parallel\n"
      "pass over the full product.  It is an error on value-free\n"
      "semirings.\n"
      "--mem-budget-mb N caps the executor's pooled workspace memory: a\n"
      "PB stream that cannot fit degrades to the row-wise fallback and\n"
      "the degradation is reported; --deadline-ms T bounds each execute\n"
      "(a run past the deadline unwinds with a deadline error).\n"
      "--cache-capacity N bounds the plan cache's entry count and\n"
      "--cache-capacity-mb M switches it to the byte-budgeted, cost-aware\n"
      "policy the serving daemon uses (M overrides N).  All four route\n"
      "through the executor path.  `semiring`\n"
      "registers the tropical (max, +) semiring at runtime and multiplies\n"
      "over it — the user-defined-semiring round trip.  `calibrate` runs\n"
      "an auto-selected sweep and refits the roofline model's derating\n"
      "constants from the recorded predicted-vs-achieved MFLOPS pairs.\n"
      "An option a command does not read, or one missing its value, is\n"
      "an error.\n";
}

struct Command {
  int (*run)(const Cli&);
  std::vector<std::string> options;  ///< the options run() reads
};

// The options multiply_planned reads, on top of its caller's own.
std::vector<std::string> with_executor_options(std::vector<std::string> v) {
  v.insert(v.end(), {"out", "mem-budget-mb", "deadline-ms", "cache-capacity",
                     "cache-capacity-mb"});
  return v;
}

const std::map<std::string, Command>& commands() {
  static const std::map<std::string, Command> table = {
      {"gen", {cmd_gen, {"kind", "scale", "ef", "n", "halfwidth", "seed",
                         "out"}}},
      {"stats", {cmd_stats, {"a"}}},
      {"multiply",
       {cmd_multiply,
        with_executor_options({"a", "b", "algo", "semiring", "format", "reps",
                               "repeat", "mask", "complement", "post-op"})}},
      {"semiring",
       {cmd_semiring, with_executor_options({"a", "name", "algo", "repeat"})}},
      {"calibrate", {cmd_calibrate, {"scale", "reps"}}},
      {"info", {cmd_info, {}}},
      {"stream", {cmd_stream, {"mb"}}},
      {"roofline", {cmd_roofline, {"beta", "cf"}}},
  };
  return table;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    usage();
    return 2;
  }
  const std::string cmd = argv[1];
  if (cmd == "help" || cmd == "--help" || cmd == "-h") {
    usage();
    return 0;
  }
  const auto it = commands().find(cmd);
  if (it == commands().end()) {
    usage();
    return 2;
  }
  try {
    const Cli cli(argc, argv, it->second.options);
    return it->second.run(cli);
  } catch (const std::exception& e) {
    std::cerr << "pbs_cli: " << e.what() << "\n";
    return 1;
  }
}
