// Shared infrastructure for the figure/table reproduction benches.
//
// Every bench binary in this directory regenerates one table or figure of
// the paper: it prints an environment header (so numbers are traceable), a
// column header naming the paper artifact, and one row per data point of
// the original plot — series value, per-algorithm MFLOPS and/or sustained
// bandwidth.  All knobs have laptop-scale defaults and are overridable on
// the command line:
//
//   --scales 12,14     --efs 4,8,16    --reps 3    --warmup 1
//   --threads 0        --shrink 8      --algos pb,hash
#pragma once

#include <algorithm>
#include <cstdint>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "common/env_report.hpp"
#include "common/parallel.hpp"
#include "common/run_stats.hpp"
#include "common/timer.hpp"
#include "matrix/mstats.hpp"
#include "spgemm/executor.hpp"
#include "spgemm/registry.hpp"

namespace pbs::bench {

// ---- tiny argv parser -----------------------------------------------------

class Args {
 public:
  Args(int argc, char** argv) {
    for (int i = 1; i < argc; ++i) {
      std::string arg = argv[i];
      if (arg.rfind("--", 0) != 0) continue;
      arg = arg.substr(2);
      const auto eq = arg.find('=');
      if (eq != std::string::npos) {
        kv_[arg.substr(0, eq)] = arg.substr(eq + 1);
      } else if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
        kv_[arg] = argv[++i];
      } else {
        kv_[arg] = "1";
      }
    }
  }

  [[nodiscard]] int get_int(const std::string& key, int fallback) const {
    const auto it = kv_.find(key);
    return it == kv_.end() ? fallback : std::stoi(it->second);
  }

  [[nodiscard]] double get_double(const std::string& key, double fallback) const {
    const auto it = kv_.find(key);
    return it == kv_.end() ? fallback : std::stod(it->second);
  }

  [[nodiscard]] std::string get_string(const std::string& key,
                                       const std::string& fallback) const {
    const auto it = kv_.find(key);
    return it == kv_.end() ? fallback : it->second;
  }

  [[nodiscard]] std::vector<int> get_int_list(const std::string& key,
                                              std::vector<int> fallback) const {
    const auto it = kv_.find(key);
    if (it == kv_.end()) return fallback;
    std::vector<int> out;
    std::stringstream ss(it->second);
    std::string item;
    while (std::getline(ss, item, ',')) out.push_back(std::stoi(item));
    return out;
  }

  [[nodiscard]] std::vector<std::string> get_string_list(
      const std::string& key, std::vector<std::string> fallback) const {
    const auto it = kv_.find(key);
    if (it == kv_.end()) return fallback;
    std::vector<std::string> out;
    std::stringstream ss(it->second);
    std::string item;
    while (std::getline(ss, item, ',')) out.push_back(item);
    return out;
  }

 private:
  std::map<std::string, std::string> kv_;
};

// ---- measurement ----------------------------------------------------------

/// Best-of-N wall time of `fn`, with warmup runs excluded — the paper's
/// STREAM-style methodology.
template <typename Fn>
RunStats measure_seconds(Fn&& fn, int reps, int warmup) {
  for (int i = 0; i < warmup; ++i) fn();
  std::vector<double> samples;
  samples.reserve(static_cast<std::size_t>(reps));
  Timer t;
  for (int i = 0; i < reps; ++i) {
    t.reset();
    fn();
    samples.push_back(t.elapsed_s());
  }
  return RunStats::of(std::move(samples));
}

/// The kernel a bench times for `algo` over `semiring`.  pb runs through
/// one executor the kernel holds, so warmup and measured calls reuse its
/// plan and workspace, as repeated products do in practice (the registry's
/// pb kernel starts every call on a cold pool); every other algorithm is
/// its registry kernel.
inline SpGemmFn timed_kernel(const std::string& algo,
                             const std::string& semiring = PlusTimes::name) {
  if (algo != "pb") return semiring_algorithm(algo, semiring);
  auto exec = std::make_shared<SpGemmExecutor>();
  SpGemmOp op;
  op.algo = algo;
  op.semiring = semiring;
  return [exec, op](const SpGemmProblem& p) { return exec->run(p, op); };
}

/// MFLOPS of one algorithm on one problem (best-of-reps).
inline double algo_mflops(const AlgoInfo& algo, const SpGemmProblem& problem,
                          nnz_t flop, int reps, int warmup) {
  const SpGemmFn fn = timed_kernel(algo.name);
  const RunStats s = measure_seconds([&] { (void)fn(problem); }, reps, warmup);
  return s.min > 0 ? static_cast<double>(flop) / s.min / 1e6 : 0.0;
}

/// Variant for microsecond-scale problems (e.g. tall-and-skinny frontiers):
/// each timed sample repeats `fn` enough times to last >= min_sample_s, so
/// clock granularity and call overhead do not dominate.
template <typename Fn>
RunStats measure_seconds_adaptive(Fn&& fn, int reps, int warmup,
                                  double min_sample_s = 0.005) {
  for (int i = 0; i < warmup; ++i) fn();
  Timer t;
  fn();
  const double once = t.elapsed_s();
  const int inner =
      once >= min_sample_s
          ? 1
          : static_cast<int>(min_sample_s / std::max(once, 1e-9)) + 1;
  std::vector<double> samples;
  samples.reserve(static_cast<std::size_t>(reps));
  for (int i = 0; i < reps; ++i) {
    t.reset();
    for (int j = 0; j < inner; ++j) fn();
    samples.push_back(t.elapsed_s() / inner);
  }
  return RunStats::of(std::move(samples));
}

inline double algo_mflops_adaptive(const AlgoInfo& algo,
                                   const SpGemmProblem& problem, nnz_t flop,
                                   int reps, int warmup) {
  const SpGemmFn fn = timed_kernel(algo.name);
  const RunStats s =
      measure_seconds_adaptive([&] { (void)fn(problem); }, reps, warmup);
  return s.min > 0 ? static_cast<double>(flop) / s.min / 1e6 : 0.0;
}

/// PB over `semiring` with telemetry, keeping the run with the fastest
/// numeric wall.  Warmup and measured runs share one executor, so the
/// plan and the Cˆ scratch stay warm; the symbolic slot reports the
/// analysis the first run paid (RunInfo::plan_seconds), so total_seconds()
/// and mflops() price a product with its analysis, as a fresh multiply
/// pays it.
inline pb::PbTelemetry pb_best_telemetry(const std::string& semiring,
                                         const SpGemmProblem& problem,
                                         const pb::PbConfig& cfg, int reps,
                                         int warmup) {
  SpGemmExecutor exec;
  SpGemmOp op;
  op.algo = "pb";
  op.semiring = semiring;
  op.pb = cfg;
  RunInfo info;
  double plan_seconds = 0;
  pb::PbTelemetry best;
  for (int i = 0; i < warmup + reps; ++i) {
    (void)exec.run(problem, op, &info);
    if (i == 0) plan_seconds = info.plan_seconds;
    if (i >= warmup && (i == warmup || info.pb_stats.total_seconds() <
                                           best.total_seconds())) {
      best = info.pb_stats;
    }
  }
  best.symbolic.seconds = plan_seconds;
  return best;
}

// ---- output ---------------------------------------------------------------

/// Fixed-width table printer: header row then rows of cells.
class Table {
 public:
  explicit Table(std::vector<std::string> headers)
      : headers_(std::move(headers)) {}

  template <typename... Cells>
  void row(Cells&&... cells) {
    std::vector<std::string> r;
    (r.push_back(to_cell(std::forward<Cells>(cells))), ...);
    rows_.push_back(std::move(r));
  }

  /// Row from pre-formatted cells (for variable-width tables).
  void row_cells(std::vector<std::string> cells) {
    rows_.push_back(std::move(cells));
  }

  void print(std::ostream& os) const {
    std::vector<std::size_t> width(headers_.size());
    for (std::size_t i = 0; i < headers_.size(); ++i)
      width[i] = headers_[i].size();
    for (const auto& r : rows_) {
      for (std::size_t i = 0; i < r.size() && i < width.size(); ++i)
        width[i] = std::max(width[i], r[i].size());
    }
    auto print_row = [&](const std::vector<std::string>& r) {
      for (std::size_t i = 0; i < r.size(); ++i)
        os << std::left << std::setw(static_cast<int>(width[i]) + 2) << r[i];
      os << "\n";
    };
    print_row(headers_);
    for (const auto& r : rows_) print_row(r);
  }

 private:
  template <typename T>
  static std::string to_cell(T&& v) {
    if constexpr (std::is_convertible_v<T, std::string>) {
      return std::string(std::forward<T>(v));
    } else {
      std::ostringstream ss;
      ss << std::setprecision(4) << v;
      return ss.str();
    }
  }

  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> rows_;
};

/// Standard bench prologue: what artifact this reproduces + environment.
inline void print_header(const std::string& artifact,
                         const std::string& notes = "") {
  std::cout << "# Reproduces: " << artifact << "\n";
  print_env_report(std::cout, collect_env_report());
  if (!notes.empty()) std::cout << "# " << notes << "\n";
  std::cout << "\n";
}

// ---- machine-readable output ----------------------------------------------

/// Minimal JSON object builder for the benches' --json output (CI tracks
/// the perf trajectory from these records; no external JSON dependency).
class Json {
 public:
  Json& field(const std::string& key, double v) {
    std::ostringstream ss;
    ss << std::setprecision(10) << v;
    return raw(key, ss.str());
  }
  Json& field(const std::string& key, std::int64_t v) {
    return raw(key, std::to_string(v));
  }
  Json& field(const std::string& key, const std::string& v) {
    return raw(key, "\"" + v + "\"");  // callers pass identifier-like strings
  }
  /// Pre-serialized JSON value (nested object/array).
  Json& raw(const std::string& key, const std::string& json) {
    if (!first_) ss_ << ",";
    first_ = false;
    ss_ << "\"" << key << "\":" << json;
    return *this;
  }
  [[nodiscard]] std::string str() const { return "{" + ss_.str() + "}"; }

 private:
  std::ostringstream ss_;
  bool first_ = true;
};

/// Collects records and writes them as one JSON array when a --json path
/// was given; inert otherwise.
class JsonSink {
 public:
  explicit JsonSink(const Args& args) : path_(args.get_string("json", "")) {}

  [[nodiscard]] bool enabled() const { return !path_.empty(); }
  void add(const Json& record) {
    if (enabled()) records_.push_back(record.str());
  }

  ~JsonSink() {
    if (!enabled()) return;
    std::ofstream out(path_);
    out << "[";
    for (std::size_t i = 0; i < records_.size(); ++i) {
      out << (i ? ",\n " : "\n ") << records_[i];
    }
    out << "\n]\n";
    std::cout << "# wrote " << records_.size() << " JSON records to " << path_
              << "\n";
  }

 private:
  std::string path_;
  std::vector<std::string> records_;
};

}  // namespace pbs::bench
