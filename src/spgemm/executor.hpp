// SpGemmExecutor — the one way a product runs.
//
// Every multiplication in the library (fixed algorithm or "auto"; plain,
// masked, accumulating or with a post-op; built-in or runtime semiring)
// goes through run() with the descriptor SpGemmOp (spgemm/op.hpp):
//
//   SpGemmExecutor exec;                 // holds plans and workspaces
//   SpGemmOp op;                         // algo = "auto" by default
//   op.semiring = "min_plus";
//   for (...) c = exec.run(problem, op); // analysis once per structure
//
// Repeating one structure is the simplest traffic; iterative and serving
// workloads need more: MCL alternates between a few pruned shapes, AMG
// walks two triple-product sites down a level hierarchy, and a service
// multiplies through one hot plan from many threads at once.  The
// executor owns all of these patterns:
//
//   PlanCache      — an LRU of cached plans keyed by StructureFingerprint
//                    × op identity.  Workloads alternating between a few
//                    structures pay the O(ncols)/O(nnz) analysis once per
//                    structure instead of once per flip; the per-execute
//                    cost of a hit is the O(ncols) fingerprint pass.
//   value-only     — run_values_updated(): when the caller knows only the
//                    operands' *values* changed since the previous run of
//                    this op (same structure), the executor matches the
//                    cached plan on dims+nnz alone and replays just the
//                    numeric stages — no flop recount, no symbolic.
//   concurrency    — run() is thread-safe: the cache is mutex-guarded,
//                    each in-flight execution leases its own PbWorkspace
//                    from a WorkspacePool, and cached plans are shared
//                    immutably (shared_ptr, so eviction never invalidates
//                    an execution in progress).  N threads can multiply
//                    through one cached plan simultaneously; for serving,
//                    give each caller thread its own OpenMP budget
//                    (omp_set_num_threads per thread).  Executions over
//                    *runtime-registered* semirings serialize internally
//                    (the DynSemiring bridge is process-global); built-in
//                    semirings run fully concurrent.
//
// Every unmasked "auto" execute also records a model::PerfSample
// (predicted vs achieved MFLOPS) in samples().  A refit is the caller's:
// SelectionModel::calibrate over those samples (what `pbs_cli calibrate`
// prints), applied to later ops through SpGemmOp::model — which keys the
// plan cache, so a refitted op plans afresh.
#pragma once

#include <chrono>
#include <memory>
#include <string>
#include <vector>

#include "common/cancel.hpp"
#include "model/selection.hpp"
#include "pb/plan.hpp"
#include "pb/workspace_pool.hpp"
#include "spgemm/op.hpp"
#include "spgemm/spgemm.hpp"

namespace pbs {

struct ExecutorOptions {
  /// Cached plans retained (LRU).  Size it to the number of distinct
  /// (structure, op) pairs the workload alternates between; each entry
  /// holds a PB symbolic layout (O(nbins) offsets), not tuple storage —
  /// the big buffers live in the workspace pool, shared by all entries.
  /// Ignored when cache_capacity_bytes is set.
  std::size_t cache_capacity = 8;

  /// Byte budget for the plan cache (0 = entry-count mode via
  /// cache_capacity).  A serving daemon sees thousands of distinct
  /// structures, not 8: a byte budget sizes the cache by what the entries
  /// actually cost (each entry's symbolic arrays are measured at insert;
  /// ExecutorStats::cache_bytes tracks the occupancy) instead of an
  /// arbitrary count.  Eviction is cost-aware: among the coldest entries
  /// the one with the lowest rebuild-cost density (plan seconds per byte)
  /// goes first, so a cheap-to-replan giant does not squeeze out many
  /// expensive small plans.  The budget is a target, not a hard cap: the
  /// most recent entry is always retained so the current workload cannot
  /// thrash itself out of the cache.
  std::size_t cache_capacity_bytes = 0;

  /// Byte cap on the pooled workspace memory (tuple streams + sort
  /// scratch) across ALL concurrent leases; 0 = unlimited.  A plan whose
  /// PB stream cannot fit degrades to the row-wise `hash` kernel at plan
  /// time; a run whose workspace growth is rejected mid-flight (or whose
  /// allocation genuinely fails) re-executes through `hash`,
  /// keeping the cached PB plan for the next, possibly less contended,
  /// run.  Degradations surface in ExecutorStats and RunInfo.
  std::size_t mem_budget_bytes = 0;

  /// Strict-ingress mode: csr_validate every problem's operands (and the
  /// op mask) on run/prepare entry, rejecting malformed matrices with
  /// ValidationError instead of computing undefined results.  Off by
  /// default — trusted callers skip the O(nnz) sweep.
  bool validate_inputs = false;
};

/// Per-call deadline/cancellation controls (all optional; default = run
/// to completion).  `timeout` wins over `deadline` when both are set; an
/// external `cancel` token is linked alongside the executor's own
/// cancel() epoch, so any of the three can stop the run.
struct RunOptions {
  std::chrono::milliseconds timeout{0};
  std::chrono::steady_clock::time_point deadline{};
  const CancelToken* cancel = nullptr;
};

struct ExecutorStats {
  std::uint64_t executes = 0;     ///< product executions, all paths
  std::uint64_t cache_hits = 0;   ///< fingerprint-verified plan reuses
  std::uint64_t cache_misses = 0; ///< full analyses (first touch included)
  std::uint64_t value_only_hits = 0;  ///< dims+nnz-matched fast-path runs
  std::uint64_t passthrough = 0;  ///< fixed non-pb ops (no fingerprint)
  std::uint64_t evictions = 0;
  std::uint64_t cache_entries = 0;  ///< plans currently cached
  std::uint64_t cache_bytes = 0;    ///< estimated bytes they occupy
  std::uint64_t bytes_evicted = 0;  ///< cumulative bytes reclaimed
  std::uint64_t degraded_plans = 0;  ///< pb plans downgraded at plan time
  std::uint64_t degraded_runs = 0;   ///< runs that fell back mid-flight
  std::uint64_t oom_fallbacks = 0;   ///< degraded_runs caused by bad_alloc
  std::uint64_t cancelled = 0;       ///< runs unwound by cancel/deadline
  /// Plans rebuilt mid-run because the operands no longer fit them
  /// (StaleLayoutError: changed structure behind a value-only call or a
  /// fingerprint collision, or stored zeros under a key-only plan).
  std::uint64_t stale_replans = 0;

  [[nodiscard]] double hit_ratio() const {
    const double looked = static_cast<double>(cache_hits + cache_misses);
    return looked > 0 ? static_cast<double>(cache_hits) / looked : 0.0;
  }
};

/// What one run()/prepare() did — the executor's per-call telemetry
/// (aggregate counters live in ExecutorStats).
struct RunInfo {
  std::string algo;        ///< the concrete algorithm that executed
  bool cache_hit = false;  ///< plan came from the cache (incl. value-only)
  bool value_only = false; ///< matched on dims+nnz, flop pass skipped
  bool passthrough = false;  ///< fixed non-pb op: nothing to cache
  bool used_pb = false;
  nnz_t flop = 0;
  double plan_seconds = 0;  ///< analysis cost when this call (re)planned
  /// Roofline prediction of the entry's choice / what this execute
  /// achieved (0 for prepare and for non-"auto" predictions).
  double predicted_mflops = 0;
  double achieved_mflops = 0;
  model::AlgoChoice choice;  ///< populated for "auto" entries
  pb::PbTelemetry pb_stats;  ///< per-phase telemetry when used_pb
  /// This call ran a downgraded kernel instead of the preferred PB path;
  /// degrade_reason is "budget" (plan-time: the stream cannot fit the
  /// memory budget) or "oom" (run-time: a workspace growth was rejected
  /// or threw, and the run re-executed through the row-wise fallback).
  bool degraded = false;
  std::string degrade_reason;
};

class SpGemmExecutor {
 public:
  explicit SpGemmExecutor(ExecutorOptions opts = {});
  ~SpGemmExecutor();
  SpGemmExecutor(const SpGemmExecutor&) = delete;
  SpGemmExecutor& operator=(const SpGemmExecutor&) = delete;

  /// Multiplies p under op, through the cached plan for (structure, op)
  /// when one exists (building and caching it otherwise).  A fixed
  /// algorithm other than pb has nothing to plan: it runs its kernel
  /// directly, with no fingerprint pass and no cache lookup.  Thread-safe.
  /// Throws std::invalid_argument for unknown algorithms/semirings,
  /// unsupported pairs, or a mask whose shape does not match the product;
  /// throws std::logic_error when op.accumulate is set (use the
  /// accumulating overload).
  mtx::CsrMatrix run(const SpGemmProblem& p, const SpGemmOp& op = {},
                     RunInfo* info = nullptr);

  /// run with per-call deadline/cancellation controls: the run unwinds
  /// with DeadlineError/CancelledError (plan cache and workspace pool
  /// stay consistent; a following run on this executor is unaffected).
  mtx::CsrMatrix run(const SpGemmProblem& p, const SpGemmOp& op,
                     const RunOptions& ropts, RunInfo* info = nullptr);

  /// Accumulating run: c ⊞ (A ⊗ B under op's mask), the union-pattern
  /// combine with the op semiring's add.  When the plan executes PB the
  /// merge is fused into CSR conversion (the plain product is never
  /// materialized); row-wise paths post-pass through semiring_ewise_add.
  /// Both produce bit-identical results, and the cached plan is shared
  /// with non-accumulating runs of the same op.  Rejects ops with an
  /// active post_op (std::invalid_argument — prune/top-k over a merged C
  /// is ambiguous).
  mtx::CsrMatrix run(const SpGemmProblem& p, const SpGemmOp& op,
                     const mtx::CsrMatrix& accumulate_into,
                     RunInfo* info = nullptr);

  /// Value-only fast path: the caller asserts p's operands have the SAME
  /// STRUCTURE as the most recent run of this op and only the numeric
  /// values changed.  The cached plan is matched on dims + nnz alone —
  /// the O(ncols) flop recount and the symbolic phase are both skipped —
  /// and only the numeric stages replay.  Falls back to the full path
  /// (fingerprint + replan) when no dims+nnz-matching entry is cached.
  /// A wrong assertion costs a replan, not undefined results.  Operands
  /// that moved nonzeros at equal dims+nnz miss the cached pb plan's
  /// slices; the run stops before writing past them, and the executor
  /// replans once, reruns and counts ExecutorStats::stale_replans
  /// (RunInfo::value_only then reads false).  A cached row-wise choice
  /// reads the operands afresh anyway.  An op with a post_op
  /// stays valid here even when it drops entries: the cached plan
  /// describes the *operands'* structure, and the post-op shapes only the
  /// output, downstream of everything the plan fixed.
  mtx::CsrMatrix run_values_updated(const SpGemmProblem& p,
                                    const SpGemmOp& op = {},
                                    RunInfo* info = nullptr);

  /// Value-only fast path under deadline/cancellation controls.
  mtx::CsrMatrix run_values_updated(const SpGemmProblem& p,
                                    const SpGemmOp& op,
                                    const RunOptions& ropts,
                                    RunInfo* info = nullptr);

  /// Requests cancellation of every in-flight run (they unwind with
  /// CancelledError at their next poll).  Runs started after this call
  /// are unaffected — the executor swaps in a fresh cancellation epoch.
  void cancel();

  /// Analyzes and caches the plan for (p, op) without executing — warms
  /// the cache, validates the op (same throws as run), and reports the
  /// selection through `info`.
  void prepare(const SpGemmProblem& p, const SpGemmOp& op = {},
               RunInfo* info = nullptr);

  [[nodiscard]] ExecutorStats stats() const;

  /// Lease bookkeeping of the workspace pool (created vs reused).
  [[nodiscard]] pb::WorkspacePool::Stats pool_stats() const;

  /// Aggregated allocator counters of the pooled workspaces (steady state
  /// shows reuses growing, allocations not).  Quiescent callers only
  /// (counters are written lock-free by in-flight runs).
  [[nodiscard]] pb::PbWorkspace::Stats workspace_stats() const;

  /// The recorded predicted-vs-achieved samples (the most recent 512),
  /// oldest first.
  [[nodiscard]] std::vector<model::PerfSample> samples() const;

 private:
  mtx::CsrMatrix run_product(const SpGemmProblem& p, const SpGemmOp& op,
                             RunInfo* info, bool values_only,
                             const RunOptions& ropts,
                             const mtx::CsrMatrix* accumulate = nullptr);

  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace pbs
