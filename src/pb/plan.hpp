// PB-SpGEMM plan/execute split — analyze once, execute many.
//
// The pipeline's symbolic phase (flop count, bin layout, per-bin regions)
// is semiring-independent and depends only on the *structure* of A and B.
// The workloads that motivate PB-SpGEMM — Markov clustering, multi-source
// BFS, betweenness, AMG Galerkin products — multiply with the same
// structure dozens of times, so this header splits the pipeline
// FFTW-style:
//
//   PbPlan plan = pb_plan_build(a, b, cfg);   // symbolic + layout, once
//   for (...) r = pb_execute<S>(a, b, plan, workspace);
//
// pb_execute runs only expand → sort/compress → convert against the
// captured bin layout and a pooled workspace, so steady-state executions
// perform no analysis and no allocation (assertable via PbWorkspace
// stats).  A StructureFingerprint makes invalidation cheap: executions
// must pass operands whose fingerprint matches the plan's, and
// SpGemmExecutor (spgemm/executor.hpp), the library's entry point, keys
// its plan cache on the same fingerprint, so a changed structure replans
// automatically.
//
// The fingerprint is dims + nnz + flop + a sampled structural hash.  flop
// (an O(k) pointer-array product) is sensitive to how the operands'
// structures interact; the hash mixes a bounded sample of the pointer and
// index arrays themselves, so two different sparsity patterns that happen
// to agree on every aggregate (e.g. two constant-degree random seeds of
// the same size) still fingerprint differently.  The hash reads O(1)
// entries, never values, and positions are salted — it distinguishes
// structures, not value updates, exactly matching the plan-cache
// contract.  Adversarially colliding structures remain possible — callers
// mutating structure in place must rebuild the plan explicitly.
#pragma once

#include <string>

#include "common/cancel.hpp"
#include "pb/pb_spgemm.hpp"
#include "pb/symbolic.hpp"
#include "spgemm/semiring_ops.hpp"

namespace pbs::pb {

/// Cheap structural identity of a multiplication: dimensions, nonzero
/// counts and the flop invariant (see file comment for the contract).
struct StructureFingerprint {
  index_t a_rows = 0, a_cols = 0;
  index_t b_rows = 0, b_cols = 0;
  nnz_t a_nnz = 0, b_nnz = 0;
  nnz_t flop = 0;

  /// Mix of ≤64 strided samples from each of a.colptr / a.rowids /
  /// b.rowptr / b.colids (value and position, distinct per-array salts) —
  /// the disambiguator for structures whose aggregates collide.  Depends
  /// only on sparsity structure: executions that change values alone keep
  /// the hash (the executor's value-only fast path is unaffected).
  std::uint64_t structure_hash = 0;

  /// Throws std::invalid_argument when a.ncols != b.nrows (the flop pass
  /// walks b's rows by a's column index).
  static StructureFingerprint of(const mtx::CscMatrix& a,
                                 const mtx::CsrMatrix& b);

  /// Variant for callers that already know flop(A·B) (e.g. from a
  /// symbolic run) — keeps build-time and execute-time fingerprints
  /// derived from one place.
  static StructureFingerprint of(const mtx::CscMatrix& a,
                                 const mtx::CsrMatrix& b, nnz_t flop);

  bool operator==(const StructureFingerprint&) const = default;
};

/// The reusable analysis product: everything the pipeline derives from the
/// operands' structure before touching values.
struct PbPlan {
  SymbolicResult sym;
  PbConfig cfg;         ///< config the plan was built with
  StructureFingerprint fingerprint;
  PhaseStats symbolic;  ///< cost of building this plan (time + bytes)

  /// True when (a, b) still matches the structure this plan was built for.
  [[nodiscard]] bool matches(const mtx::CscMatrix& a,
                             const mtx::CsrMatrix& b) const {
    return StructureFingerprint::of(a, b) == fingerprint;
  }
};

/// Runs the symbolic phase and captures its products.  Requires
/// a.ncols == b.nrows; throws std::invalid_argument otherwise.
PbPlan pb_plan_build(const mtx::CscMatrix& a, const mtx::CsrMatrix& b,
                     const PbConfig& cfg = {});

/// Executes expand → sort/compress → convert over semiring S against a
/// previously built plan, drawing all scratch from `workspace`.  The
/// operands must match plan.fingerprint: with check_fingerprint (the
/// default) a mismatch throws std::invalid_argument — the symbolic
/// products would misroute tuples.  Callers that have just built the plan
/// from (a, b) or already verified the fingerprint themselves pass false
/// and skip the O(ncols) flop recount.  The returned telemetry's symbolic
/// phase is zero: analysis was paid at plan-build time (plan.symbolic
/// records it).  The plan is never trusted blindly: a chunk whose tuples
/// do not fit its slices, or a key-only plan whose operands store an
/// explicit zero, throws StaleLayoutError (common/errors.hpp) with nothing
/// written outside the tuple stream — the cue to rebuild the plan.
///
/// An active `mask` (SpGemmOp's fused output mask) drops tuples outside
/// (or, complemented, inside) the mask's pattern at the compress stage;
/// the drop count is returned in telemetry.mask_dropped.  The mask's
/// shape must match the product (throws std::invalid_argument otherwise);
/// its pattern may change freely between executions of one plan — only
/// structure of A and B is fingerprinted.
///
/// A non-null `cancel` token is polled at column/bin granularity through
/// every numeric phase; a fired token (or expired deadline) unwinds with
/// CancelledError/DeadlineError, leaving the plan and workspace reusable.
///
/// An active `epi` fuses the descriptor's epilogue into the run
/// (pb_config.hpp): epi.accumulate merges C's tuples during conversion
/// (bit-identical to the semiring_ewise_add post-pass, which never runs);
/// epi.post_op folds scale/prune/top-k into sort/compress.  The two are
/// mutually exclusive; a post-op on the value-free key-only format and an
/// accumulate whose shape mismatches the product throw
/// std::invalid_argument.
template <typename S>
PbResult pb_execute(const mtx::CscMatrix& a, const mtx::CsrMatrix& b,
                    const PbPlan& plan, PbWorkspace& workspace,
                    bool check_fingerprint = true, const MaskSpec& mask = {},
                    const CancelToken* cancel = nullptr,
                    const PbEpilogue& epi = {});

extern template PbResult pb_execute<PlusTimes>(const mtx::CscMatrix&,
                                               const mtx::CsrMatrix&,
                                               const PbPlan&, PbWorkspace&,
                                               bool, const MaskSpec&,
                                               const CancelToken*,
                                               const PbEpilogue&);
extern template PbResult pb_execute<MinPlus>(const mtx::CscMatrix&,
                                             const mtx::CsrMatrix&,
                                             const PbPlan&, PbWorkspace&,
                                             bool, const MaskSpec&,
                                             const CancelToken*,
                                             const PbEpilogue&);
extern template PbResult pb_execute<MaxMin>(const mtx::CscMatrix&,
                                            const mtx::CsrMatrix&,
                                            const PbPlan&, PbWorkspace&,
                                            bool, const MaskSpec&,
                                            const CancelToken*,
                                            const PbEpilogue&);
extern template PbResult pb_execute<BoolOrAnd>(const mtx::CscMatrix&,
                                               const mtx::CsrMatrix&,
                                               const PbPlan&, PbWorkspace&,
                                               bool, const MaskSpec&,
                                               const CancelToken*,
                                               const PbEpilogue&);

/// Runtime dispatch by semiring name — built-in or registered through
/// SemiringRegistry (spgemm/op.hpp); throws std::invalid_argument listing
/// the valid names on a miss.
PbResult pb_execute_named(const std::string& semiring, const mtx::CscMatrix& a,
                          const mtx::CsrMatrix& b, const PbPlan& plan,
                          PbWorkspace& workspace,
                          bool check_fingerprint = true,
                          const MaskSpec& mask = {},
                          const CancelToken* cancel = nullptr,
                          const PbEpilogue& epi = {});

}  // namespace pbs::pb
