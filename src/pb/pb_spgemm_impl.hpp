// Template definition of the PB-SpGEMM pipeline driver (see
// pb_spgemm.hpp).  The pipeline is the plan/execute split of plan.hpp run
// back to back: build the symbolic plan, execute it once, and fold the
// analysis cost back into the returned telemetry.  Included by
// pb_spgemm.cpp, which explicitly instantiates pb_spgemm<S> for the
// built-in semirings — include this header (plus plan_impl.hpp) directly
// only to instantiate a custom semiring.
#pragma once

#include "pb/pb_spgemm.hpp"
#include "pb/plan.hpp"

namespace pbs::pb {

template <typename S>
PbResult pb_spgemm(const mtx::CscMatrix& a, const mtx::CsrMatrix& b,
                   const PbConfig& cfg) {
  PbWorkspace workspace;
  return pb_spgemm<S>(a, b, cfg, workspace);
}

template <typename S>
PbResult pb_spgemm(const mtx::CscMatrix& a, const mtx::CsrMatrix& b,
                   const PbConfig& cfg, PbWorkspace& workspace) {
  // The fused path knows its semiring at compile time, so it can vouch for
  // value-freeness itself — plan building sees the flag and may pick the
  // 8 B key-only stream (callers going through pb_plan_build directly set
  // cfg.value_free by hand or via the executor's name-keyed derivation).
  PbConfig cfg2 = cfg;
  if (!cfg2.value_free) cfg2.value_free = semiring_is_value_free<S>();
  const PbPlan plan = pb_plan_build(a, b, cfg2);
  // The plan was built from these exact operands: skip the fingerprint.
  // The caller's token rides cfg (pb_plan_build stores nullptr; the run
  // gets the live one as pb_execute's explicit parameter).
  PbResult result = pb_execute<S>(a, b, plan, workspace,
                                  /*check_fingerprint=*/false, MaskSpec{},
                                  cfg.cancel);
  // A fresh multiply pays the analysis in-line; a reused plan pays it once
  // at build time (pb_execute leaves the symbolic phase at zero).
  result.stats.symbolic = plan.symbolic;
  return result;
}

}  // namespace pbs::pb
