// Template definition of the plan-execute stage (see plan.hpp): argument
// checks, then pipeline_impl.hpp's expand, barrier and bin loop, which
// run every plan at every thread count.  Included by plan.cpp, which
// explicitly instantiates pb_execute<S> for the built-in semirings —
// include this header directly only to instantiate a custom semiring.
#pragma once

#include <stdexcept>

#include "common/cancel.hpp"
#include "common/errors.hpp"
#include "pb/pipeline_impl.hpp"
#include "pb/plan.hpp"

namespace pbs::pb {

namespace detail {

/// Epilogue preconditions (see PbEpilogue's contract in pb_config.hpp).
inline void validate_epilogue(const PbEpilogue& epi, TupleFormat fmt,
                              index_t nrows, index_t ncols) {
  if (epi.accumulate != nullptr && epi.post_op.active()) {
    throw std::invalid_argument(
        "pb_execute: accumulate and post-op epilogues are mutually "
        "exclusive (prune/top-k over a merged C is ambiguous; run them as "
        "separate multiplies)");
  }
  if (epi.accumulate != nullptr && (epi.accumulate->nrows != nrows ||
                                    epi.accumulate->ncols != ncols)) {
    throw std::invalid_argument(
        "pb_execute: accumulate operand shape does not match the product");
  }
  if (epi.post_op.active() && fmt == TupleFormat::kKeyOnly) {
    throw std::invalid_argument(
        "pb_execute: elementwise post-ops need a valued tuple stream; the "
        "key-only format carries no values (value-free semiring)");
  }
}

}  // namespace detail

template <typename S>
PbResult pb_execute(const mtx::CscMatrix& a, const mtx::CsrMatrix& b,
                    const PbPlan& plan, PbWorkspace& workspace,
                    bool check_fingerprint, const MaskSpec& mask,
                    const CancelToken* cancel, const PbEpilogue& epi) {
  if (check_fingerprint && !plan.matches(a, b)) {
    throw std::invalid_argument(
        "pb_execute: operands do not match the plan's structure fingerprint "
        "(dims/nnz/flop changed); rebuild the plan with pb_plan_build");
  }
  if (mask.active() &&
      (mask.csr->nrows != a.nrows || mask.csr->ncols != b.ncols)) {
    throw std::invalid_argument(
        "pb_execute: mask shape does not match the product");
  }
  detail::validate_epilogue(epi, plan.sym.format, a.nrows, b.ncols);
  throw_if_stopped(cancel);
  // Stored zeros are values, which no fingerprint sees: a key-only plan
  // built while neither operand stored one must not run once one does.
  if (plan.sym.format == TupleFormat::kKeyOnly &&
      (has_stored_zero(a.vals) || has_stored_zero(b.vals))) {
    throw StaleLayoutError(
        "pb_execute: an operand stores an explicit zero, which the key-only "
        "plan cannot carry");
  }

  return pb_execute_pipeline<S>(a, b, plan, workspace, mask, cancel, epi);
}

}  // namespace pbs::pb
