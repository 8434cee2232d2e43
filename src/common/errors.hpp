#pragma once

// Typed errors for the serving/robustness layer.  Callers that need to
// distinguish "request was cancelled" from "request hit its deadline"
// from "memory budget exceeded" catch these; everything derives from
// the standard hierarchy so existing catch(std::exception&) handlers
// keep working.

#include <new>
#include <stdexcept>
#include <string>

namespace pbs {

// A run was cancelled cooperatively (SpGemmExecutor::cancel() or a
// caller-provided CancelToken fired).
class CancelledError : public std::runtime_error {
 public:
  explicit CancelledError(const std::string& what) : std::runtime_error(what) {}
};

// A run exceeded its deadline (RunOptions::timeout / deadline).  A
// deadline is one way a run gets cancelled, hence the inheritance.
class DeadlineError : public CancelledError {
 public:
  explicit DeadlineError(const std::string& what) : CancelledError(what) {}
};

// A workspace allocation would exceed the executor's memory budget.
// Derives from std::bad_alloc so the executor's graceful-degradation
// path (catch bad_alloc -> fall back to row-wise kernel) handles real
// OOM and budget rejection uniformly.
class MemoryBudgetError : public std::bad_alloc {
 public:
  explicit MemoryBudgetError(std::string what) : what_(std::move(what)) {}
  const char* what() const noexcept override { return what_.c_str(); }

 private:
  std::string what_;
};

// FaultInjector-produced allocation failure (stands in for bad_alloc).
class FaultInjectedAllocError : public std::bad_alloc {
 public:
  const char* what() const noexcept override {
    return "fault injection: allocation failure";
  }
};

// FaultInjector-produced phase-boundary failure.  Deliberately NOT a
// bad_alloc: the executor must propagate it (exception-safety tests),
// not absorb it into the degradation path.
class FaultInjectedError : public std::runtime_error {
 public:
  explicit FaultInjectedError(const std::string& what)
      : std::runtime_error(what) {}
};

// Malformed input matrix (csr_validate / matrix-market ingress).
class ValidationError : public std::runtime_error {
 public:
  explicit ValidationError(const std::string& what)
      : std::runtime_error(what) {}
};

// A PB plan no longer fits the operands it runs on: a chunk's tuples
// overran or fell short of the slices the plan sized for them, or a
// key-only plan met an operand that stores an explicit zero.  The run
// wrote nothing outside its slices.  Deliberately NOT a bad_alloc: the
// executor answers it with a fresh plan, never with the OOM fallback.
class StaleLayoutError : public std::runtime_error {
 public:
  explicit StaleLayoutError(const std::string& what)
      : std::runtime_error(what) {}
};

}  // namespace pbs
