// The typed SpGEMM operation descriptor and the runtime semiring registry.
//
// The paper frames PB-SpGEMM as one kernel in a family of bandwidth-bound
// graph/linear-algebra operations; GraphBLAS-style systems (Buluç &
// Gilbert's Combinatorial BLAS, Azad et al.'s masked/fused kernels) show
// the API shape that family wants: one descriptor that composes
//
//   semiring      — which (add, mul, zero) the multiplication runs over,
//                   by name: a built-in ("plus_times", "min_plus",
//                   "max_min", "bool_or_and") or any semiring registered
//                   at runtime through SemiringRegistry
//   mask          — restrict the output to a pattern M (or, with
//                   `complement`, to the positions NOT in M) *fused into
//                   the kernels*: the Gustavson row loops skip
//                   accumulations outside the mask and the PB pipeline
//                   drops masked-out tuples at its compress stage, before
//                   CSR conversion
//   accumulate    — GraphBLAS-style C ⊞= A ⊗ B: run(problem, op, c)
//                   combines the product into an existing matrix with the
//                   semiring's add over the union pattern
//   algo          — "auto" (roofline-guided, mask-density-aware) or a
//                   concrete registry algorithm
//
// so every variant — plain, masked, accumulating, custom-semiring — flows
// through the same executor (spgemm/executor.hpp):
//
//   SpGemmOp op;                       // algo = "auto" by default
//   op.semiring = "min_plus";
//   op.mask = &m;                      // optional; op.complement flips it
//   SpGemmExecutor exec;
//   auto c = exec.run(problem, op);
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "matrix/csr.hpp"
#include "model/selection.hpp"
#include "pb/pb_config.hpp"
#include "spgemm/semiring_ops.hpp"

namespace pbs {

/// A semiring as a runtime value: type-erased add/mul closures plus the
/// additive identity.  The four compiled-in semirings are pre-registered
/// with `builtin = true`, which lets dispatch recover the fully templated
/// kernels (the closures still work, so generic code never branches);
/// user-registered semirings execute through the same kernels via the
/// DynSemiring bridge below.
struct RuntimeSemiring {
  std::string name;
  value_t zero = 0.0;
  std::function<value_t(value_t, value_t)> add;  ///< associative, commutative
  std::function<value_t(value_t, value_t)> mul;  ///< distributes over add
  /// Set by the registry for the built-in four; dispatch uses it as a fast
  /// path to the compiled kernels.  User registrations leave it false.
  bool builtin = false;
  /// Declares the semiring value-free (idempotent-structural): every
  /// output value is the present-value 1.0, determined by structure alone
  /// — add and mul of nonzeros must yield exactly 1.0.  Legalizes the 8 B
  /// key-only tuple stream (pb/tuple.hpp).  Registrants opt in; the
  /// registry sets it for bool_or_and.
  bool value_free = false;
};

/// Process-wide name -> semiring table.  Pre-seeded with the built-in
/// four; `register_semiring` adds user semirings, after which every
/// name-keyed entry point in the library (SpGemmOp, semiring_algorithm,
/// pbs_cli --semiring) accepts the new name.  Registration is guarded by a
/// mutex; registered semirings are never removed, so the pointers and
/// references handed out stay valid for the process lifetime.
class SemiringRegistry {
 public:
  static SemiringRegistry& instance();

  /// Registers `s`.  Throws std::invalid_argument when the name is empty,
  /// already registered, or either closure is missing.
  void register_semiring(RuntimeSemiring s);

  /// nullptr when `name` is not registered.
  const RuntimeSemiring* find(const std::string& name) const noexcept;

  /// Throws std::invalid_argument listing every registered name on a miss.
  const RuntimeSemiring& at(const std::string& name) const;

  [[nodiscard]] bool contains(const std::string& name) const noexcept {
    return find(name) != nullptr;
  }

  /// All registered names, built-ins first, then user semirings in
  /// registration order.
  [[nodiscard]] std::vector<std::string> names() const;

 private:
  SemiringRegistry();
  struct Impl;
  Impl* impl_;
};

/// True iff `name` is a built-in or runtime-registered semiring.
bool is_registered_semiring(const std::string& name);

/// True iff `name` is a registered semiring flagged value-free
/// (RuntimeSemiring::value_free) — bool_or_and, or a user semiring that
/// opted in at registration.  False for unknown names.
bool semiring_value_free(const std::string& name);

namespace detail {

/// The semiring DynSemiring forwards to.  A plain global (not
/// thread_local: OpenMP worker threads inside a kernel must see the value
/// the spawning thread set).  Executions over *different* runtime
/// semirings must not overlap — the same single-pipeline contract
/// PbWorkspace already imposes.
extern const RuntimeSemiring* g_active_semiring;

/// RAII activation of a runtime semiring around one kernel invocation.
class ScopedSemiring {
 public:
  explicit ScopedSemiring(const RuntimeSemiring* s) : prev_(g_active_semiring) {
    g_active_semiring = s;
  }
  ~ScopedSemiring() { g_active_semiring = prev_; }
  ScopedSemiring(const ScopedSemiring&) = delete;
  ScopedSemiring& operator=(const ScopedSemiring&) = delete;

 private:
  const RuntimeSemiring* prev_;
};

}  // namespace detail

/// The bridge that runs *runtime-registered* semirings through the
/// library's semiring-templated kernels: one extra instantiation whose
/// scalar ops indirect through the active RuntimeSemiring's closures.
/// Never use directly — dispatch_semiring_any activates the right semiring
/// around the call.
struct DynSemiring {
  static constexpr const char* name = "<runtime>";
  static value_t zero() { return detail::g_active_semiring->zero; }
  static value_t add(value_t a, value_t b) {
    return detail::g_active_semiring->add(a, b);
  }
  static value_t mul(value_t a, value_t b) {
    return detail::g_active_semiring->mul(a, b);
  }
  /// Runtime answer for semiring_is_value_free<DynSemiring>(): whatever
  /// the active registration declared.
  static bool value_free() {
    return detail::g_active_semiring != nullptr &&
           detail::g_active_semiring->value_free;
  }
};

/// dispatch_semiring extended to the runtime registry: built-in names get
/// the compiled instantiation (identical codegen to before), registered
/// user semirings run fn with DynSemiring under a scoped activation.
/// Throws std::invalid_argument listing every registered name on a miss.
/// The whole kernel must execute inside `fn` — do not capture and call the
/// returned value later without re-dispatching.
template <typename Fn>
decltype(auto) dispatch_semiring_any(const std::string& name, Fn&& fn) {
  if (is_semiring_name(name)) {
    return dispatch_semiring(name, std::forward<Fn>(fn));
  }
  const RuntimeSemiring& rs = SemiringRegistry::instance().at(name);
  detail::ScopedSemiring guard(&rs);
  return fn.template operator()<DynSemiring>();
}

/// The operation descriptor: everything that defines one SpGEMM variant.
/// `SpGemmExecutor::run(problem, op)` (spgemm/executor.hpp) runs it.
struct SpGemmOp {
  /// "auto" (roofline-guided selection, mask-density-aware when a mask is
  /// set) or any registry algorithm name; unknown names and unsupported
  /// (algo, semiring) pairs throw at plan time, never at execute time.
  std::string algo = "auto";

  /// Built-in or runtime-registered semiring name.
  std::string semiring = PlusTimes::name;

  /// Output mask: C is restricted to mask's pattern (values ignored).
  /// Non-owning — must outlive the plan.  Shape must match the product
  /// (checked at plan time).  nullptr = unmasked.
  const mtx::CsrMatrix* mask = nullptr;

  /// With a mask set: keep the positions NOT in the mask's pattern
  /// (GraphBLAS complemented mask).
  bool complement = false;

  /// Declares the op accumulating: run(problem, op, c) combines the
  /// product into c with the semiring's add; run(problem, op) then throws
  /// std::logic_error (the descriptor promised an accumulation target).
  bool accumulate = false;

  /// Elementwise post-op (scale / prune / top-k, common/post_op.hpp)
  /// applied to the product before it is returned.  pb fuses it into its
  /// per-bin filter and hash and hashvec into their row loop, so a
  /// pruning op never materializes the unpruned C there; the other
  /// algorithms' registry kernels (spgemm/registry.hpp) run apply_post_op
  /// as one parallel pass over the full product.  Applies after the mask;
  /// rejected at plan time for value-free semirings (there are no values
  /// to scale or compare) and in combination with accumulate (prune/top-k
  /// over a merged C is ambiguous).
  PostOp post_op;

  /// Configuration for the PB pipeline when it is (or may be) chosen.
  pb::PbConfig pb;

  /// Selection tunables (β, derating efficiencies, small-flop cutoff).
  model::SelectionModel model;
};

/// C = A ⊞ B over the named semiring's add: union of patterns, positions
/// present in both operands combined with add, positions present in one
/// copied through — the accumulate step of SpGemmOp.  Requires matching
/// shapes.
mtx::CsrMatrix semiring_ewise_add(const std::string& semiring,
                                  const mtx::CsrMatrix& a,
                                  const mtx::CsrMatrix& b);

}  // namespace pbs
