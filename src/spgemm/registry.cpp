#include "spgemm/registry.hpp"

#include <stdexcept>
#include <type_traits>

#include "matrix/ops.hpp"
#include "spgemm/epilogue.hpp"
#include "spgemm/executor.hpp"
#include "spgemm/masked.hpp"
#include "spgemm/op.hpp"
#include "spgemm/semiring.hpp"

namespace pbs {

namespace {

const std::vector<std::string>& all_semirings() { return semiring_names(); }

/// "pb" as a registry kernel: one product on a fresh SpGemmExecutor, so
/// the PB pipeline runs nowhere but inside an executor.  The executor
/// activates a runtime semiring itself, fuses the mask into compress and
/// the post-op into the per-bin filter stage.  Each call starts on a cold
/// workspace pool; repeated products (timing loops, iterative
/// applications) should hold one executor instead.
SpGemmFn pb_kernel(const std::string& semiring, const mtx::CsrMatrix* mask,
                   bool complement, const PostOp& post_op) {
  return [semiring, mask, complement, post_op](const SpGemmProblem& p) {
    SpGemmOp op;
    op.algo = "pb";
    op.semiring = semiring;
    op.mask = mask;
    op.complement = complement;
    op.post_op = post_op;
    return SpGemmExecutor().run(p, op);
  };
}

/// make<S>() for the named semiring: the compiled instantiation for a
/// built-in, DynSemiring for a runtime registration — whose value copy
/// (the registry never removes entries, but a copy keeps the kernel
/// self-contained) is activated around every call.
template <typename Make>
SpGemmFn semiring_kernel(const std::string& semiring, Make make) {
  if (is_semiring_name(semiring)) return dispatch_semiring(semiring, make);
  const RuntimeSemiring rs = SemiringRegistry::instance().at(semiring);
  const SpGemmFn inner = make.template operator()<DynSemiring>();
  return [rs, inner](const SpGemmProblem& p) {
    detail::ScopedSemiring guard(&rs);
    return inner(p);
  };
}

/// `fn` followed by the epilogue steps it does not fuse: the mask as a
/// pattern_filter, then the post-op.  Either may be absent.
SpGemmFn finish(SpGemmFn fn, const mtx::CsrMatrix* mask, bool complement,
                const PostOp& post_op) {
  if (mask == nullptr && !post_op.active()) return fn;
  return [fn, mask, complement, post_op](const SpGemmProblem& p) {
    if (mask != nullptr) detail::check_mask_shape("semiring_algorithm", p, *mask);
    mtx::CsrMatrix c = fn(p);
    if (mask != nullptr) c = mtx::pattern_filter(c, *mask, complement);
    apply_post_op(c, post_op);
    return c;
  };
}

/// The finished kernel of `algo` over S.  hash and hashvec fuse the whole
/// epilogue, heap and spa the mask; finish() applies the rest.  The
/// numeric-only baselines arrive here only with S = PlusTimes, which
/// check_algorithm_semiring guarantees.
template <typename S>
SpGemmFn kernel(const std::string& algo, const mtx::CsrMatrix* mask,
                bool complement, const PostOp& post_op) {
  if (algo == "hash") {
    return [mask, complement, post_op](const SpGemmProblem& p) {
      return hash_spgemm_semiring<S>(p, mask, complement, post_op);
    };
  }
  if (algo == "heap") {
    return finish(
        [mask, complement](const SpGemmProblem& p) {
          return heap_spgemm_semiring<S>(p, mask, complement);
        },
        nullptr, false, post_op);
  }
  if (algo == "spa") {
    return finish(
        [mask, complement](const SpGemmProblem& p) {
          return spgemm_semiring<S>(p.a_csr, p.b_csr, mask, complement);
        },
        nullptr, false, post_op);
  }
  if (algo == "reference") {
    return finish(reference_spgemm_semiring<S>, mask, complement, post_op);
  }
  if constexpr (std::is_same_v<S, PlusTimes>) {
    if (algo == "hashvec") {
      return [mask, complement, post_op](const SpGemmProblem& p) {
        return hashvec_spgemm(p, mask, complement, post_op);
      };
    }
    if (algo == "esc") {
      return finish(esc_column_spgemm, mask, complement, post_op);
    }
    if (algo == "outer_heap") {
      return finish(outer_heap_spgemm, mask, complement, post_op);
    }
  }
  throw std::logic_error("registry: algorithm '" + algo +
                         "' has no kernel over this semiring");
}

}  // namespace

const AlgoInfo& check_algorithm_semiring(const std::string& algo,
                                         const std::string& semiring) {
  const AlgoInfo& info = algorithm(algo);  // throws on unknown algorithm

  if (!is_registered_semiring(semiring)) {
    std::string valid;
    for (const std::string& s : SemiringRegistry::instance().names())
      valid += s + " ";
    throw std::invalid_argument(
        "unknown semiring '" + semiring + "'; registered: " + valid +
        "\nsupported (algorithm, semiring) combinations:\n" +
        algorithm_semiring_matrix());
  }
  if (!info.supports_semiring(semiring)) {
    throw std::invalid_argument(
        "algorithm '" + algo + "' does not support semiring '" + semiring +
        "' (it is numeric plus_times-only)\n"
        "supported (algorithm, semiring) combinations:\n" +
        algorithm_semiring_matrix());
  }
  return info;
}

bool AlgoInfo::supports_semiring(const std::string& semiring) const {
  for (const std::string& s : semirings) {
    if (s == semiring) return true;
  }
  // Generalized kernels accept any runtime-registered semiring through the
  // DynSemiring bridge.
  return generalized && is_registered_semiring(semiring);
}

const std::vector<AlgoInfo>& algorithms() {
  static const std::vector<AlgoInfo> algos = {
      {"pb",
       "PB-SpGEMM: outer-product ESC with propagation blocking (this paper)",
       true, all_semirings(), true},
      {"heap", "column/row Gustavson with k-way heap merge [22]", true,
       all_semirings(), true},
      {"hash", "column/row Gustavson with hash accumulation [12]", true,
       all_semirings(), true},
      {"hashvec", "hash variant with vectorized bucket-group probing [12]",
       true},
      {"spa", "column/row Gustavson with dense accumulator [25]", true,
       all_semirings(), true},
      {"esc", "row-partitioned expand-sort-compress [15]", true},
      {"outer_heap",
       "outer product with incremental sorted-merge accumulation [23]",
       false},
      {"reference", "serial ordered-map gold standard (validation only)",
       false, all_semirings(), true},
  };
  return algos;
}

const AlgoInfo* find_algorithm(const std::string& name) noexcept {
  for (const AlgoInfo& a : algorithms()) {
    if (a.name == name) return &a;
  }
  return nullptr;
}

const AlgoInfo& algorithm(const std::string& name) {
  if (const AlgoInfo* a = find_algorithm(name)) return *a;
  std::string valid;
  for (const AlgoInfo& a : algorithms()) valid += a.name + " ";
  throw std::invalid_argument("unknown SpGEMM algorithm '" + name +
                              "'; valid: " + valid);
}

std::string algorithm_semiring_matrix() {
  // Generalized algorithms list every registered semiring (so runtime
  // registrations show up); the rest list their static (plus_times) set.
  const std::vector<std::string> registered =
      SemiringRegistry::instance().names();
  std::string out;
  for (const AlgoInfo& a : algorithms()) {
    out += "  " + a.name + ":";
    for (const std::string& s : a.generalized ? registered : a.semirings)
      out += " " + s;
    out += "\n";
  }
  return out;
}

SpGemmFn semiring_algorithm(const std::string& algo,
                            const std::string& semiring,
                            const mtx::CsrMatrix* mask, bool complement,
                            const PostOp& post_op) {
  check_algorithm_semiring(algo, semiring);
  if (algo == "pb") return pb_kernel(semiring, mask, complement, post_op);
  return semiring_kernel(semiring, [&]<typename S>() -> SpGemmFn {
    return kernel<S>(algo, mask, complement, post_op);
  });
}

std::vector<AlgoInfo> paper_comparison_set() {
  return {algorithm("pb"), algorithm("heap"), algorithm("hash"),
          algorithm("hashvec")};
}

}  // namespace pbs
