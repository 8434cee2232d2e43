#include "spgemm/registry.hpp"

#include <stdexcept>

#include "matrix/ops.hpp"
#include "spgemm/executor.hpp"
#include "spgemm/masked.hpp"
#include "spgemm/op.hpp"
#include "spgemm/semiring.hpp"

namespace pbs {

namespace {

const std::vector<std::string>& all_semirings() { return semiring_names(); }

/// "pb" as a registry kernel: one product on a fresh SpGemmExecutor, so
/// the PB pipeline runs nowhere but inside an executor.  The executor
/// activates a runtime semiring itself and fuses the mask into compress.
/// Each call starts on a cold workspace pool; repeated products (timing
/// loops, iterative applications) should hold one executor instead.
SpGemmFn pb_kernel(const std::string& semiring, const mtx::CsrMatrix* mask,
                   bool complement) {
  return [semiring, mask, complement](const SpGemmProblem& p) {
    SpGemmOp op;
    op.algo = "pb";
    op.semiring = semiring;
    op.mask = mask;
    op.complement = complement;
    return SpGemmExecutor().run(p, op);
  };
}

template <typename S>
mtx::CsrMatrix heap_run(const SpGemmProblem& p) {
  return heap_spgemm_semiring<S>(p);
}

template <typename S>
mtx::CsrMatrix hash_run(const SpGemmProblem& p) {
  return hash_spgemm_semiring<S>(p);
}

template <typename S>
mtx::CsrMatrix spa_run(const SpGemmProblem& p) {
  return spgemm_semiring<S>(p.a_csr, p.b_csr);
}

template <typename S>
mtx::CsrMatrix reference_run(const SpGemmProblem& p) {
  return reference_spgemm_semiring<S>(p);
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

/// The generalized kernel of `algo` over S; algo must be one of the
/// registry entries flagged `generalized`.
template <typename S>
SpGemmFn generalized_kernel(const std::string& algo) {
  if (algo == "heap") return heap_run<S>;
  if (algo == "hash") return hash_run<S>;
  if (algo == "spa") return spa_run<S>;
  if (algo == "reference") return reference_run<S>;
  throw std::logic_error("registry: algorithm '" + algo +
                         "' advertises generalized semirings but has no "
                         "generalized kernel");
}

/// Ditto for the fused masked kernels: heap/hash/spa fuse the mask into
/// their row loops; the remaining baselines fall back to
/// multiply-then-pattern_filter (exact, unfused).
template <typename S>
SpGemmFn masked_kernel(const std::string& algo, const mtx::CsrMatrix* mask,
                       bool complement) {
  if (algo == "heap") {
    return [mask, complement](const SpGemmProblem& p) {
      return heap_masked_semiring<S>(p, *mask, complement);
    };
  }
  if (algo == "hash") {
    return [mask, complement](const SpGemmProblem& p) {
      return hash_masked_semiring<S>(p, *mask, complement);
    };
  }
  if (algo == "spa") {
    return [mask, complement](const SpGemmProblem& p) {
      detail::check_mask_shape("spgemm_masked_semiring", p, *mask);
      return spgemm_masked_semiring<S>(p.a_csr, p.b_csr, *mask, complement);
    };
  }
  // Unfused fallback: exact result, paid as a full multiply plus an
  // O(nnz) pattern filter.  Generalized algorithms without a fused masked
  // form (reference) resolve their kernel directly — S may be the runtime
  // bridge, whose sentinel name must not be re-looked-up; the numeric-only
  // baselines only ever reach here with a built-in S.
  const SpGemmFn plain = algorithm(algo).generalized
                             ? generalized_kernel<S>(algo)
                             : semiring_algorithm(algo, S::name);
  return [plain, mask, complement](const SpGemmProblem& p) {
    detail::check_mask_shape("masked_semiring_algorithm", p, *mask);
    return mtx::pattern_filter(plain(p), *mask, complement);
  };
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
       pb_kernel(PlusTimes::name, nullptr, false), true, all_semirings(),
       true},
      {"heap", "column/row Gustavson with k-way heap merge [22]",
       heap_spgemm, true, all_semirings(), true},
      {"hash", "column/row Gustavson with hash accumulation [12]",
       hash_spgemm, true, all_semirings(), true},
      {"hashvec", "hash variant with vectorized bucket-group probing [12]",
       hashvec_spgemm, true},
      {"spa", "column/row Gustavson with dense accumulator [25]",
       spa_spgemm, true, all_semirings(), true},
      {"esc", "row-partitioned expand-sort-compress [15]",
       esc_column_spgemm, true},
      {"outer_heap",
       "outer product with incremental sorted-merge accumulation [23]",
       outer_heap_spgemm, false},
      {"reference", "serial ordered-map gold standard (validation only)",
       reference_spgemm, false, all_semirings(), true},
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
                            const std::string& semiring) {
  const AlgoInfo& info = check_algorithm_semiring(algo, semiring);

  if (semiring == PlusTimes::name) return info.fn;
  if (algo == "pb") return pb_kernel(semiring, nullptr, false);

  // The generalized kernels; the check above guarantees the pair is
  // supported, so `semiring` here is a non-plus_times name of a
  // generalized algorithm.
  return semiring_kernel(semiring, [&]<typename S>() -> SpGemmFn {
    return generalized_kernel<S>(algo);
  });
}

SpGemmFn masked_semiring_algorithm(const std::string& algo,
                                   const std::string& semiring,
                                   const mtx::CsrMatrix* mask,
                                   bool complement) {
  if (mask == nullptr) return semiring_algorithm(algo, semiring);
  check_algorithm_semiring(algo, semiring);
  if (algo == "pb") return pb_kernel(semiring, mask, complement);

  return semiring_kernel(semiring, [&]<typename S>() -> SpGemmFn {
    return masked_kernel<S>(algo, mask, complement);
  });
}

SpGemmFn post_op_semiring_algorithm(const std::string& algo,
                                    const std::string& semiring,
                                    const mtx::CsrMatrix* mask,
                                    bool complement, const PostOp& post_op,
                                    bool* fused) {
  // Masked hashvec is pattern_filter over plain hashvec: the mask lands
  // after the kernel, so the post-op must wait for the post-pass.
  const bool fuses = post_op.active() &&
                     (algo == "hash" || (algo == "hashvec" && mask == nullptr));
  *fused = fuses;
  if (!fuses) return masked_semiring_algorithm(algo, semiring, mask, complement);
  check_algorithm_semiring(algo, semiring);
  if (algo == "hashvec") {
    return [post_op](const SpGemmProblem& p) {
      return hashvec_post_op_spgemm(p, post_op);
    };
  }
  return semiring_kernel(semiring, [&]<typename S>() -> SpGemmFn {
    return [mask, complement, post_op](const SpGemmProblem& p) {
      return hash_post_op_semiring<S>(p, mask, complement, post_op);
    };
  });
}

std::vector<AlgoInfo> paper_comparison_set() {
  return {algorithm("pb"), algorithm("heap"), algorithm("hash"),
          algorithm("hashvec")};
}

}  // namespace pbs
