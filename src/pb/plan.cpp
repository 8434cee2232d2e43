#include "pb/plan_impl.hpp"

#include "spgemm/op.hpp"

namespace pbs::pb {

namespace {

// splitmix64's finalizer: cheap, well-distributed, and constexpr-friendly.
constexpr std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

// Folds ≤64 strided samples of `arr` (entry value XOR its position, under
// a per-array salt) plus the exact last entry into `h`.  O(1) reads per
// array keeps fingerprinting far cheaper than the flop pass it rides on.
template <typename T>
std::uint64_t hash_samples(std::uint64_t h, const std::vector<T>& arr,
                           std::uint64_t salt) {
  const std::size_t n = arr.size();
  h = mix64(h ^ salt ^ static_cast<std::uint64_t>(n));
  if (n == 0) return h;
  const std::size_t stride = n > 64 ? n / 64 : 1;
  for (std::size_t i = 0; i < n; i += stride) {
    h = mix64(h ^ salt ^ (static_cast<std::uint64_t>(arr[i]) * 0x100000001b3ull + i));
  }
  return mix64(h ^ salt ^ static_cast<std::uint64_t>(arr[n - 1]));
}

std::uint64_t structure_hash_of(const mtx::CscMatrix& a,
                                const mtx::CsrMatrix& b) {
  std::uint64_t h = 0x243f6a8885a308d3ull;  // pi, for want of a zero seed
  h = hash_samples(h, a.colptr, 0x8a91a6d40bf42040ull);
  h = hash_samples(h, a.rowids, 0xc4ceb9fe1a85ec53ull);
  h = hash_samples(h, b.rowptr, 0xff51afd7ed558ccdull);
  h = hash_samples(h, b.colids, 0x2545f4914f6cdd1dull);
  return h;
}

}  // namespace

StructureFingerprint StructureFingerprint::of(const mtx::CscMatrix& a,
                                              const mtx::CsrMatrix& b) {
  return of(a, b, pb_count_flop(a, b));  // throws on dimension mismatch
}

StructureFingerprint StructureFingerprint::of(const mtx::CscMatrix& a,
                                              const mtx::CsrMatrix& b,
                                              nnz_t flop) {
  StructureFingerprint fp;
  fp.a_rows = a.nrows;
  fp.a_cols = a.ncols;
  fp.b_rows = b.nrows;
  fp.b_cols = b.ncols;
  fp.a_nnz = a.nnz();
  fp.b_nnz = b.nnz();
  fp.flop = flop;
  fp.structure_hash = structure_hash_of(a, b);
  return fp;
}

PbPlan pb_plan_build(const mtx::CscMatrix& a, const mtx::CsrMatrix& b,
                     const PbConfig& cfg) {
  FaultInjector::at(FaultPoint::kPlanBuild);
  PbPlan plan;
  Timer timer;
  plan.sym = pb_symbolic(a, b, cfg);  // throws on dimension mismatch
  plan.cfg = cfg;
  plan.fingerprint = StructureFingerprint::of(a, b, plan.sym.flop);
  plan.symbolic.seconds = timer.elapsed_s();
  plan.symbolic.bytes = plan.sym.modeled_bytes;
  return plan;
}

template PbResult pb_execute<PlusTimes>(const mtx::CscMatrix&,
                                        const mtx::CsrMatrix&, const PbPlan&,
                                        PbWorkspace&, bool, const MaskSpec&,
                                        const CancelToken*, const PbEpilogue&);
template PbResult pb_execute<MinPlus>(const mtx::CscMatrix&,
                                      const mtx::CsrMatrix&, const PbPlan&,
                                      PbWorkspace&, bool, const MaskSpec&,
                                      const CancelToken*, const PbEpilogue&);
template PbResult pb_execute<MaxMin>(const mtx::CscMatrix&,
                                     const mtx::CsrMatrix&, const PbPlan&,
                                     PbWorkspace&, bool, const MaskSpec&,
                                     const CancelToken*, const PbEpilogue&);
template PbResult pb_execute<BoolOrAnd>(const mtx::CscMatrix&,
                                        const mtx::CsrMatrix&, const PbPlan&,
                                        PbWorkspace&, bool, const MaskSpec&,
                                        const CancelToken*, const PbEpilogue&);
// The runtime-semiring bridge: one more instantiation whose scalar ops
// indirect through the active RuntimeSemiring (spgemm/op.hpp).
template PbResult pb_execute<DynSemiring>(const mtx::CscMatrix&,
                                          const mtx::CsrMatrix&,
                                          const PbPlan&, PbWorkspace&, bool,
                                          const MaskSpec&, const CancelToken*,
                                          const PbEpilogue&);

PbResult pb_execute_named(const std::string& semiring, const mtx::CscMatrix& a,
                          const mtx::CsrMatrix& b, const PbPlan& plan,
                          PbWorkspace& workspace, bool check_fingerprint,
                          const MaskSpec& mask, const CancelToken* cancel,
                          const PbEpilogue& epi) {
  return dispatch_semiring_any(semiring, [&]<typename S>() {
    return pb_execute<S>(a, b, plan, workspace, check_fingerprint, mask,
                         cancel, epi);
  });
}

}  // namespace pbs::pb
