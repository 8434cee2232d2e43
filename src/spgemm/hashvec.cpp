// HashVecSpGEMM — the vector-register-probing hash variant of [12].
//
// The original probes hash buckets with SIMD compares; here the 8-slot
// bucket-group scan in GroupedAccumulator is written so the compiler's
// auto-vectorizer produces the same wide compare (see hash_table.hpp).
#include "spgemm/hash_impl.hpp"
#include "spgemm/hash_table.hpp"
#include "spgemm/semiring_ops.hpp"

namespace pbs {

mtx::CsrMatrix hashvec_spgemm(const SpGemmProblem& p) {
  return detail::hash_spgemm_impl<PlusTimes, detail::GroupedAccumulator>(p);
}

mtx::CsrMatrix hashvec_post_op_spgemm(const SpGemmProblem& p,
                                      const PostOp& post_op) {
  return detail::hash_spgemm_impl<PlusTimes, detail::GroupedAccumulator>(
      p, nullptr, false, post_op);
}

}  // namespace pbs
