// HashVecSpGEMM — the vector-register-probing hash variant of [12].
//
// The original probes hash buckets with SIMD compares; here the 8-slot
// bucket-group scan in GroupedAccumulator is written so the compiler's
// auto-vectorizer produces the same wide compare (see hash_table.hpp).
#include "spgemm/hash_impl.hpp"
#include "spgemm/hash_table.hpp"
#include "spgemm/masked.hpp"
#include "spgemm/semiring_ops.hpp"

namespace pbs {

mtx::CsrMatrix hashvec_spgemm(const SpGemmProblem& p,
                              const mtx::CsrMatrix* mask, bool complement,
                              const PostOp& post_op) {
  if (mask != nullptr) detail::check_mask_shape("hashvec_spgemm", p, *mask);
  return detail::hash_spgemm_impl<PlusTimes, detail::GroupedAccumulator>(
      p, mask, complement, post_op);
}

}  // namespace pbs
