// HashSpGEMM — row-wise Gustavson with linear-probing hash accumulation
// (paper Sec. IV-A, after Nagasaka et al. [12], [27]).
//
// Generalized over any semiring via the keyed insert-or-combine step in
// hash_table.hpp, which narrow rows apply in a dense window instead
// (hash_spgemm_semiring<S>, hash_impl.hpp); hash_spgemm is the numeric
// (+, ×) instantiation.  The op's mask and post-op, when given, are fused
// into the same row loop (see hash_impl.hpp).
#include "spgemm/hash_impl.hpp"
#include "spgemm/hash_table.hpp"
#include "spgemm/masked.hpp"
#include "spgemm/op.hpp"
#include "spgemm/semiring.hpp"

namespace pbs {

template <typename S>
mtx::CsrMatrix hash_spgemm_semiring(const SpGemmProblem& p,
                                    const mtx::CsrMatrix* mask,
                                    bool complement, const PostOp& post_op) {
  if (mask != nullptr) detail::check_mask_shape("hash_spgemm_semiring", p, *mask);
  return detail::hash_spgemm_impl<S, detail::HashAccumulator>(
      p, mask, complement, post_op);
}

template mtx::CsrMatrix hash_spgemm_semiring<PlusTimes>(
    const SpGemmProblem&, const mtx::CsrMatrix*, bool, const PostOp&);
template mtx::CsrMatrix hash_spgemm_semiring<MinPlus>(
    const SpGemmProblem&, const mtx::CsrMatrix*, bool, const PostOp&);
template mtx::CsrMatrix hash_spgemm_semiring<MaxMin>(
    const SpGemmProblem&, const mtx::CsrMatrix*, bool, const PostOp&);
template mtx::CsrMatrix hash_spgemm_semiring<BoolOrAnd>(
    const SpGemmProblem&, const mtx::CsrMatrix*, bool, const PostOp&);
// The runtime-semiring bridge (spgemm/op.hpp).
template mtx::CsrMatrix hash_spgemm_semiring<DynSemiring>(
    const SpGemmProblem&, const mtx::CsrMatrix*, bool, const PostOp&);

mtx::CsrMatrix hash_spgemm(const SpGemmProblem& p) {
  return hash_spgemm_semiring<PlusTimes>(p);
}

}  // namespace pbs
