// Masked SpGEMM: C = (A ⊗ B) .* M computed without materializing A ⊗ B.
//
// Triangle counting (paper [2]) and many GraphBLAS-style kernels only need
// the product at positions where a mask matrix M is nonzero.  Fusing the
// mask into the multiplication skips every accumulation outside M's
// pattern — for triangle counting that reduces the output from nnz(L²) to
// nnz(L) entries and removes the separate Hadamard pass.
//
// Every Gustavson family member has a fused masked form, each generalized
// over the semiring (the PB pipeline's fused mask lives in its compress
// stage — pb/plan.hpp's MaskSpec):
//
//   spgemm_masked_semiring<S> — dense-accumulator (SPA) row loop
//   heap_masked_semiring<S>   — k-way heap merge, masked at emission
//   hash_masked_semiring<S>   — two-phase hash, masked in both phases
//                               (declared here, defined in hash.cpp)
//
// A masked multiplication runs through the operation descriptor
// (spgemm/op.hpp): set SpGemmOp::mask/complement and call
// SpGemmExecutor::run — selection then accounts for the mask's density
// and every algorithm (including PB) fuses it.
#pragma once

#include <vector>

#include "matrix/csr.hpp"
#include "spgemm/semiring_ops.hpp"
#include "spgemm/spgemm.hpp"

namespace pbs {

namespace detail {

/// Throws std::invalid_argument unless mask is (a.nrows x b.ncols).
void check_mask_shape(const char* who, const SpGemmProblem& p,
                      const mtx::CsrMatrix& mask);

/// Per-thread mask stamps shared by the fused masked row loops (hash,
/// heap): allowed[c] == r marks column c allowed for the current row r,
/// so clearing between rows is free and a probe is O(1); `skip` applies
/// the polarity (complement flips the test).
struct MaskStamp {
  std::vector<index_t> allowed;

  void stamp_row(const mtx::CsrMatrix& mask, index_t r) {
    if (allowed.empty()) {
      allowed.assign(static_cast<std::size_t>(mask.ncols), -1);
    }
    for (const index_t c : mask.row_cols(r)) allowed[c] = r;
  }

  /// True when column c should be skipped for row r under the polarity.
  [[nodiscard]] bool skip(index_t r, index_t c, bool complement) const {
    return (allowed[c] == r) == complement;
  }
};

}  // namespace detail

/// C(i,j) = ⊕_k A(i,k) ⊗ B(k,j) for (i,j) in the pattern of `mask`; all
/// other positions are structurally zero.  Entries of `mask` act purely as
/// a pattern — values are ignored.  With `complement = true` the mask
/// selects the positions NOT in its pattern (GraphBLAS-style complemented
/// mask).  Dense-accumulator row loop; O(flop) probes but only
/// O(nnz(mask(r,:))) accumulator slots per row.
template <typename S>
mtx::CsrMatrix spgemm_masked_semiring(const mtx::CsrMatrix& a,
                                      const mtx::CsrMatrix& b,
                                      const mtx::CsrMatrix& mask,
                                      bool complement = false);

// Instantiated in masked.cpp (built-in four + the runtime bridge).
extern template mtx::CsrMatrix spgemm_masked_semiring<PlusTimes>(
    const mtx::CsrMatrix&, const mtx::CsrMatrix&, const mtx::CsrMatrix&, bool);
extern template mtx::CsrMatrix spgemm_masked_semiring<MinPlus>(
    const mtx::CsrMatrix&, const mtx::CsrMatrix&, const mtx::CsrMatrix&, bool);
extern template mtx::CsrMatrix spgemm_masked_semiring<MaxMin>(
    const mtx::CsrMatrix&, const mtx::CsrMatrix&, const mtx::CsrMatrix&, bool);
extern template mtx::CsrMatrix spgemm_masked_semiring<BoolOrAnd>(
    const mtx::CsrMatrix&, const mtx::CsrMatrix&, const mtx::CsrMatrix&, bool);

/// Masked k-way heap merge (heap_spgemm_semiring with the mask applied as
/// merged columns surface).  Defined in heap.cpp.
template <typename S>
mtx::CsrMatrix heap_masked_semiring(const SpGemmProblem& p,
                                    const mtx::CsrMatrix& mask,
                                    bool complement = false);

extern template mtx::CsrMatrix heap_masked_semiring<PlusTimes>(
    const SpGemmProblem&, const mtx::CsrMatrix&, bool);
extern template mtx::CsrMatrix heap_masked_semiring<MinPlus>(
    const SpGemmProblem&, const mtx::CsrMatrix&, bool);
extern template mtx::CsrMatrix heap_masked_semiring<MaxMin>(
    const SpGemmProblem&, const mtx::CsrMatrix&, bool);
extern template mtx::CsrMatrix heap_masked_semiring<BoolOrAnd>(
    const SpGemmProblem&, const mtx::CsrMatrix&, bool);

/// Masked two-phase hash accumulation.  Defined in hash.cpp.
template <typename S>
mtx::CsrMatrix hash_masked_semiring(const SpGemmProblem& p,
                                    const mtx::CsrMatrix& mask,
                                    bool complement = false);

extern template mtx::CsrMatrix hash_masked_semiring<PlusTimes>(
    const SpGemmProblem&, const mtx::CsrMatrix&, bool);
extern template mtx::CsrMatrix hash_masked_semiring<MinPlus>(
    const SpGemmProblem&, const mtx::CsrMatrix&, bool);
extern template mtx::CsrMatrix hash_masked_semiring<MaxMin>(
    const SpGemmProblem&, const mtx::CsrMatrix&, bool);
extern template mtx::CsrMatrix hash_masked_semiring<BoolOrAnd>(
    const SpGemmProblem&, const mtx::CsrMatrix&, bool);

}  // namespace pbs
