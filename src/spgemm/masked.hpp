// Masked SpGEMM: C = (A ⊗ B) .* M computed without materializing A ⊗ B.
//
// Triangle counting (paper [2]) and many GraphBLAS-style kernels only need
// the product at positions where a mask matrix M is nonzero.  Fusing the
// mask into the multiplication skips every accumulation outside M's
// pattern — for triangle counting that reduces the output from nnz(L²) to
// nnz(L) entries and removes the separate Hadamard pass.
//
// Every Gustavson kernel takes the mask as optional arguments of its one
// signature (mask = nullptr is unmasked; `complement` selects the
// positions NOT in the pattern): spgemm_semiring<S> (SPA),
// heap_spgemm_semiring<S>, hash_spgemm_semiring<S> and hashvec_spgemm
// skip masked-out columns in their row loops, and the PB pipeline fuses
// the mask in its compress stage (pb/plan.hpp's MaskSpec).  Entries of
// the mask act purely as a pattern — values are ignored.
//
// A masked multiplication runs through the operation descriptor
// (spgemm/op.hpp): set SpGemmOp::mask/complement and call
// SpGemmExecutor::run — selection then accounts for the mask's density,
// and the registry (spgemm/registry.hpp) filters the product of every
// kernel that does not fuse it.  This header holds what the fused row
// loops share.
#pragma once

#include <stdexcept>
#include <string>
#include <vector>

#include "matrix/csr.hpp"
#include "spgemm/spgemm.hpp"

namespace pbs::detail {

/// Throws std::invalid_argument unless mask is (a.nrows x b.ncols).
inline void check_mask_shape(const char* who, const SpGemmProblem& p,
                             const mtx::CsrMatrix& mask) {
  if (mask.nrows != p.a_csr.nrows || mask.ncols != p.b_csr.ncols) {
    throw std::invalid_argument(std::string(who) + ": mask shape mismatch");
  }
}

/// Per-thread mask stamps shared by the fused masked row loops (hash,
/// heap, spa): allowed[c] == r marks column c allowed for the current row r,
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

}  // namespace pbs::detail
