#include "spgemm/masked.hpp"

#include <omp.h>

#include <algorithm>
#include <stdexcept>
#include <vector>

#include "common/parallel.hpp"
#include "spgemm/assemble.hpp"
#include "spgemm/op.hpp"

namespace pbs {

namespace detail {

void check_mask_shape(const char* who, const SpGemmProblem& p,
                      const mtx::CsrMatrix& mask) {
  if (mask.nrows != p.a_csr.nrows || mask.ncols != p.b_csr.ncols) {
    throw std::invalid_argument(std::string(who) + ": mask shape mismatch");
  }
}

}  // namespace detail

template <typename S>
mtx::CsrMatrix spgemm_masked_semiring(const mtx::CsrMatrix& a,
                                      const mtx::CsrMatrix& b,
                                      const mtx::CsrMatrix& mask,
                                      bool complement) {
  if (a.ncols != b.nrows) {
    throw std::invalid_argument("spgemm_masked_semiring: inner dimensions differ");
  }
  if (mask.nrows != a.nrows || mask.ncols != b.ncols) {
    throw std::invalid_argument("spgemm_masked_semiring: mask shape mismatch");
  }

  // Row r: stamp the mask's columns as allowed, then run the usual row-wise
  // Gustavson accumulation, dropping every product whose column is not
  // stamped.  Work is O(flop) probes but only O(nnz(mask(r,:))) accumulator
  // slots.  A second stamp array distinguishes "allowed" from "allowed and
  // already accumulated" so exact cancellation to S::zero() stays
  // structural.
  struct Scratch {
    std::vector<value_t> dense;
    std::vector<index_t> allowed;  // allowed[c] == r  =>  mask has (r, c)
    std::vector<index_t> seen;     // seen[c] == r     =>  c already in hit
    std::vector<index_t> hit;
  };
  std::vector<Scratch> scratch(static_cast<std::size_t>(max_threads()));

  return detail::assemble_rowwise(
      a.nrows, b.ncols, [&](index_t r, detail::BlockBuffer& buf) {
        Scratch& s = scratch[static_cast<std::size_t>(omp_get_thread_num())];
        if (s.dense.empty()) {
          s.dense.assign(static_cast<std::size_t>(b.ncols), S::zero());
          s.allowed.assign(static_cast<std::size_t>(b.ncols), -1);
          s.seen.assign(static_cast<std::size_t>(b.ncols), -1);
        }
        const auto mask_cols = mask.row_cols(r);
        if (!complement && mask_cols.empty()) return;
        for (const index_t c : mask_cols) s.allowed[c] = r;
        s.hit.clear();

        for (nnz_t i = a.rowptr[r]; i < a.rowptr[static_cast<std::size_t>(r) + 1]; ++i) {
          const index_t k = a.colids[i];
          const value_t av = a.vals[i];
          for (nnz_t j = b.rowptr[k]; j < b.rowptr[static_cast<std::size_t>(k) + 1]; ++j) {
            const index_t c = b.colids[j];
            // Plain mask keeps stamped columns; complemented drops them.
            if ((s.allowed[c] == r) == complement) continue;
            const value_t product = S::mul(av, b.vals[j]);
            if (s.seen[c] != r) {
              s.seen[c] = r;
              s.dense[c] = product;
              s.hit.push_back(c);
            } else {
              s.dense[c] = S::add(s.dense[c], product);
            }
          }
        }

        std::sort(s.hit.begin(), s.hit.end());
        for (const index_t c : s.hit) {
          buf.cols.push_back(c);
          buf.vals.push_back(s.dense[c]);
        }
      });
}

template mtx::CsrMatrix spgemm_masked_semiring<PlusTimes>(
    const mtx::CsrMatrix&, const mtx::CsrMatrix&, const mtx::CsrMatrix&, bool);
template mtx::CsrMatrix spgemm_masked_semiring<MinPlus>(
    const mtx::CsrMatrix&, const mtx::CsrMatrix&, const mtx::CsrMatrix&, bool);
template mtx::CsrMatrix spgemm_masked_semiring<MaxMin>(
    const mtx::CsrMatrix&, const mtx::CsrMatrix&, const mtx::CsrMatrix&, bool);
template mtx::CsrMatrix spgemm_masked_semiring<BoolOrAnd>(
    const mtx::CsrMatrix&, const mtx::CsrMatrix&, const mtx::CsrMatrix&, bool);
// The runtime-semiring bridge (spgemm/op.hpp).
template mtx::CsrMatrix spgemm_masked_semiring<DynSemiring>(
    const mtx::CsrMatrix&, const mtx::CsrMatrix&, const mtx::CsrMatrix&, bool);

}  // namespace pbs
