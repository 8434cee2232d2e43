// SPA SpGEMM — row-wise Gustavson with a dense sparse accumulator
// (Gilbert, Moler, Schreiber [25]; Table I upper-left cell), implemented
// once over any semiring: each thread owns one dense value array plus a
// "stamp" array marking which columns the current row touched, so
// clearing between rows is O(row nnz) instead of O(ncols).  The numeric
// algorithm registered as "spa" is its (+, ×) instantiation.  The
// built-in semiring names are listed here too.
#include "spgemm/semiring.hpp"

#include <omp.h>

#include <cassert>
#include <stdexcept>
#include <vector>

#include "common/parallel.hpp"
#include "spgemm/assemble.hpp"
#include "spgemm/masked.hpp"
#include "spgemm/op.hpp"

namespace pbs {

template <typename S>
mtx::CsrMatrix spgemm_semiring(const mtx::CsrMatrix& a,
                               const mtx::CsrMatrix& b,
                               const mtx::CsrMatrix* mask, bool complement) {
  if (a.ncols != b.nrows) {
    throw std::invalid_argument("spgemm_semiring: inner dimensions differ");
  }
  if (mask != nullptr && (mask->nrows != a.nrows || mask->ncols != b.ncols)) {
    throw std::invalid_argument("spgemm_semiring: mask shape mismatch");
  }

  // SPA-style dense accumulator with stamp-based clearing; the semiring
  // only changes the combine step.  Under a mask, row r first stamps the
  // mask row's columns as allowed and then drops every product whose
  // column the polarity excludes: O(flop) probes, but only
  // O(nnz(mask(r,:))) accumulator slots.  `stamp` still marks the
  // columns already accumulated, so exact cancellation to S::zero()
  // stays structural.
  struct Scratch {
    std::vector<value_t> dense;
    std::vector<index_t> stamp;
    std::vector<index_t> touched;
    detail::MaskStamp allowed;
  };
  std::vector<Scratch> scratch(static_cast<std::size_t>(max_threads()));

  return detail::assemble_rowwise(
      a.nrows, b.ncols, [&](index_t r, detail::BlockBuffer& buf) {
        Scratch& s = scratch[static_cast<std::size_t>(omp_get_thread_num())];
        if (s.dense.empty()) {
          s.dense.assign(static_cast<std::size_t>(b.ncols), S::zero());
          s.stamp.assign(static_cast<std::size_t>(b.ncols), -1);
        }
        // Locals, so the row loop keeps them in registers.
        const mtx::CsrMatrix* const m = mask;
        const bool comp = complement;
        if (m != nullptr) {
          if (!comp && m->row_nnz(r) == 0) return;
          s.allowed.stamp_row(*m, r);
        }
        s.touched.clear();

        for (nnz_t i = a.rowptr[r]; i < a.rowptr[static_cast<std::size_t>(r) + 1]; ++i) {
          const index_t k = a.colids[i];
          const value_t av = a.vals[i];
          for (nnz_t j = b.rowptr[k]; j < b.rowptr[static_cast<std::size_t>(k) + 1]; ++j) {
            const index_t c = b.colids[j];
            if (m != nullptr && s.allowed.skip(r, c, comp)) continue;
            const value_t product = S::mul(av, b.vals[j]);
            if (s.stamp[c] != r) {
              s.stamp[c] = r;
              s.dense[c] = product;
              s.touched.push_back(c);
            } else {
              s.dense[c] = S::add(s.dense[c], product);
            }
          }
        }

        std::sort(s.touched.begin(), s.touched.end());
        for (const index_t c : s.touched) {
          buf.cols.push_back(c);
          buf.vals.push_back(s.dense[c]);
        }
      });
}

template mtx::CsrMatrix spgemm_semiring<PlusTimes>(
    const mtx::CsrMatrix&, const mtx::CsrMatrix&, const mtx::CsrMatrix*, bool);
template mtx::CsrMatrix spgemm_semiring<MinPlus>(
    const mtx::CsrMatrix&, const mtx::CsrMatrix&, const mtx::CsrMatrix*, bool);
template mtx::CsrMatrix spgemm_semiring<MaxMin>(
    const mtx::CsrMatrix&, const mtx::CsrMatrix&, const mtx::CsrMatrix*, bool);
template mtx::CsrMatrix spgemm_semiring<BoolOrAnd>(
    const mtx::CsrMatrix&, const mtx::CsrMatrix&, const mtx::CsrMatrix*, bool);
// The runtime-semiring bridge (spgemm/op.hpp).
template mtx::CsrMatrix spgemm_semiring<DynSemiring>(
    const mtx::CsrMatrix&, const mtx::CsrMatrix&, const mtx::CsrMatrix*, bool);

const std::vector<std::string>& semiring_names() {
  static const std::vector<std::string> names = {
      PlusTimes::name, MinPlus::name, MaxMin::name, BoolOrAnd::name};
  return names;
}

bool is_semiring_name(const std::string& name) {
  for (const std::string& s : semiring_names()) {
    if (s == name) return true;
  }
  return false;
}

}  // namespace pbs
