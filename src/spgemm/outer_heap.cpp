// Outer-product SpGEMM with incremental sorted-merge accumulation, after
// Buluç & Gilbert's hypersparse outer-product formulation [23] — Table I's
// upper-right cell.
//
// Every iteration i forms the rank-1 product A(:,i)·B(i,:) (already sorted
// by (row, col) because CSC columns are row-sorted and CSR rows are
// col-sorted) and merges it into a running accumulator.  The paper points
// out this needs k merge passes and "is too expensive"; it exists here so
// the comparison can be reproduced, and the benches gate it to small inputs.
//
// Parallelization: the i-range is split into per-thread chunks that each
// accumulate privately, followed by a pairwise merge tree.
#include <omp.h>

#include <cstdint>
#include <utility>
#include <vector>

#include "common/huge_pages.hpp"
#include "common/parallel.hpp"
#include "spgemm/spgemm.hpp"

namespace pbs {

namespace {

struct Acc {
  std::vector<std::uint64_t> keys;  // (row << 32) | col, sorted
  std::vector<value_t> vals;
};

std::uint64_t make_key(index_t r, index_t c) {
  return (static_cast<std::uint64_t>(static_cast<std::uint32_t>(r)) << 32) |
         static_cast<std::uint32_t>(c);
}

/// Sorted-union merge of two accumulators, summing equal keys.
Acc merge(const Acc& x, const Acc& y) {
  Acc out;
  out.keys.reserve(x.keys.size() + y.keys.size());
  out.vals.reserve(x.keys.size() + y.keys.size());
  std::size_t i = 0, j = 0;
  while (i < x.keys.size() || j < y.keys.size()) {
    if (j == y.keys.size() || (i < x.keys.size() && x.keys[i] < y.keys[j])) {
      out.keys.push_back(x.keys[i]);
      out.vals.push_back(x.vals[i]);
      ++i;
    } else if (i == x.keys.size() || y.keys[j] < x.keys[i]) {
      out.keys.push_back(y.keys[j]);
      out.vals.push_back(y.vals[j]);
      ++j;
    } else {
      out.keys.push_back(x.keys[i]);
      out.vals.push_back(x.vals[i] + y.vals[j]);
      ++i;
      ++j;
    }
  }
  return out;
}

}  // namespace

mtx::CsrMatrix outer_heap_spgemm(const SpGemmProblem& p) {
  const mtx::CscMatrix& a = p.a_csc;
  const mtx::CsrMatrix& b = p.b_csr;
  const index_t k = a.ncols;

  const int nthreads = max_threads();
  std::vector<Acc> partial(static_cast<std::size_t>(nthreads));

#pragma omp parallel num_threads(nthreads)
  {
    const int tid = omp_get_thread_num();
    const int nt = omp_get_num_threads();
    const index_t chunk = (k + nt - 1) / nt;
    const index_t lo = std::min<index_t>(k, chunk * tid);
    const index_t hi = std::min<index_t>(k, lo + chunk);

    Acc acc;
    Acc rank1;
    for (index_t i = lo; i < hi; ++i) {
      rank1.keys.clear();
      rank1.vals.clear();
      for (nnz_t ai = a.colptr[i]; ai < a.colptr[static_cast<std::size_t>(i) + 1]; ++ai) {
        const index_t r = a.rowids[ai];
        const value_t av = a.vals[ai];
        for (nnz_t bi = b.rowptr[i]; bi < b.rowptr[static_cast<std::size_t>(i) + 1]; ++bi) {
          rank1.keys.push_back(make_key(r, b.colids[bi]));
          rank1.vals.push_back(av * b.vals[bi]);
        }
      }
      acc = merge(acc, rank1);
    }
    partial[static_cast<std::size_t>(tid)] = std::move(acc);
  }

  // Pairwise merge tree over per-thread partials.
  for (int stride = 1; stride < nthreads; stride *= 2) {
#pragma omp parallel for schedule(dynamic, 1)
    for (int t = 0; t < nthreads; t += 2 * stride) {
      if (t + stride < nthreads) {
        partial[static_cast<std::size_t>(t)] =
            merge(partial[static_cast<std::size_t>(t)],
                  partial[static_cast<std::size_t>(t + stride)]);
        partial[static_cast<std::size_t>(t + stride)] = Acc{};
      }
    }
  }

  const Acc& total = partial[0];
  mtx::CsrMatrix out(a.nrows, b.ncols);
  resize_on_huge_pages(out.colids, total.keys.size());
  resize_on_huge_pages(out.vals, total.keys.size());
  for (std::size_t i = 0; i < total.keys.size(); ++i) {
    const auto r = static_cast<index_t>(total.keys[i] >> 32);
    const auto c = static_cast<index_t>(total.keys[i] & 0xFFFFFFFFu);
    ++out.rowptr[static_cast<std::size_t>(r) + 1];
    out.colids[i] = c;
    out.vals[i] = total.vals[i];
  }
  for (index_t r = 0; r < a.nrows; ++r)
    out.rowptr[static_cast<std::size_t>(r) + 1] += out.rowptr[r];
  return out;
}

}  // namespace pbs
