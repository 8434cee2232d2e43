#include "matrix/ops.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <stdexcept>

#include "common/huge_pages.hpp"
#include "matrix/convert.hpp"

namespace pbs::mtx {

namespace {

// Builds a CSR matrix by running `emit(row, push)` for every row, where
// `push(col, val)` appends entries in ascending column order.  Two-pass:
// count then fill, both trivially correct for any per-row emitter.
template <typename EmitFn>
CsrMatrix build_rowwise(index_t nrows, index_t ncols, EmitFn emit) {
  CsrMatrix out(nrows, ncols);
  for (index_t r = 0; r < nrows; ++r) {
    nnz_t count = 0;
    emit(r, [&](index_t, value_t) { ++count; });
    out.rowptr[static_cast<std::size_t>(r) + 1] =
        out.rowptr[r] + count;
  }
  resize_on_huge_pages(out.colids, static_cast<std::size_t>(out.rowptr.back()));
  resize_on_huge_pages(out.vals, static_cast<std::size_t>(out.rowptr.back()));
  for (index_t r = 0; r < nrows; ++r) {
    nnz_t pos = out.rowptr[r];
    emit(r, [&](index_t c, value_t v) {
      out.colids[pos] = c;
      out.vals[pos] = v;
      ++pos;
    });
  }
  return out;
}

}  // namespace

CsrMatrix hadamard(const CsrMatrix& a, const CsrMatrix& b) {
  assert(a.nrows == b.nrows && a.ncols == b.ncols);
  return build_rowwise(a.nrows, a.ncols, [&](index_t r, auto push) {
    nnz_t i = a.rowptr[r], j = b.rowptr[r];
    const nnz_t iend = a.rowptr[static_cast<std::size_t>(r) + 1];
    const nnz_t jend = b.rowptr[static_cast<std::size_t>(r) + 1];
    while (i < iend && j < jend) {
      if (a.colids[i] < b.colids[j]) ++i;
      else if (a.colids[i] > b.colids[j]) ++j;
      else {
        push(a.colids[i], a.vals[i] * b.vals[j]);
        ++i;
        ++j;
      }
    }
  });
}

CsrMatrix add(const CsrMatrix& a, const CsrMatrix& b, value_t alpha,
              value_t beta) {
  assert(a.nrows == b.nrows && a.ncols == b.ncols);
  return build_rowwise(a.nrows, a.ncols, [&](index_t r, auto push) {
    nnz_t i = a.rowptr[r], j = b.rowptr[r];
    const nnz_t iend = a.rowptr[static_cast<std::size_t>(r) + 1];
    const nnz_t jend = b.rowptr[static_cast<std::size_t>(r) + 1];
    while (i < iend || j < jend) {
      if (j == jend || (i < iend && a.colids[i] < b.colids[j])) {
        push(a.colids[i], alpha * a.vals[i]);
        ++i;
      } else if (i == iend || b.colids[j] < a.colids[i]) {
        push(b.colids[j], beta * b.vals[j]);
        ++j;
      } else {
        push(a.colids[i], alpha * a.vals[i] + beta * b.vals[j]);
        ++i;
        ++j;
      }
    }
  });
}

CsrMatrix tril(const CsrMatrix& a, index_t k) {
  return build_rowwise(a.nrows, a.ncols, [&](index_t r, auto push) {
    for (nnz_t i = a.rowptr[r]; i < a.rowptr[static_cast<std::size_t>(r) + 1]; ++i) {
      if (a.colids[i] < r + k) push(a.colids[i], a.vals[i]);
    }
  });
}

CsrMatrix triu(const CsrMatrix& a, index_t k) {
  return build_rowwise(a.nrows, a.ncols, [&](index_t r, auto push) {
    for (nnz_t i = a.rowptr[r]; i < a.rowptr[static_cast<std::size_t>(r) + 1]; ++i) {
      if (a.colids[i] > r + k) push(a.colids[i], a.vals[i]);
    }
  });
}

CsrMatrix prune(const CsrMatrix& a, value_t threshold) {
  return build_rowwise(a.nrows, a.ncols, [&](index_t r, auto push) {
    for (nnz_t i = a.rowptr[r]; i < a.rowptr[static_cast<std::size_t>(r) + 1]; ++i) {
      if (std::abs(a.vals[i]) >= threshold) push(a.colids[i], a.vals[i]);
    }
  });
}

CsrMatrix keep_top_k_per_row(const CsrMatrix& a, index_t k) {
  // Per row, find the magnitude cutoff of the k-th largest entry, then keep
  // entries above it (and among ties, the leftmost ones).
  std::vector<value_t> mags;
  return build_rowwise(a.nrows, a.ncols, [&](index_t r, auto push) {
    const nnz_t lo = a.rowptr[r], hi = a.rowptr[static_cast<std::size_t>(r) + 1];
    const nnz_t len = hi - lo;
    if (len <= k) {
      for (nnz_t i = lo; i < hi; ++i) push(a.colids[i], a.vals[i]);
      return;
    }
    mags.resize(static_cast<std::size_t>(len));
    for (nnz_t i = lo; i < hi; ++i)
      mags[static_cast<std::size_t>(i - lo)] = std::abs(a.vals[i]);
    std::nth_element(mags.begin(), mags.begin() + (k - 1), mags.end(),
                     std::greater<>());
    const value_t cutoff = mags[static_cast<std::size_t>(k - 1)];
    index_t taken = 0;
    // Pass 1 entries strictly above the cutoff, then fill with ties.
    for (nnz_t i = lo; i < hi && taken < k; ++i) {
      if (std::abs(a.vals[i]) > cutoff) {
        push(a.colids[i], a.vals[i]);
        ++taken;
      }
    }
    for (nnz_t i = lo; i < hi && taken < k; ++i) {
      if (std::abs(a.vals[i]) == cutoff) {
        push(a.colids[i], a.vals[i]);
        ++taken;
      }
    }
  });
}

CsrMatrix element_power(const CsrMatrix& a, double p) {
  CsrMatrix out = a;
  for (auto& v : out.vals) v = std::pow(v, p);
  return out;
}

CsrMatrix normalize_columns(const CsrMatrix& a) {
  const std::vector<value_t> sums = col_sums(a);
  CsrMatrix out = a;
  for (std::size_t i = 0; i < out.vals.size(); ++i) {
    const value_t s = sums[out.colids[i]];
    if (s != 0.0) out.vals[i] /= s;
  }
  return out;
}

CsrMatrix drop_diagonal(const CsrMatrix& a) {
  return build_rowwise(a.nrows, a.ncols, [&](index_t r, auto push) {
    for (nnz_t i = a.rowptr[r]; i < a.rowptr[static_cast<std::size_t>(r) + 1]; ++i) {
      if (a.colids[i] != r) push(a.colids[i], a.vals[i]);
    }
  });
}

std::vector<value_t> spmv(const CsrMatrix& a, std::span<const value_t> x) {
  assert(static_cast<index_t>(x.size()) == a.ncols);
  std::vector<value_t> y(static_cast<std::size_t>(a.nrows), 0.0);
#pragma omp parallel for schedule(dynamic, 1024)
  for (index_t r = 0; r < a.nrows; ++r) {
    value_t acc = 0;
    for (nnz_t i = a.rowptr[r]; i < a.rowptr[static_cast<std::size_t>(r) + 1]; ++i)
      acc += a.vals[i] * x[a.colids[i]];
    y[r] = acc;
  }
  return y;
}

std::vector<value_t> row_sums(const CsrMatrix& a) {
  std::vector<value_t> s(static_cast<std::size_t>(a.nrows), 0.0);
#pragma omp parallel for schedule(dynamic, 1024)
  for (index_t r = 0; r < a.nrows; ++r) {
    value_t acc = 0;
    for (nnz_t i = a.rowptr[r]; i < a.rowptr[static_cast<std::size_t>(r) + 1]; ++i)
      acc += a.vals[i];
    s[r] = acc;
  }
  return s;
}

std::vector<value_t> col_sums(const CsrMatrix& a) {
  std::vector<value_t> s(static_cast<std::size_t>(a.ncols), 0.0);
  for (std::size_t i = 0; i < a.vals.size(); ++i) s[a.colids[i]] += a.vals[i];
  return s;
}

value_t value_sum(const CsrMatrix& a) {
  value_t total = 0;
  for (value_t v : a.vals) total += v;
  return total;
}

value_t max_abs_diff(const CsrMatrix& a, const CsrMatrix& b) {
  const CsrMatrix d = add(a, b, 1.0, -1.0);
  value_t m = 0;
  for (value_t v : d.vals) m = std::max(m, std::abs(v));
  return m;
}

CsrMatrix symmetrize(const CsrMatrix& a) { return add(a, transpose(a)); }

CsrMatrix to_pattern(const CsrMatrix& a) {
  CsrMatrix out = a;
  std::fill(out.vals.begin(), out.vals.end(), 1.0);
  return out;
}

CsrMatrix pattern_filter(const CsrMatrix& a, const CsrMatrix& mask,
                         bool complement) {
  if (a.nrows != mask.nrows || a.ncols != mask.ncols) {
    throw std::invalid_argument("pattern_filter: shape mismatch");
  }
  CsrMatrix out(a.nrows, a.ncols);
  out.colids.reserve(static_cast<std::size_t>(a.nnz()));
  out.vals.reserve(static_cast<std::size_t>(a.nnz()));
  for (index_t r = 0; r < a.nrows; ++r) {
    // Merge-scan the row against the sorted mask row; keep entries whose
    // membership matches the requested polarity.
    const auto mcols = mask.row_cols(r);
    std::size_t m = 0;
    for (nnz_t i = a.rowptr[r]; i < a.rowptr[static_cast<std::size_t>(r) + 1]; ++i) {
      const index_t c = a.colids[i];
      while (m < mcols.size() && mcols[m] < c) ++m;
      const bool in_mask = m < mcols.size() && mcols[m] == c;
      if (in_mask != complement) {
        out.colids.push_back(c);
        out.vals.push_back(a.vals[i]);
      }
    }
    out.rowptr[static_cast<std::size_t>(r) + 1] =
        static_cast<nnz_t>(out.colids.size());
  }
  return out;
}

}  // namespace pbs::mtx
