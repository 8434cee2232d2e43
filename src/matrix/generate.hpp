// Synthetic matrix generators used throughout the paper's evaluation.
//
//  * Erdős–Rényi (ER): d nonzeros uniformly distributed in each column
//    (paper Sec. II-A).  R-MAT with a=b=c=d=0.25 is equivalent in
//    expectation; we generate ER directly for exact per-column degrees.
//  * R-MAT: recursive quadrant sampling with the Graph500 parameters
//    a=0.57, b=c=0.19, d=0.05 (paper Sec. IV-C calls these "RMAT").
//  * Banded: nonzeros clustered within a diagonal band — the structured
//    surrogate for FEM-style SuiteSparse matrices (see surrogates.hpp).
//
// All generators are deterministic in (seed) and independent of the OpenMP
// thread count: work is split into fixed-size blocks, each with its own
// counter-based RNG stream.
#pragma once

#include <cstdint>

#include "matrix/coo.hpp"

namespace pbs::mtx {

/// Matrix of `2^scale` rows/cols with `edge_factor` nonzeros per column on
/// average — the paper's "scale k, edge factor f" parameterization.
struct RandomScale {
  int scale = 16;
  double edge_factor = 8.0;
};

/// ER matrix: every column holds round-ish `d` nonzeros at uniformly random
/// distinct rows.  Values uniform in (0, 1].
CooMatrix generate_er(index_t nrows, index_t ncols, double d,
                      std::uint64_t seed);

/// Convenience: square ER from scale/edge-factor.
CooMatrix generate_er(const RandomScale& p, std::uint64_t seed);

struct RmatParams {
  int scale = 16;
  double edge_factor = 8.0;
  double a = 0.57, b = 0.19, c = 0.19;  // d = 1 - a - b - c
  bool scramble_ids = false;  ///< Graph500-style vertex permutation
  std::uint64_t seed = 1;
};

/// R-MAT matrix.  Duplicate edges are merged, so nnz <= edge_factor * n —
/// same convention as the Graph500 generator the paper's baselines use.
CooMatrix generate_rmat(const RmatParams& p);

/// Banded matrix: each column j holds ~d nonzeros at distinct random rows
/// within [j - halfwidth, j + halfwidth] (clamped at the edges).
CooMatrix generate_banded(index_t n, double d, index_t halfwidth,
                          std::uint64_t seed);

/// Replaces every value with an integer in [1, 8] derived from the entry's
/// position (deterministic, independent of entry order).  Sums of such
/// values stay exact, so a product over them has the same bits under any
/// accumulation order: any algorithm, any team size.
void make_values_exact(CooMatrix& coo);

/// SplitMix64 — the counter-based PRNG all generators derive streams from.
/// Public so tests can reproduce sub-streams.
struct SplitMix64 {
  std::uint64_t state;

  explicit SplitMix64(std::uint64_t seed) : state(seed) {}

  std::uint64_t next() {
    std::uint64_t z = (state += 0x9E3779B97F4A7C15ull);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
  }

  /// Uniform in [0, bound).
  std::uint64_t next_below(std::uint64_t bound) { return next() % bound; }

  /// Uniform in (0, 1].
  double next_unit() {
    return (static_cast<double>(next() >> 11) + 1.0) * 0x1.0p-53;
  }
};

}  // namespace pbs::mtx
