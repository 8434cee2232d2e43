// The paper's Roofline performance model for SpGEMM (Sec. II-C, Fig. 3).
//
// Arithmetic intensity (flops per byte) for a multiplication with
// compression factor cf and b bytes per stored nonzero:
//
//   Eq. 1 (upper bound, inputs+output read/written once):
//       AI ≤ cf / b
//   Eq. 3 (column SpGEMM lower bound; A re-read flop times):
//       AI ≥ cf / ((2 + cf) · b)
//   Eq. 4 (outer-product ESC lower bound; Cˆ written + read):
//       AI ≥ cf / ((3 + 2·cf) · b)
//
// Attainable performance at bandwidth β is β·AI (Eq. 2).
#pragma once

#include <iosfwd>

namespace pbs::model {

inline constexpr double kDefaultBytesPerNnz = 16.0;  // 4+4 index, 8 value

/// Eq. 1 — the best any SpGEMM can do.
double ai_upper_bound(double cf, double bytes_per_nnz = kDefaultBytesPerNnz);

/// Eq. 3 — practical lower bound for column/row Gustavson algorithms.
double ai_column_lower(double cf, double bytes_per_nnz = kDefaultBytesPerNnz);

/// Eq. 4 — practical lower bound for outer-product ESC (PB-SpGEMM).
double ai_outer_lower(double cf, double bytes_per_nnz = kDefaultBytesPerNnz);

/// Eq. 4 generalized to a tuple stream narrower than the stored-nonzero
/// format: the (3·b)/cf input/output term keeps the COO cost b, but the
/// write-Cˆ-then-read-it term — 2 of the denominator's (3 + 2·cf)·b —
/// charges the bytes the expanded stream actually moves per tuple
/// (pb/tuple.hpp: 16 wide, 12 narrow, 8 key-only).  With
/// tuple_bytes == bytes_per_nnz this reduces exactly to ai_outer_lower.
double ai_outer_lower_tuple(double cf, double bytes_per_nnz,
                            double tuple_bytes);

// Masked variants: a fused output mask shrinks the *output* stream without
// changing the input streams, so the single-cf bounds split their cf into
// cf (flop per input/unmasked nonzero — the 2 input matrices) and cf_out
// (flop per *surviving* output nonzero).  With cf_out == cf both reduce
// exactly to the unmasked bounds above — a dense mask degenerates to
// Eq. 3/4.

/// Eq. 4 with a fused mask: bytes/flop = 2·b/cf (read A, B) + b/cf_out
/// (write the masked C) + 2·t (write + read the full Cˆ tuple stream — the
/// PB pipeline expands every flop and drops masked-out tuples only at
/// compress).
double ai_outer_lower_masked(double cf, double cf_out, double bytes_per_nnz,
                             double tuple_bytes);

/// Eq. 3 with a fused mask: bytes/flop = b (A re-read flop times) + b/cf
/// (read B) + b/cf_out (write the masked C).
double ai_column_lower_masked(double cf, double cf_out, double bytes_per_nnz);

/// Eq. 2 — attainable GFLOPS at AI given STREAM bandwidth β (GB/s).
double attainable_gflops(double beta_gbs, double ai);

/// All three bounds and their attainable performance for one (β, cf) pair.
struct SpGemmBounds {
  double ai_upper, ai_column, ai_outer;        // flops / byte
  double perf_upper, perf_column, perf_outer;  // GFLOPS
};

SpGemmBounds bounds(double beta_gbs, double cf,
                    double bytes_per_nnz = kDefaultBytesPerNnz);

/// Prints the Fig. 3 content: the β·AI roofline over the paper's AI range
/// [1/128, 1/4] plus the three marked operating points for ER matrices
/// (cf = 1).
void print_fig3(std::ostream& os, double beta_gbs);

}  // namespace pbs::model
