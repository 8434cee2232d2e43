// Semiring-generalized SpGEMM kernels.
//
// The semiring operator structs themselves live in semiring_ops.hpp (they
// are shared with the propagation-blocking pipeline in pb/); this header
// declares the semiring-templated *algorithms* of the Gustavson family,
// one signature each.  Each takes the part of the op's epilogue it fuses
// into its row loop — the optional output mask (nullptr = unmasked;
// `complement` selects the positions outside its pattern, see
// spgemm/masked.hpp) and, for hash, the post-op:
//
//   spgemm_semiring<S>          — row-wise dense accumulator (generalized
//                                 SPA); the fast validation fallback
//   heap_spgemm_semiring<S>     — row-wise k-way heap merge
//   hash_spgemm_semiring<S>     — two-phase hash accumulation: the keyed
//                                 insert stays structural, the combine on
//                                 an occupied slot becomes S::add; narrow
//                                 rows accumulate in a dense window
//   reference_spgemm_semiring<S>— serial ordered-map gold standard, the
//                                 direct oracle for non-numeric semirings
//
// The bandwidth-optimized PB pipeline's semiring form is pb_execute<S>
// (pb/plan.hpp), which SpGemmExecutor runs for every pb product; runtime
// (algorithm × semiring) dispatch — including semirings registered at
// runtime (spgemm/op.hpp) — is in spgemm/registry.hpp, whose resolver
// applies the rest of the epilogue to each kernel's result.
//
// All kernels keep entries whose accumulated value equals S::zero()
// (structural presence mirrors the numeric convention for exact
// cancellation), so the output pattern is semiring- and
// algorithm-independent.
#pragma once

#include "common/post_op.hpp"
#include "spgemm/semiring_ops.hpp"
#include "spgemm/spgemm.hpp"

namespace pbs {

/// C = A ⊗ B over semiring S (row-wise Gustavson with a dense
/// accumulator, OpenMP-parallel), restricted to `mask`'s pattern (or its
/// complement) when one is given.  Requires a.ncols == b.nrows and a
/// mask of a.nrows x b.ncols.
template <typename S>
mtx::CsrMatrix spgemm_semiring(const mtx::CsrMatrix& a,
                               const mtx::CsrMatrix& b,
                               const mtx::CsrMatrix* mask = nullptr,
                               bool complement = false);

// Instantiated in semiring.cpp for the four semirings above.
extern template mtx::CsrMatrix spgemm_semiring<PlusTimes>(
    const mtx::CsrMatrix&, const mtx::CsrMatrix&, const mtx::CsrMatrix*, bool);
extern template mtx::CsrMatrix spgemm_semiring<MinPlus>(
    const mtx::CsrMatrix&, const mtx::CsrMatrix&, const mtx::CsrMatrix*, bool);
extern template mtx::CsrMatrix spgemm_semiring<MaxMin>(
    const mtx::CsrMatrix&, const mtx::CsrMatrix&, const mtx::CsrMatrix*, bool);
extern template mtx::CsrMatrix spgemm_semiring<BoolOrAnd>(
    const mtx::CsrMatrix&, const mtx::CsrMatrix&, const mtx::CsrMatrix*, bool);

/// Row-wise Gustavson with a k-way heap merge over semiring S — the
/// generalized form of heap_spgemm (see heap.cpp).  Under a mask, the
/// merge still walks every run but drops masked-out columns as they
/// surface.
template <typename S>
mtx::CsrMatrix heap_spgemm_semiring(const SpGemmProblem& p,
                                    const mtx::CsrMatrix* mask = nullptr,
                                    bool complement = false);

// Instantiated in heap.cpp.
extern template mtx::CsrMatrix heap_spgemm_semiring<PlusTimes>(
    const SpGemmProblem&, const mtx::CsrMatrix*, bool);
extern template mtx::CsrMatrix heap_spgemm_semiring<MinPlus>(
    const SpGemmProblem&, const mtx::CsrMatrix*, bool);
extern template mtx::CsrMatrix heap_spgemm_semiring<MaxMin>(
    const SpGemmProblem&, const mtx::CsrMatrix*, bool);
extern template mtx::CsrMatrix heap_spgemm_semiring<BoolOrAnd>(
    const SpGemmProblem&, const mtx::CsrMatrix*, bool);

/// Row-wise Gustavson with two-phase hash accumulation over semiring S —
/// the generalized form of hash_spgemm (see hash.cpp): symbolic keyed
/// inserts are pure structure, numeric slot hits combine with S::add.  A
/// row whose window of output columns is no wider than its flop and at
/// most 2^16 columns accumulates instead into a dense array over that
/// window, under the same first-product-as-is rule, and reads out sorted
/// (spgemm/hash_impl.hpp); its bits are the hash table's.  The mask
/// applies in both phases, and `post_op` inside the row loop: one that
/// prunes or keeps the top-k runs as one pass with no symbolic phase, so
/// the unpruned product is never built.  Equal byte for byte to the
/// unmasked kernel followed by pattern_filter and apply_post_op
/// (spgemm/epilogue.hpp).
template <typename S>
mtx::CsrMatrix hash_spgemm_semiring(const SpGemmProblem& p,
                                    const mtx::CsrMatrix* mask = nullptr,
                                    bool complement = false,
                                    const PostOp& post_op = {});

// Instantiated in hash.cpp.
extern template mtx::CsrMatrix hash_spgemm_semiring<PlusTimes>(
    const SpGemmProblem&, const mtx::CsrMatrix*, bool, const PostOp&);
extern template mtx::CsrMatrix hash_spgemm_semiring<MinPlus>(
    const SpGemmProblem&, const mtx::CsrMatrix*, bool, const PostOp&);
extern template mtx::CsrMatrix hash_spgemm_semiring<MaxMin>(
    const SpGemmProblem&, const mtx::CsrMatrix*, bool, const PostOp&);
extern template mtx::CsrMatrix hash_spgemm_semiring<BoolOrAnd>(
    const SpGemmProblem&, const mtx::CsrMatrix*, bool, const PostOp&);

/// Serial ordered-map gold standard over semiring S — the direct oracle
/// for validating non-numeric semirings (generalized reference_spgemm;
/// O(flop log d), validation scale only).
template <typename S>
mtx::CsrMatrix reference_spgemm_semiring(const SpGemmProblem& p);

// Instantiated in reference.cpp.
extern template mtx::CsrMatrix reference_spgemm_semiring<PlusTimes>(
    const SpGemmProblem&);
extern template mtx::CsrMatrix reference_spgemm_semiring<MinPlus>(
    const SpGemmProblem&);
extern template mtx::CsrMatrix reference_spgemm_semiring<MaxMin>(
    const SpGemmProblem&);
extern template mtx::CsrMatrix reference_spgemm_semiring<BoolOrAnd>(
    const SpGemmProblem&);

}  // namespace pbs
