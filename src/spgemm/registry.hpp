// Name -> algorithm registry shared by benches, tests, examples and the
// CLI, with unified (algorithm × semiring) dispatch.
//
// Every algorithm is registered with the set of semirings it supports.
// The bandwidth-optimized PB pipeline and the generalized Gustavson
// kernels (heap, hash, spa, reference) support every *registered* semiring
// — the built-in four plus anything added through SemiringRegistry
// (spgemm/op.hpp) at runtime; the remaining baselines are numeric (+, ×)
// only and say so in their lookup error rather than silently falling back.
// One resolver, semiring_algorithm, turns a name, a semiring and the op's
// epilogue into a kernel that returns the finished product.
#pragma once

#include <string>
#include <vector>

#include "spgemm/semiring_ops.hpp"
#include "spgemm/spgemm.hpp"

namespace pbs {

struct AlgoInfo {
  std::string name;
  std::string description;
  /// False for algorithms that are quadratic-ish and only suitable for
  /// validation-scale inputs (reference, outer_heap).
  bool scales_to_large = true;
  /// Names of the built-in semirings this algorithm supports (always
  /// contains "plus_times"; see semiring_algorithm for the generalized
  /// kernels).
  std::vector<std::string> semirings = {PlusTimes::name};
  /// True when the algorithm's kernel is semiring-templated: it then also
  /// accepts every semiring registered at runtime (SemiringRegistry),
  /// executed through the DynSemiring bridge.
  bool generalized = false;

  [[nodiscard]] bool supports_semiring(const std::string& semiring) const;
};

/// All registered algorithms.  "pb" is the paper's contribution; "heap",
/// "hash", "hashvec" are the paper's comparators; the rest complete
/// Table I.
const std::vector<AlgoInfo>& algorithms();

/// Lookup by name; throws std::invalid_argument with the list of valid
/// names on a miss.
const AlgoInfo& algorithm(const std::string& name);

/// Non-throwing lookup; nullptr on a miss (for probing, e.g. "auto").
const AlgoInfo* find_algorithm(const std::string& name) noexcept;

/// Throws std::invalid_argument listing every valid (algorithm, semiring)
/// combination when the algorithm is unknown, the semiring is unknown, or
/// the pair is unsupported; returns the algorithm's entry otherwise.
const AlgoInfo& check_algorithm_semiring(const std::string& algo,
                                         const std::string& semiring);

/// Unified (algorithm × semiring) lookup: returns the kernel computing
/// the op's finished product — A ⊗ B with `algo` over `semiring`
/// (built-in or runtime-registered), restricted to `mask`'s pattern (or,
/// with `complement`, to the positions outside it) and shaped by
/// `post_op`.  Each kernel fuses the part of that epilogue it can: the
/// mask in the row loops of heap, hash, hashvec and spa and in pb's
/// compress stage, the post-op in pb, hash and hashvec.  The returned
/// kernel applies the rest to the product, pattern_filter and then
/// apply_post_op (spgemm/epilogue.hpp), so every algorithm returns the
/// same matrix.  Throws like check_algorithm_semiring — callers never
/// silently fall back to a different algorithm or semiring.  `mask` is
/// captured by pointer and must outlive the returned kernel; its shape
/// is validated per call.  This is the row-wise kernel layer
/// SpGemmExecutor (spgemm/executor.hpp) resolves its non-pb entries
/// through.  The "pb" kernel is one product on a fresh SpGemmExecutor:
/// correct anywhere, but it starts each call on a cold workspace pool,
/// so repeated pb products should hold an executor.
SpGemmFn semiring_algorithm(const std::string& algo,
                            const std::string& semiring,
                            const mtx::CsrMatrix* mask = nullptr,
                            bool complement = false,
                            const PostOp& post_op = {});

/// Human-readable support matrix, one "algo: semiring..." line per
/// algorithm (used by CLI --help and lookup errors).  Runtime-registered
/// semirings show up on every generalized algorithm's line.
std::string algorithm_semiring_matrix();

/// The four algorithms the paper's figures compare.
std::vector<AlgoInfo> paper_comparison_set();

}  // namespace pbs
