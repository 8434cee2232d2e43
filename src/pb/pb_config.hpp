// PB-SpGEMM configuration and telemetry.
//
// The two tunables the paper studies in Fig. 6 — the number of global bins
// and the width of the thread-private local bins.  Every bin is a
// power-of-two range of output rows (Fig. 4's depiction; pb/binning.hpp).
//
// Telemetry records per-phase wall time alongside the *modeled* bytes of
// Table III, so "sustained bandwidth" is computed with the same accounting
// the paper uses for Figs. 6, 7b and 9b.
#pragma once

#include "common/post_op.hpp"
#include "common/types.hpp"
#include "matrix/csr.hpp"
#include "pb/tuple.hpp"

namespace pbs::pb {

/// The schedule a PB run executed under, as telemetry reports it.  There
/// is one: expand, one barrier, then a dynamic loop over the bins
/// (pipeline_impl.hpp).  Kept only because the end-to-end benchmark's
/// harness reads PbTelemetry::schedule; ROADMAP item 2(c) removes it.
enum class PbSchedule {
  kPipeline,
};

/// How the symbolic phase picks the tuple stream format (pb/tuple.hpp).
/// Every request except kWide is a preference: when the requested format
/// is not legal for the plan (narrow bin-geometry fit, key-only
/// value-freeness) the symbolic phase falls back rather than fail.  The
/// CLI layers a strict legality check on top for explicit user requests.
enum class FormatPolicy {
  kAuto,     ///< key-only for value-free semirings, else narrow when it fits
  kWide,     ///< force the 16 B wide format (ablation / bitwise comparison)
  kNarrow,   ///< request narrow; falls back to wide when it cannot fit
  kKeyOnly,  ///< request 8 B key-only; needs a value-free semiring
};

const char* to_string(FormatPolicy p);

struct PbConfig {
  /// Number of global bins; 0 selects the paper's rule
  /// nbins ≈ flop·16B / (L2/2), clamped to [1, 2^16] (Algorithm 3, line 6).
  int nbins = 0;

  /// Local (thread-private) bin width in bytes; the paper's default is 512
  /// (Algorithm 2, line 3).  Expand rounds the capacity down to whole lanes
  /// of the stream format (lane_tuples, pb/tuple.hpp: one cache line of
  /// keys), and up to one lane at least, so every full flush is whole
  /// lines — at 512, 32 tuples wide or narrow and 64 key-only.
  int local_bin_bytes = 512;

  /// Tuple stream format selection (default: narrow when it fits, and
  /// key-only when the semiring is value-free).
  FormatPolicy format = FormatPolicy::kAuto;

  /// Caller's assertion that the semiring is value-free (idempotent-
  /// structural): the output pattern alone determines every value, so the
  /// 8 B key-only stream is legal.  The symbolic phase has no semiring
  /// knowledge, so the executor sets this from the op's semiring name
  /// (direct pb_plan_build callers set it by hand); only format
  /// selection reads it.  bool_or_and qualifies; a runtime-
  /// registered semiring qualifies when flagged value_free at
  /// registration.
  bool value_free = false;

  /// Use non-temporal (streaming) stores for local-bin flushes — full
  /// cache-line writes with no read-for-ownership, the mechanism behind
  /// the paper's "always write tuples in multiples of cache lines".
  /// Disable only for the ablation bench.
  bool streaming_stores = true;

  /// Expand-phase masking (per run: the decision reads the mask passed to
  /// pb_execute, never plan state — mask patterns may change between
  /// executions of one plan).  The expand loop applies the mask when its
  /// kept-side density (nnz(mask)/cells, complement-flipped) is at most
  /// this threshold: sparse masks turn the post-compress traffic win into
  /// a flop win (tuples for masked-out outputs are never generated), while
  /// dense masks keep the cheap compress-stage drop — the merge-scan
  /// against the mask row would cost more than it saves.  1.0 applies it
  /// for every mask; a negative value never does.
  double expand_mask_max_density = 0.05;
};

/// Output-mask request threaded through the pipeline (an SpGemmOp mask
/// lowered to PB terms): tuples whose (row, col) lies outside (or, with
/// complement, inside) the pattern of `csr` are dropped at the compress
/// stage, before CSR conversion.  Values of `csr` are ignored.
struct MaskSpec {
  const mtx::CsrMatrix* csr = nullptr;  ///< nullptr = unmasked
  bool complement = false;

  [[nodiscard]] bool active() const { return csr != nullptr; }
};

/// Per-run output epilogue fused into pb_execute (descriptor semantics the
/// post-pass used to own):
///  * accumulate — C_old ⊞= A ⊗ B: C_old's rows are union-merged with the
///    product during CSR conversion (per-bin, rows cache-hot), replacing
///    the post-pass semiring_ewise_add and its full extra stream of C.
///    Must match the product's shape; pattern-only equality with the
///    post-pass (S::add(c_old, product) where both present).
///  * post_op — elementwise scale/prune/top-k applied in the per-bin
///    filter stage right after the fused mask (common/post_op.hpp).
/// The two are mutually exclusive (the descriptor layer rejects the
/// combination), and post_op requires a valued stream format.
struct PbEpilogue {
  const mtx::CsrMatrix* accumulate = nullptr;
  PostOp post_op;

  [[nodiscard]] bool active() const {
    return accumulate != nullptr || post_op.active();
  }
};

struct PhaseStats {
  double seconds = 0;
  double bytes = 0;  ///< modeled traffic per Table III

  /// Sustained bandwidth in GB/s under the Table III byte model.
  [[nodiscard]] double gbs() const {
    return seconds > 0 ? bytes / seconds / 1e9 : 0.0;
  }
};

struct PbTelemetry {
  PhaseStats symbolic;
  PhaseStats expand;
  PhaseStats sort;
  PhaseStats compress;
  PhaseStats convert;

  nnz_t flop = 0;
  nnz_t nnz_c = 0;
  /// Tuples the fused output mask dropped at the compress stage (0 when
  /// the run was unmasked).  nnz_c counts survivors only, so
  /// nnz_c + mask_dropped is the unmasked product's nonzero count.
  nnz_t mask_dropped = 0;
  /// Tuples the expand phase never generated because the fused mask was
  /// applied in the scatter loop (PbConfig::expand_mask_max_density): a
  /// flop reduction, not just a traffic one.  When expand masking engages
  /// the compress-stage filter has nothing left to drop, so mask_dropped
  /// stays 0 and flop == generated tuples + mask_skipped_expand.
  nnz_t mask_skipped_expand = 0;
  /// True when this run's expand phase applied the mask in its scatter
  /// loop (mask_skipped_expand is meaningful, even if it skipped nothing).
  bool expand_masked = false;
  /// Entries the fused elementwise post-op removed in the per-bin filter
  /// stage (prune/top-k; a pure scale drops nothing).
  nnz_t post_dropped = 0;
  int nbins = 0;
  index_t rows_per_bin = 0;  ///< width of every bin's row range

  /// Stream format this run used and its per-tuple byte cost (the `b` the
  /// phase byte models above were computed with).
  TupleFormat format = TupleFormat::kWide;

  /// Schedule this run executed under (always the one there is; ROADMAP
  /// item 2(c) removes the field).
  PbSchedule schedule = PbSchedule::kPipeline;

  /// Wall time of the numeric phases, expand through convert.  The phase
  /// seconds above are walls too, and sum to it: expand runs from the
  /// region's start to the barrier; the bin loop's wall is split among
  /// sort, compress and convert in proportion to the team's busy seconds
  /// in each; the prefix-sum/scatter tail is added to convert.
  double wall_seconds = 0;

  /// Σ over bins of the time from the barrier to a thread claiming the bin
  /// (ROADMAP item 2(c) removes it).
  double bin_wait_seconds = 0;

  /// Always 0: one barrier completes every bin at once, so no thread
  /// steals one from another (ROADMAP item 2(c) removes it).
  int bins_stolen = 0;

  [[nodiscard]] double tuple_bytes() const {
    return static_cast<double>(bytes_per_tuple(format));
  }

  [[nodiscard]] double cf() const {
    return nnz_c > 0 ? static_cast<double>(flop) / static_cast<double>(nnz_c) : 0.0;
  }

  /// Symbolic plus the numeric wall.  Telemetry without a wall (built by
  /// hand, or a run that did no numeric work) falls back to the phase sum.
  [[nodiscard]] double total_seconds() const {
    if (wall_seconds > 0) return symbolic.seconds + wall_seconds;
    return symbolic.seconds + expand.seconds + sort.seconds +
           compress.seconds + convert.seconds;
  }

  /// Σ phase seconds − wall, floored at 0.  The phases are walls that sum
  /// to wall_seconds, so a pb run reads 0 (ROADMAP item 2(c) removes it).
  [[nodiscard]] double overlap_seconds() const {
    if (wall_seconds <= 0) return 0.0;
    const double busy = expand.seconds + sort.seconds + compress.seconds +
                        convert.seconds;
    return busy > wall_seconds ? busy - wall_seconds : 0.0;
  }

  /// Millions of multiplications per second over the whole run — the
  /// paper's performance metric.
  [[nodiscard]] double mflops() const {
    const double t = total_seconds();
    return t > 0 ? static_cast<double>(flop) / t / 1e6 : 0.0;
  }
};

struct PbResult {
  mtx::CsrMatrix c;
  PbTelemetry stats;
};

}  // namespace pbs::pb
