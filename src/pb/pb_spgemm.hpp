// PB-SpGEMM — the paper's contribution (Algorithm 2), generalized over an
// arbitrary semiring — and the memory it runs in.
//
// C = A ⊗ B via outer-product expansion with propagation blocking:
//
//   symbolic  — flop count + bin layout + per-bin regions       (Alg. 3)
//   expand    — k outer products (S::mul), tuples routed through
//               local bins into L2-sized global bins             (Fig. 5)
//   sort      — per-bin byte-skipping LSD radix sort             (Sec. III-D)
//   compress  — per-bin two-pointer duplicate merge (S::add)     (Sec. III-E)
//   convert   — bins → canonical CSR                             (line 22)
//
// The pipeline is semiring-agnostic: only the scalar multiply in expand
// and the duplicate-combine in compress touch values, so one pipeline
// runs (+, ×) numeric SpGEMM, (min, +) shortest-path relaxation, (max,
// min) bottleneck paths and (∨, ∧) boolean reachability.  Entries that
// combine to S::zero() stay structurally present (exact-cancellation
// convention, matching spgemm_semiring).
//
// The pipeline runs as two calls (pb/plan.hpp): pb_plan_build (symbolic)
// and pb_execute<S> (the numeric phases, against a PbWorkspace).  Every
// product in the library reaches them through SpGemmExecutor
// (spgemm/executor.hpp), which caches the plans and pools the workspaces
// defined here.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "common/aligned_buffer.hpp"
#include "common/errors.hpp"
#include "common/fault.hpp"
#include "pb/pb_config.hpp"
#include "pb/tuple.hpp"

namespace pbs::pb {

/// Shared byte budget for workspace memory (tuple pools + sort scratch).
/// `cap == 0` means unlimited.  Workspaces charge growth before they
/// allocate and release on destruction, so `used` tracks the pool-wide
/// retained footprint; a growth that would push `used` past `cap` is
/// rejected and surfaces as MemoryBudgetError, which the executor's
/// degradation path treats like a real bad_alloc.
struct MemoryBudget {
  std::size_t cap = 0;
  std::atomic<std::size_t> used{0};

  [[nodiscard]] bool try_reserve(std::size_t delta) noexcept {
    if (cap == 0) {
      used.fetch_add(delta, std::memory_order_relaxed);
      return true;
    }
    std::size_t cur = used.load(std::memory_order_relaxed);
    while (true) {
      if (cur + delta > cap) return false;
      if (used.compare_exchange_weak(cur, cur + delta,
                                     std::memory_order_relaxed)) {
        return true;
      }
    }
  }

  void release(std::size_t delta) noexcept {
    used.fetch_sub(delta, std::memory_order_relaxed);
  }
};

/// Pooling allocator for the pipeline's scratch memory: the expanded
/// matrix Cˆ (flop tuples — the largest allocation of the algorithm, often
/// several times the inputs) plus the per-thread radix-sort scratch of the
/// sort/compress phase.
///
/// Re-running PB-SpGEMM with the same workspace keeps that memory mapped
/// and warm across calls, which matters twice: in iterative applications
/// (MCL, AMG setup, BFS) the allocation cost would otherwise recur every
/// iteration, and on kernels with slow page-fault paths (containers, some
/// hypervisors) first-touch faults can run an order of magnitude below
/// stream bandwidth and completely mask the algorithm.  The pools hold
/// raw bytes and carve them per request into a format's StreamSpan
/// (pb/tuple.hpp): the key array, padded to a cache line, then the value
/// array, so the values start on a line.  One workspace therefore serves
/// every semiring instantiation and all tuple formats — a 12 B/tuple
/// narrow stream fits inside the capacity a 16 B/tuple wide run of the
/// same flop left behind, and the 8 B/tuple key-only stream fits inside
/// either, so plans alternating formats reallocate nothing.  Crucially
/// each lease reserves only what its format needs: a key-only acquire
/// following a wide one asks for n·8 bytes, not n·16 — the pool never
/// charges value bytes to a format that has no value array.
///
/// Reuse statistics distinguish calls served from pooled capacity from
/// calls that had to (re)allocate — the plan/execute layer exposes them so
/// tests and benches can assert that steady-state executions allocate
/// nothing.  One acquire is one pipeline execution's tuple-buffer
/// request.  Not thread-safe across concurrent pipelines; the
/// per-thread scratch slots are safe to fill from inside one pipeline's
/// parallel region (each slot belongs to one OpenMP thread).
class PbWorkspace {
 public:
  struct Stats {
    std::uint64_t acquires = 0;     ///< total tuple-buffer requests
    std::uint64_t allocations = 0;  ///< requests that had to (re)allocate
    std::uint64_t reuses = 0;       ///< requests served from pooled capacity
    std::uint64_t scratch_allocations = 0;  ///< ditto for sort scratch slots
    std::uint64_t scratch_reuses = 0;
    std::size_t peak_request = 0;   ///< largest tuple count ever requested
    std::uint64_t budget_rejections = 0;  ///< growths refused by the budget
  };

  PbWorkspace() = default;
  PbWorkspace(const PbWorkspace&) = delete;
  PbWorkspace& operator=(const PbWorkspace&) = delete;

  /// Returns this workspace's entire charge to the budget.
  ~PbWorkspace() {
    if (budget_ == nullptr) return;
    std::size_t held = buf_.size();
    for (const ScratchSlot& s : scratch_) held += s.buf.size();
    if (held > 0) budget_->release(held);
  }

  /// Attaches a shared byte budget; every subsequent growth is charged
  /// against it and a growth that would exceed `budget->cap` throws
  /// MemoryBudgetError instead of allocating.  Call before the first
  /// acquire (the pool does, at construction); the budget must outlive
  /// this workspace.
  void set_budget(MemoryBudget* budget) { budget_ = budget; }

  /// Format-F stream of at least n tuples (stream_bytes(F, n) bytes);
  /// contents undefined.  Grows geometrically, never shrinks.
  template <TupleFormat F>
  StreamSpan<F> acquire(std::size_t n) {
    note_request(n);
    const std::uint64_t before = stats_.allocations;
    std::byte* base =
        ensure(buf_, stats_.allocations, stats_.reuses, stream_bytes(F, n));
    fresh_ = stats_.allocations != before;
    return carve<F>(base, n);
  }

  /// True when the most recent acquire() had to (re)allocate the tuple
  /// pool — its pages are unmapped and their NUMA placement is still up for
  /// grabs (first-touch pending).
  [[nodiscard]] bool last_acquire_allocated() const { return fresh_; }

  /// NUMA-aware first touch of the most recent acquire's per-bin regions:
  /// each bin's byte range is touched (one write per page) from a thread
  /// running on the bin's home node (`bin_home`, pb_symbolic's
  /// flop-balanced bin→node partition), so Linux's first-touch policy
  /// places the pages where the bin's tuples will be produced and
  /// consumed.  No-op unless last_acquire_allocated() — pages of a reused
  /// pool are already placed and a touch would not migrate them.  On
  /// single-node hosts every bin is home to node 0 and this degenerates
  /// to a parallel pre-fault of the pool, which still beats serializing
  /// the faults into the first expand flush.  `bin_offsets` / `format`
  /// must be the geometry the acquire was sized for: a bin's pages are its
  /// key range and, for valued formats, its value range.
  void place_bins(std::span<const nnz_t> bin_offsets,
                  std::span<const int> bin_home, TupleFormat format);

  /// Ensures `nthreads` scratch slots exist.  Call before the parallel
  /// region that uses acquire_scratch.
  void prepare_scratch(int nthreads) {
    if (scratch_.size() < static_cast<std::size_t>(nthreads)) {
      scratch_.resize(static_cast<std::size_t>(nthreads));
    }
  }

  /// Per-thread sort scratch: a format-F stream of at least n tuples,
  /// laid out like acquire()'s; contents undefined.  Each slot is owned by
  /// one thread, so slots carry their own counters (aggregated in stats())
  /// without synchronization.
  template <TupleFormat F>
  StreamSpan<F> acquire_scratch(std::size_t slot, std::size_t n) {
    ScratchSlot& s = scratch_[slot];
    return carve<F>(ensure(s.buf, s.allocations, s.reuses, stream_bytes(F, n)),
                    n);
  }

  /// Retained pool capacity in bytes.
  [[nodiscard]] std::size_t capacity() const { return buf_.size(); }

  /// Aggregated reuse statistics (tuple pool + scratch slots).
  [[nodiscard]] Stats stats() const {
    Stats s = stats_;
    for (const ScratchSlot& slot : scratch_) {
      s.scratch_allocations += slot.allocations;
      s.scratch_reuses += slot.reuses;
    }
    return s;
  }

  void reset_stats() {
    stats_ = {};
    for (ScratchSlot& slot : scratch_) slot.allocations = slot.reuses = 0;
  }

 private:
  struct ScratchSlot {
    AlignedBuffer<std::byte> buf;
    std::uint64_t allocations = 0;
    std::uint64_t reuses = 0;
  };

  void note_request(std::size_t n) {
    ++stats_.acquires;
    stats_.peak_request = std::max(stats_.peak_request, n);
  }

  /// Bytes of a format-F stream of n tuples: the key array, then — padded
  /// to a cache line — the value array; key-only streams are the bare keys.
  static std::size_t stream_bytes(TupleFormat f, std::size_t n) {
    return has_values(f) ? key_span(f, n) + n * sizeof(value_t)
                         : n * key_bytes(f);
  }

  static std::size_t key_span(TupleFormat f, std::size_t n) {
    return (n * key_bytes(f) + kCacheLineBytes - 1) / kCacheLineBytes *
           kCacheLineBytes;
  }

  template <TupleFormat F>
  static StreamSpan<F> carve(std::byte* base, std::size_t n) {
    StreamSpan<F> s;
    s.keys = reinterpret_cast<typename StreamSpan<F>::Key*>(base);
    if constexpr (StreamTraits<F>::kHasValues) {
      s.vals = reinterpret_cast<value_t*>(base + key_span(F, n));
    }
    return s;
  }

  std::byte* ensure(AlignedBuffer<std::byte>& buf, std::uint64_t& allocations,
                    std::uint64_t& reuses, std::size_t bytes) {
    if (bytes > buf.size()) {
      ++allocations;
      grow(buf, std::max(bytes, buf.size() + buf.size() / 2));
    } else {
      ++reuses;
    }
    return buf.data();
  }

  /// Grows `buf` to `target` elements, charging the budget first.  The
  /// invariant is charged-per-buffer == buf.size(): growth charges the
  /// delta; a failed aligned_alloc leaves the buffer empty (allocate
  /// frees the old block before allocating), so the whole `target`
  /// charge is released on the way out.
  void grow(AlignedBuffer<std::byte>& buf, std::size_t target) {
    FaultInjector::on_alloc(target);
    if (budget_ != nullptr && !budget_->try_reserve(target - buf.size())) {
      ++stats_.budget_rejections;
      throw MemoryBudgetError(
          "pb workspace growth to " + std::to_string(target) +
          " bytes exceeds the memory budget (cap " +
          std::to_string(budget_->cap) + ", used " +
          std::to_string(budget_->used.load(std::memory_order_relaxed)) +
          ")");
    }
    try {
      buf.allocate(target);
    } catch (...) {
      if (budget_ != nullptr) budget_->release(target);
      throw;
    }
  }

  AlignedBuffer<std::byte> buf_;
  std::vector<ScratchSlot> scratch_;
  Stats stats_;
  bool fresh_ = false;
  MemoryBudget* budget_ = nullptr;
};

}  // namespace pbs::pb
