// Thin OpenMP helpers.  Keeping every `#pragma omp` behind these functions
// gives tests one switch for thread counts and keeps the algorithm code
// readable.  The work-stealing deque of the pipelined PB schedule lives
// here too: it is a generic scheduling primitive, not a PB data structure.
#pragma once

#include <omp.h>

#include <algorithm>
#include <atomic>
#include <cassert>
#include <cstdint>
#include <memory>

namespace pbs {

/// Number of threads an upcoming parallel region will use.
inline int max_threads() { return omp_get_max_threads(); }

/// Caps the global OpenMP thread count (used by scalability benches).
inline void set_threads(int n) { omp_set_num_threads(std::max(1, n)); }

/// RAII guard that temporarily overrides the OpenMP thread count.
class ThreadCountGuard {
 public:
  explicit ThreadCountGuard(int n) : saved_(omp_get_max_threads()) {
    omp_set_num_threads(std::max(1, n));
  }
  ~ThreadCountGuard() { omp_set_num_threads(saved_); }
  ThreadCountGuard(const ThreadCountGuard&) = delete;
  ThreadCountGuard& operator=(const ThreadCountGuard&) = delete;

 private:
  int saved_;
};

/// Fixed-capacity Chase–Lev work-stealing deque (Chase & Lev, SPAA'05, in
/// the C11 memory-order formulation of Lê et al., PPoPP'13).  One owner
/// thread push()es and pop()s at the bottom (LIFO — the most recently
/// produced task is the cache-hottest); any other thread steal()s from the
/// top (FIFO).  T must be trivially copyable; elements are stored in
/// atomics so a steal racing a wrapped-around push is a defined (relaxed)
/// access.  The orderings sit on the atomic operations themselves rather
/// than on standalone fences, which ThreadSanitizer does not model: the
/// deque hands every task to its worker, so its happens-before edges must
/// be the ones TSan checks.
///
/// The capacity is fixed at construction (rounded up to a power of two)
/// and never grows: the pipelined PB schedule knows its total task count
/// (nbins) up front, so the owner can never overrun a deque sized for it.
/// push() into a full deque is a precondition violation (assert).
template <typename T>
class WorkStealingDeque {
  static_assert(std::is_trivially_copyable_v<T>);

 public:
  explicit WorkStealingDeque(std::size_t capacity) {
    std::size_t cap = 1;
    while (cap < std::max<std::size_t>(capacity, 2)) cap <<= 1;
    mask_ = static_cast<std::int64_t>(cap) - 1;
    buffer_ = std::make_unique<std::atomic<T>[]>(cap);
  }

  /// Owner only.  The deque must not be full.
  void push(T v) {
    const std::int64_t b = bottom_.load(std::memory_order_relaxed);
    assert(b - top_.load(std::memory_order_acquire) <= mask_ &&
           "WorkStealingDeque overflow: capacity must cover all pushes");
    buffer_[b & mask_].store(v, std::memory_order_relaxed);
    // Publish the slot with the new bottom: a thief that observes b+1
    // must also observe the element (and everything the owner wrote
    // before this push — the release pairs with steal()'s bottom load).
    bottom_.store(b + 1, std::memory_order_release);
  }

  /// Owner only.  LIFO; false when empty.
  bool pop(T& out) {
    const std::int64_t b = bottom_.load(std::memory_order_relaxed) - 1;
    // Both seq_cst: the bottom decrement is ordered before this top read,
    // and against thieves' top-then-bottom reads — the classic Chase–Lev
    // race on the last element.
    bottom_.store(b, std::memory_order_seq_cst);
    std::int64_t t = top_.load(std::memory_order_seq_cst);
    if (t > b) {  // already empty
      bottom_.store(b + 1, std::memory_order_relaxed);
      return false;
    }
    out = buffer_[b & mask_].load(std::memory_order_relaxed);
    if (t != b) return true;  // more than one element: no race possible
    // Single element: race the thieves for it via top.
    const bool won = top_.compare_exchange_strong(
        t, t + 1, std::memory_order_seq_cst, std::memory_order_relaxed);
    bottom_.store(b + 1, std::memory_order_relaxed);
    return won;
  }

  /// Any thread.  FIFO; false when empty or when the steal lost a race
  /// (callers treat both as "try elsewhere, then retry").
  bool steal(T& out) {
    // seq_cst pairs with pop()'s bottom store and top load (see there);
    // the bottom load also acquires push()'s release.
    std::int64_t t = top_.load(std::memory_order_seq_cst);
    const std::int64_t b = bottom_.load(std::memory_order_seq_cst);
    if (t >= b) return false;
    out = buffer_[t & mask_].load(std::memory_order_relaxed);
    return top_.compare_exchange_strong(t, t + 1, std::memory_order_seq_cst,
                                        std::memory_order_relaxed);
  }

  /// Snapshot size (racy by nature; exact when quiescent).
  [[nodiscard]] std::int64_t size() const {
    const std::int64_t b = bottom_.load(std::memory_order_acquire);
    const std::int64_t t = top_.load(std::memory_order_acquire);
    return std::max<std::int64_t>(b - t, 0);
  }

 private:
  std::atomic<std::int64_t> top_{0};
  std::atomic<std::int64_t> bottom_{0};
  std::int64_t mask_ = 1;
  std::unique_ptr<std::atomic<T>[]> buffer_;
};

}  // namespace pbs
