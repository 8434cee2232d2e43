// Large output arrays on transparent huge pages.
//
// A freshly allocated C is written once, but std::vector's resize
// value-initializes it first, on the calling thread, one 4 KiB page
// fault at a time: on a 201 MB product that first touch costs more than
// the parallel scatter that fills C.  Advising the block MADV_HUGEPAGE
// before the first touch lets the kernel back it with 2 MiB pages, about
// 1/512 as many faults.  CsrMatrix/CscMatrix keep their std::vector
// fields; only the sizing call changes.
#pragma once

#include <cstddef>
#include <vector>

#include "common/types.hpp"

namespace pbs {

/// Smallest growth, in bytes, that is advised huge pages.  This is
/// glibc's largest mmap threshold on 64-bit (DEFAULT_MMAP_THRESHOLD_MAX,
/// 32 MiB): every malloc block at least this large is its own private
/// mapping, unmapped when freed, so the advice cannot reach the shared
/// heap, where VM_HUGEPAGE would outlive the block and fault later small
/// allocations in 2 MiB pages.  The assumption does not hold under
/// MALLOC_MMAP_MAX_=0, where large blocks come from the heap.
inline constexpr std::size_t kHugePageMinBytes = std::size_t{32} << 20;

/// When growing v to n elements adds at least kHugePageMinBytes, reserves
/// the capacity and advises the block's whole pages (start rounded up,
/// end down) MADV_HUGEPAGE; otherwise does nothing.  A failing madvise is
/// ignored: with THP off the advice is harmless.
void reserve_on_huge_pages(std::vector<index_t>& v, std::size_t n);
void reserve_on_huge_pages(std::vector<value_t>& v, std::size_t n);

/// v.resize(n), value-initializing the new elements, with a large growth
/// advised first so that resize's value-init is the pages' first touch.
/// The advice stays out of line so the caller's vector code inlines as a
/// plain resize does: GCC's per-unit inlining budget otherwise stopped
/// inlining the hash accumulator's reset into its row loop.
template <typename T>
inline void resize_on_huge_pages(std::vector<T>& v, std::size_t n) {
  reserve_on_huge_pages(v, n);
  v.resize(n);
}

}  // namespace pbs
