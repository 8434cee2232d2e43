#include "common/huge_pages.hpp"

#include <sys/mman.h>
#include <unistd.h>

#include <cstdint>

namespace pbs {

namespace {

void advise_huge_pages(void* p, std::size_t bytes) {
#ifdef MADV_HUGEPAGE
  const long page_size = sysconf(_SC_PAGESIZE);
  if (page_size <= 0) return;
  const auto page = static_cast<std::uintptr_t>(page_size);
  const auto begin = reinterpret_cast<std::uintptr_t>(p);
  const std::uintptr_t first = (begin + page - 1) / page * page;
  const std::uintptr_t last = (begin + bytes) / page * page;
  if (first >= last) return;
  (void)madvise(reinterpret_cast<void*>(first), last - first, MADV_HUGEPAGE);
#else
  (void)p;
  (void)bytes;
#endif
}

template <typename T>
void reserve_advised(std::vector<T>& v, std::size_t n) {
  if (n <= v.size() || (n - v.size()) * sizeof(T) < kHugePageMinBytes) return;
  v.reserve(n);
  advise_huge_pages(v.data(), v.capacity() * sizeof(T));
}

}  // namespace

void reserve_on_huge_pages(std::vector<index_t>& v, std::size_t n) {
  reserve_advised(v, n);
}

void reserve_on_huge_pages(std::vector<value_t>& v, std::size_t n) {
  reserve_advised(v, n);
}

}  // namespace pbs
