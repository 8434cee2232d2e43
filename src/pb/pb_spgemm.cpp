#include "pb/pb_spgemm.hpp"

#include <omp.h>

#include "common/numa.hpp"
#include "common/parallel.hpp"

namespace pbs::pb {

namespace {

// One write per page is enough to bind it; 0 is safe anywhere in the pool
// (tuple contents are undefined until expand overwrites them, and region
// padding is alignment slack by contract).
void touch_pages(std::byte* begin, std::byte* end) {
  constexpr std::size_t kPage = 4096;
  for (std::byte* p = begin; p < end;
       p += kPage - reinterpret_cast<std::uintptr_t>(p) % kPage) {
    *p = std::byte{0};
  }
}

}  // namespace

void PbWorkspace::place_bins(std::span<const nnz_t> bin_offsets,
                             std::span<const int> bin_home,
                             TupleFormat format) {
  if (!fresh_ || bin_offsets.size() < 2) return;
  fresh_ = false;
  const auto nbins = bin_offsets.size() - 1;
  const auto total = static_cast<std::size_t>(bin_offsets[nbins]);
  std::byte* base = buf_.data();
  const int nthreads = max_threads();

  // Byte ranges of bin b in the pool: its keys, and for valued formats
  // its values in the value array at key_span(total).
  const std::size_t kb = key_bytes(format);
  std::byte* vals = base + key_span(format, total);
  auto touch_bin = [&](std::size_t b) {
    const auto lo = static_cast<std::size_t>(bin_offsets[b]);
    const auto hi = static_cast<std::size_t>(bin_offsets[b + 1]);
    touch_pages(base + lo * kb, base + hi * kb);
    if (has_values(format)) {
      touch_pages(vals + lo * sizeof(value_t), vals + hi * sizeof(value_t));
    }
  };

  // Each bin is touched by exactly ONE thread — a thread on the bin's
  // home node when that node has one in this team, any thread round-robin
  // otherwise — so the pass is race-free (TSan-clean) and the faults are
  // spread across the team even on a single node.
  std::vector<int> thread_node(static_cast<std::size_t>(nthreads), 0);
#pragma omp parallel num_threads(nthreads)
  {
    const auto tid = static_cast<std::size_t>(omp_get_thread_num());
    thread_node[tid] = current_numa_node();
#pragma omp barrier
    int my_rank = 0;   // rank among the team's threads on my node
    int node_cnt = 0;  // how many of them there are
    for (std::size_t t = 0; t < thread_node.size(); ++t) {
      if (thread_node[t] == thread_node[tid]) {
        if (t < tid) ++my_rank;
        ++node_cnt;
      }
    }
    int max_node = 0;
    for (const int n : thread_node) max_node = std::max(max_node, n);
    std::vector<char> node_present(static_cast<std::size_t>(max_node) + 1, 0);
    for (const int n : thread_node) node_present[static_cast<std::size_t>(n)] = 1;
    std::size_t on_node = 0;     // bins whose home node is mine
    std::size_t homeless = 0;    // bins whose home node has no thread here
    for (std::size_t b = 0; b < nbins; ++b) {
      const int home = b < bin_home.size() ? bin_home[b] : 0;
      const bool home_present =
          home >= 0 && home <= max_node &&
          node_present[static_cast<std::size_t>(home)] != 0;
      if (home_present) {
        if (home != thread_node[tid]) continue;
        if (static_cast<int>(on_node++ % static_cast<std::size_t>(node_cnt)) ==
            my_rank) {
          touch_bin(b);
        }
      } else {
        if (static_cast<int>(homeless++ % static_cast<std::size_t>(nthreads)) ==
            static_cast<int>(tid)) {
          touch_bin(b);
        }
      }
    }
  }
}

}  // namespace pbs::pb
