// Thin OpenMP helpers: one switch for thread counts, which tests and
// benches use to run a region at one lane or at full width.
#pragma once

#include <omp.h>

#include <algorithm>

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

}  // namespace pbs
