// Machine/environment description printed at the top of every bench run so
// that EXPERIMENTS.md numbers are traceable to a concrete configuration.
#pragma once

#include <iosfwd>
#include <string>

namespace pbs {

struct EnvReport {
  std::string cpu_model;
  int logical_cpus = 0;
  int omp_max_threads = 0;
  std::size_t l1d_bytes = 0;
  std::size_t l2_bytes = 0;
  std::size_t l3_bytes = 0;
  /// Transparent huge page mode (the bracketed word of
  /// /sys/kernel/mm/transparent_hugepage/enabled), or "unavailable".
  /// Large outputs are advised huge pages (common/huge_pages.hpp), so
  /// their first-touch cost depends on it.
  std::string thp_mode;
};

/// Gathers /proc/cpuinfo + cache + OpenMP + THP facts.
EnvReport collect_env_report();

/// Pretty-prints as a comment block ("# cpu: ...").
void print_env_report(std::ostream& os, const EnvReport& report);

}  // namespace pbs
