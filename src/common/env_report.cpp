#include "common/env_report.hpp"

#include <unistd.h>

#include <fstream>
#include <ostream>
#include <string>

#include "common/cache_info.hpp"
#include "common/parallel.hpp"

namespace pbs {

namespace {

std::string read_thp_mode() {
  std::ifstream in("/sys/kernel/mm/transparent_hugepage/enabled");
  std::string line;
  if (!std::getline(in, line)) return "unavailable";
  const auto open = line.find('[');
  const auto close = line.find(']', open);
  if (open == std::string::npos || close == std::string::npos) {
    return "unavailable";
  }
  return line.substr(open + 1, close - open - 1);
}

}  // namespace

EnvReport collect_env_report() {
  EnvReport r;
  std::ifstream cpuinfo("/proc/cpuinfo");
  std::string line;
  while (std::getline(cpuinfo, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) r.cpu_model = line.substr(colon + 2);
      break;
    }
  }
  if (r.cpu_model.empty()) r.cpu_model = "unknown";
  const long ncpu = sysconf(_SC_NPROCESSORS_ONLN);
  r.logical_cpus = ncpu > 0 ? static_cast<int>(ncpu) : 1;
  r.omp_max_threads = max_threads();
  const CacheInfo& c = cache_info();
  r.l1d_bytes = c.l1d_bytes;
  r.l2_bytes = c.l2_bytes;
  r.l3_bytes = c.l3_bytes;
  r.thp_mode = read_thp_mode();
  return r;
}

void print_env_report(std::ostream& os, const EnvReport& r) {
  os << "# cpu: " << r.cpu_model << "\n"
     << "# logical cpus: " << r.logical_cpus
     << ", omp max threads: " << r.omp_max_threads << "\n"
     << "# caches: L1d " << r.l1d_bytes / 1024 << "K, L2 "
     << r.l2_bytes / 1024 << "K, L3 " << r.l3_bytes / 1024 << "K\n"
     << "# transparent huge pages: " << r.thp_mode << "\n";
}

}  // namespace pbs
