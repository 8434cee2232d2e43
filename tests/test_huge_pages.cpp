// Huge-page sizing of output arrays (common/huge_pages.hpp): the helper
// gives exactly plain resize's contents, advises only growths of at
// least kHugePageMinBytes, and a product whose C crosses that threshold
// comes out identical from pb and hash with its arrays advised.  The
// environment report names the THP mode those numbers depend on.
#include "common/huge_pages.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include <unistd.h>

#include "common/env_report.hpp"
#include "matrix/csr.hpp"
#include "spgemm/executor.hpp"

namespace pbs {
namespace {

/// The VmFlags of the /proc/self/smaps entry that covers address p, or
/// nullopt when no entry covers it (or smaps cannot be read).
std::optional<std::string> vm_flags_covering(const void* p) {
  std::ifstream smaps("/proc/self/smaps");
  const auto addr = reinterpret_cast<std::uintptr_t>(p);
  bool covering = false;
  std::string line;
  while (std::getline(smaps, line)) {
    std::istringstream fields(line);
    std::string first;
    fields >> first;
    if (first.empty()) continue;
    if (first.back() != ':') {  // a mapping header: "lo-hi perms ..."
      const auto dash = first.find('-');
      if (dash == std::string::npos) continue;
      const auto lo = std::stoull(first.substr(0, dash), nullptr, 16);
      const auto hi = std::stoull(first.substr(dash + 1), nullptr, 16);
      covering = lo <= addr && addr < hi;
    } else if (covering && first == "VmFlags:") {
      return line;
    }
  }
  return std::nullopt;
}

bool has_flag(const std::string& vm_flags, const std::string& flag) {
  std::istringstream tokens(vm_flags);
  std::string token;
  while (tokens >> token) {
    if (token == flag) return true;
  }
  return false;
}

/// The first whole page inside v's array: the advice rounds the start up,
/// so the page holding the allocator's header stays unadvised.
template <typename T>
const void* first_whole_page(const std::vector<T>& v) {
  const auto page = static_cast<std::uintptr_t>(sysconf(_SC_PAGESIZE));
  const auto begin = reinterpret_cast<std::uintptr_t>(v.data());
  return reinterpret_cast<const void*>((begin + page - 1) / page * page);
}

/// Whether the entry covering v's first whole page is advised huge pages.
template <typename T>
bool advised(const std::vector<T>& v) {
  const std::optional<std::string> flags =
      vm_flags_covering(first_whole_page(v));
  return flags.has_value() && has_flag(*flags, "hg");
}

/// The smaps checks need THP in the kernel and a readable smaps.
bool smaps_checkable() {
  return std::filesystem::exists("/sys/kernel/mm/transparent_hugepage") &&
         std::filesystem::exists("/proc/self/smaps");
}

constexpr std::size_t kAboveDoubles = kHugePageMinBytes / sizeof(double) + 1;

std::vector<double> counting(std::size_t n) {
  std::vector<double> v(n);
  for (std::size_t i = 0; i < n; ++i) v[i] = static_cast<double>(i + 1);
  return v;
}

TEST(HugePages, BelowThresholdMatchesPlainResize) {
  std::vector<double> v = counting(1000);
  std::vector<double> ref = v;
  resize_on_huge_pages(v, std::size_t{1} << 20);  // 8 MiB
  ref.resize(std::size_t{1} << 20);
  EXPECT_EQ(v, ref);
  EXPECT_EQ(v.size(), std::size_t{1} << 20);
}

TEST(HugePages, AboveThresholdMatchesPlainResize) {
  std::vector<double> v;
  resize_on_huge_pages(v, kAboveDoubles);
  ASSERT_EQ(v.size(), kAboveDoubles);
  EXPECT_EQ(v, std::vector<double>(kAboveDoubles));
}

TEST(HugePages, GrowingNonEmptyVectorKeepsPrefixAndZeroesTheRest) {
  constexpr std::size_t kPrefix = 3000;
  std::vector<double> v = counting(kPrefix);
  std::vector<double> ref = v;
  const std::size_t n = kPrefix + kAboveDoubles;
  resize_on_huge_pages(v, n);
  ref.resize(n);
  ASSERT_EQ(v.size(), n);
  EXPECT_EQ(v, ref);
  for (std::size_t i = 0; i < kPrefix; ++i) {
    ASSERT_EQ(v[i], static_cast<double>(i + 1));
  }
  // Shrinking is plain resize too.
  resize_on_huge_pages(v, kPrefix / 2);
  ref.resize(kPrefix / 2);
  EXPECT_EQ(v, ref);
}

TEST(HugePages, AdvisesOnlyGrowthsAtOrAboveThreshold) {
  if (!smaps_checkable()) {
    GTEST_SKIP() << "no transparent huge pages or no /proc/self/smaps";
  }
  std::vector<double> above;
  resize_on_huge_pages(above, kAboveDoubles);
  EXPECT_TRUE(advised(above));

  std::vector<double> below;
  resize_on_huge_pages(below, kHugePageMinBytes / sizeof(double) / 2);
  EXPECT_FALSE(advised(below));
}

// A (2,900 × 8) holds one entry per row, in column r mod 8; B (8 × 2,900)
// has dense rows.  C = A·B is dense, 8.41M entries, each a single
// product, so its column ids (33.6 MB) and values cross the threshold
// and every algorithm must give the same bits.
TEST(HugePages, ThresholdCrossingProductMatchesAcrossPbAndHash) {
  constexpr index_t kN = 2900;
  constexpr index_t kK = 8;
  mtx::CsrMatrix a(kN, kK);
  for (index_t r = 0; r < kN; ++r) {
    a.rowptr[static_cast<std::size_t>(r) + 1] = r + 1;
    a.colids.push_back(r % kK);
    a.vals.push_back(static_cast<value_t>(1 + r % 3));
  }
  mtx::CsrMatrix b(kK, kN);
  for (index_t k = 0; k < kK; ++k) {
    b.rowptr[static_cast<std::size_t>(k) + 1] = (k + 1) * kN;
    for (index_t c = 0; c < kN; ++c) {
      b.colids.push_back(c);
      b.vals.push_back(static_cast<value_t>(1 + (k + c) % 5));
    }
  }
  ASSERT_TRUE(a.valid());
  ASSERT_TRUE(b.valid());
  const SpGemmProblem p = SpGemmProblem::multiply(a, b);
  SpGemmExecutor exec;
  SpGemmOp op;
  op.algo = "pb";
  const mtx::CsrMatrix c_pb = exec.run(p, op);
  op.algo = "hash";
  const mtx::CsrMatrix c_hash = exec.run(p, op);

  ASSERT_EQ(c_pb.nnz(), static_cast<nnz_t>(kN) * kN);
  ASSERT_GE(c_pb.colids.size() * sizeof(index_t), kHugePageMinBytes);
  // Identical arrays: hash's result is valid exactly when pb's is (one
  // valid() pass over 8.41M entries is a second of a sanitizer build).
  EXPECT_TRUE(c_pb.valid());
  EXPECT_TRUE(mtx::equal_exact(c_pb, c_hash));
  if (smaps_checkable()) {
    EXPECT_TRUE(advised(c_pb.colids));
    EXPECT_TRUE(advised(c_pb.vals));
    EXPECT_TRUE(advised(c_hash.colids));
    EXPECT_TRUE(advised(c_hash.vals));
  }
}

// The reported THP mode is the bracketed word of the sysfs file, or
// "unavailable" without one.
TEST(HugePages, EnvReportNamesTheThpMode) {
  const std::string mode = collect_env_report().thp_mode;
  std::ifstream in("/sys/kernel/mm/transparent_hugepage/enabled");
  std::string line;
  if (!std::getline(in, line)) {
    EXPECT_EQ(mode, "unavailable");
    return;
  }
  EXPECT_FALSE(mode.empty());
  EXPECT_NE(line.find("[" + mode + "]"), std::string::npos) << line;
}

}  // namespace
}  // namespace pbs
