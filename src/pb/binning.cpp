#include "pb/binning.hpp"

#include <algorithm>
#include <cassert>
#include <cstdint>

#include "pb/pb_config.hpp"

namespace pbs::pb {

const char* to_string(FormatPolicy p) {
  switch (p) {
    case FormatPolicy::kAuto: return "auto";
    case FormatPolicy::kWide: return "wide";
    case FormatPolicy::kNarrow: return "narrow";
    case FormatPolicy::kKeyOnly: return "keyonly";
  }
  return "?";
}

const char* to_string(TupleFormat f) {
  switch (f) {
    case TupleFormat::kWide: return "wide";
    case TupleFormat::kNarrow: return "narrow";
    case TupleFormat::kKeyOnly: return "keyonly";
  }
  return "?";
}

int auto_nbins(nnz_t flop, std::size_t l2_bytes) {
  if (flop <= 0) return 1;
  const auto bin_budget = static_cast<nnz_t>(l2_bytes / 2);
  const nnz_t bytes = flop * static_cast<nnz_t>(kBytesPerTuple);
  const nnz_t want = (bytes + bin_budget - 1) / std::max<nnz_t>(bin_budget, 1);
  const auto pow2 = static_cast<nnz_t>(next_pow2(static_cast<std::uint64_t>(
      std::clamp<nnz_t>(want, 1, nnz_t{1} << 16))));
  return static_cast<int>(pow2);
}

BinLayout make_range_layout(index_t nrows, int nbins_target) {
  assert(nbins_target >= 1);
  // 64-bit sums: nrows + nbins_target - 1 overflows index_t near 2^31.
  const auto rows = static_cast<std::uint64_t>(std::max<index_t>(nrows, 1));
  const auto target = static_cast<std::uint64_t>(std::max(nbins_target, 1));
  const std::uint64_t per_bin =
      std::min(next_pow2((rows + target - 1) / target),
               std::uint64_t{1} << kMaxBinShift);
  BinLayout layout;
  // next_pow2 result is exact, so ceil_log2 is its log2.
  layout.shift = ceil_log2(per_bin);
  layout.nbins = static_cast<int>((rows + per_bin - 1) / per_bin);
  return layout;
}

}  // namespace pbs::pb
