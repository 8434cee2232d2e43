#include "pb/binning.hpp"

#include <algorithm>
#include <cassert>

#include "pb/tuple.hpp"

namespace pbs::pb {

const char* to_string(BinPolicy p) {
  switch (p) {
    case BinPolicy::kRange: return "range";
    case BinPolicy::kModulo: return "modulo";
    case BinPolicy::kAdaptive: return "adaptive";
  }
  return "?";
}

int BinLayout::binid(index_t row) const {
  switch (policy) {
    case BinPolicy::kRange:
      return static_cast<int>(row >> shift);
    case BinPolicy::kModulo:
      return static_cast<int>(static_cast<std::uint32_t>(row) & mask);
    case BinPolicy::kAdaptive: {
      // First bound greater than row, minus one bin.
      const auto it = std::upper_bound(bounds.begin(), bounds.end(), row);
      return static_cast<int>(it - bounds.begin()) - 1;
    }
  }
  return 0;
}

const char* to_string(FormatPolicy p) {
  switch (p) {
    case FormatPolicy::kAuto: return "auto";
    case FormatPolicy::kWide: return "wide";
    case FormatPolicy::kNarrow: return "narrow";
    case FormatPolicy::kKeyOnly: return "keyonly";
  }
  return "?";
}

const char* to_string(ExpandMaskMode m) {
  switch (m) {
    case ExpandMaskMode::kAuto: return "auto";
    case ExpandMaskMode::kOff: return "off";
    case ExpandMaskMode::kOn: return "on";
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

int BinLayout::local_row_bits(index_t nrows) const {
  if (nrows <= 0) return 0;
  index_t max_local = 0;
  switch (policy) {
    case BinPolicy::kRange:
      // Bins except possibly the last are full; the widest local row is
      // bounded by the bin width.  Unsigned arithmetic: shift can be 31.
      max_local = static_cast<index_t>((std::uint32_t{1} << shift) - 1u);
      break;
    case BinPolicy::kModulo:
      max_local = (nrows - 1) >> modulo_shift();
      break;
    case BinPolicy::kAdaptive:
      for (std::size_t b = 0; b + 1 < bounds.size(); ++b) {
        max_local = std::max<index_t>(max_local,
                                      bounds[b + 1] - bounds[b] - 1);
      }
      break;
  }
  return ceil_log2(static_cast<std::uint64_t>(max_local) + 1);
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
  BinLayout layout;
  layout.policy = BinPolicy::kRange;
  // Power-of-two rows per bin, so binid is a shift and local row bits are
  // exactly the low `shift` bits of the rowid.
  const auto rows = std::max<index_t>(nrows, 1);
  const auto per_bin = static_cast<index_t>(next_pow2(static_cast<std::uint64_t>(
      (rows + nbins_target - 1) / nbins_target)));
  layout.shift = ceil_log2(static_cast<std::uint64_t>(per_bin));
  // next_pow2 result is exact, so ceil_log2 is its log2.
  layout.nbins = static_cast<int>((rows + per_bin - 1) / per_bin);
  return layout;
}

BinLayout make_modulo_layout(index_t nrows, int nbins_target) {
  assert(nbins_target >= 1);
  BinLayout layout;
  layout.policy = BinPolicy::kModulo;
  const auto nbins = static_cast<int>(next_pow2(static_cast<std::uint64_t>(
      std::min<index_t>(std::max<index_t>(nrows, 1),
                        static_cast<index_t>(nbins_target)))));
  layout.nbins = nbins;
  layout.mask = static_cast<std::uint32_t>(nbins - 1);
  return layout;
}

BinLayout make_adaptive_layout(std::span<const nnz_t> row_flops,
                               int nbins_target) {
  assert(nbins_target >= 1);
  BinLayout layout;
  layout.policy = BinPolicy::kAdaptive;

  nnz_t total = 0;
  for (const nnz_t f : row_flops) total += f;
  const nnz_t cap = std::max<nnz_t>(1, total / nbins_target);

  layout.bounds.push_back(0);
  nnz_t acc = 0;
  for (std::size_t r = 0; r < row_flops.size(); ++r) {
    if (acc + row_flops[r] > cap && acc > 0) {
      layout.bounds.push_back(static_cast<index_t>(r));
      acc = 0;
    }
    acc += row_flops[r];
  }
  layout.bounds.push_back(static_cast<index_t>(row_flops.size()));
  layout.nbins = static_cast<int>(layout.bounds.size()) - 1;
  return layout;
}

}  // namespace pbs::pb
