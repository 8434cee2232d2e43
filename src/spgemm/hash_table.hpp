// Open-addressing accumulators for the hash-based column/row SpGEMM
// baselines (Nagasaka et al. [12], [27]).
//
// Two probe disciplines:
//  * HashAccumulator     — classic linear probing, one slot at a time.
//  * GroupedAccumulator  — probes 8-slot bucket groups; scanning a whole
//    group per step is the scalar analogue of the vector-register probing
//    in HashVecSpGEMM (the compiler vectorizes the 8-wide key compare).
//
// Each thread keeps one table, grown to the next power of two >= 2x the
// largest row upper bound it has seen and never shrunk; a row probes the
// whole table in use, not a per-row slice, and an occupied-slot list
// clears it between rows (no O(table) clear).
//
// A column's home slot is its Fibonacci hash (Knuth, TAOCP 6.4): the top
// log2(table) bits of col x 2^64/phi.  One multiply and one shift per
// probe start; the top bits depend on every bit of the column, so columns
// that share their low bits (multiples of the table size, say) spread
// over the table instead of sharing one probe chain, as they would under
// a low-bit hash such as (col * 107) & mask.
#pragma once

#include <algorithm>
#include <bit>
#include <cstdint>
#include <vector>

#include "common/types.hpp"

namespace pbs::detail {

/// Fibonacci hash of a non-negative column id: the top 64 - `shift` bits
/// of col x 2^64/phi.  `shift` must be below 64.
inline std::uint32_t hash_col(index_t c, int shift) {
  return static_cast<std::uint32_t>(
      (static_cast<std::uint64_t>(c) * 0x9E3779B97F4A7C15ull) >> shift);
}

class HashAccumulator {
 public:
  /// Prepares for a row with at most `upper` distinct keys.
  void reset(nnz_t upper) {
    const auto want = static_cast<std::size_t>(
        next_pow2(static_cast<std::uint64_t>(std::max<nnz_t>(upper, 1)) * 2));
    if (want > keys_.size()) {
      keys_.assign(want, kEmpty);
      vals_.resize(want);
      mask_ = static_cast<std::uint32_t>(want - 1);
      shift_ = 64 - std::countr_zero(want);  // want >= 2: shift_ <= 63
    } else {
      for (const std::uint32_t s : occupied_) keys_[s] = kEmpty;
    }
    occupied_.clear();
  }

  /// Keyed insert-or-combine: a fresh slot stores v as-is (the kernels'
  /// first-contribution rule — S::zero() never enters the accumulation), a
  /// hit combines with the semiring add.  S = PlusTimes reproduces the
  /// original `vals_[slot] += v` byte for byte.
  template <typename S>
  void accumulate(index_t col, value_t v) {
    std::uint32_t slot = hash_col(col, shift_);
    for (;;) {
      if (keys_[slot] == col) {
        vals_[slot] = S::add(vals_[slot], v);
        return;
      }
      if (keys_[slot] == kEmpty) {
        keys_[slot] = col;
        vals_[slot] = v;
        occupied_.push_back(slot);
        return;
      }
      slot = (slot + 1) & mask_;
    }
  }

  /// Symbolic variant: inserts the key only; returns true when new.
  bool insert(index_t col) {
    std::uint32_t slot = hash_col(col, shift_);
    for (;;) {
      if (keys_[slot] == col) return false;
      if (keys_[slot] == kEmpty) {
        keys_[slot] = col;
        occupied_.push_back(slot);
        return true;
      }
      slot = (slot + 1) & mask_;
    }
  }

  [[nodiscard]] nnz_t size() const { return static_cast<nnz_t>(occupied_.size()); }

  /// Writes the size() occupied slots, in insertion order (unsorted), to
  /// cols[0..size()) and vals[0..size()).
  void extract(index_t* cols, value_t* vals) const {
    for (std::size_t i = 0; i < occupied_.size(); ++i) {
      cols[i] = keys_[occupied_[i]];
      vals[i] = vals_[occupied_[i]];
    }
  }

 private:
  static constexpr index_t kEmpty = -1;
  std::vector<index_t> keys_;
  std::vector<value_t> vals_;
  std::vector<std::uint32_t> occupied_;
  std::uint32_t mask_ = 0;
  int shift_ = 63;
};

class GroupedAccumulator {
 public:
  static constexpr std::uint32_t kGroup = 8;  // vector width (AVX-512: 8 x i32... 16; POWER9 VSX: 4)

  void reset(nnz_t upper) {
    const auto want_groups = static_cast<std::size_t>(next_pow2(
        (static_cast<std::uint64_t>(std::max<nnz_t>(upper, 1)) * 2 + kGroup - 1) /
        kGroup));
    const std::size_t want = want_groups * kGroup;
    if (want > keys_.size()) {
      keys_.assign(want, kEmpty);
      vals_.resize(want);
      group_mask_ = static_cast<std::uint32_t>(want_groups - 1);
      // Hash to a slot, then take its group: a one-group table still
      // shifts by 64 - log2(8) = 61, never by 64.
      shift_ = 64 - std::countr_zero(want);
    } else {
      for (const std::uint32_t s : occupied_) keys_[s] = kEmpty;
    }
    occupied_.clear();
  }

  /// Same keyed insert-or-combine contract as HashAccumulator::accumulate.
  template <typename S>
  void accumulate(index_t col, value_t v) {
    std::uint32_t g = hash_col(col, shift_) / kGroup;
    for (;;) {
      const std::uint32_t base = g * kGroup;
      // 8-wide compare; with -march=native this is one vector compare.
      for (std::uint32_t lane = 0; lane < kGroup; ++lane) {
        if (keys_[base + lane] == col) {
          vals_[base + lane] = S::add(vals_[base + lane], v);
          return;
        }
      }
      for (std::uint32_t lane = 0; lane < kGroup; ++lane) {
        if (keys_[base + lane] == kEmpty) {
          keys_[base + lane] = col;
          vals_[base + lane] = v;
          occupied_.push_back(base + lane);
          return;
        }
      }
      g = (g + 1) & group_mask_;
    }
  }

  bool insert(index_t col) {
    std::uint32_t g = hash_col(col, shift_) / kGroup;
    for (;;) {
      const std::uint32_t base = g * kGroup;
      for (std::uint32_t lane = 0; lane < kGroup; ++lane) {
        if (keys_[base + lane] == col) return false;
      }
      for (std::uint32_t lane = 0; lane < kGroup; ++lane) {
        if (keys_[base + lane] == kEmpty) {
          keys_[base + lane] = col;
          occupied_.push_back(base + lane);
          return true;
        }
      }
      g = (g + 1) & group_mask_;
    }
  }

  [[nodiscard]] nnz_t size() const { return static_cast<nnz_t>(occupied_.size()); }

  /// Same contract as HashAccumulator::extract.
  void extract(index_t* cols, value_t* vals) const {
    for (std::size_t i = 0; i < occupied_.size(); ++i) {
      cols[i] = keys_[occupied_[i]];
      vals[i] = vals_[occupied_[i]];
    }
  }

 private:
  static constexpr index_t kEmpty = -1;
  std::vector<index_t> keys_;
  std::vector<value_t> vals_;
  std::vector<std::uint32_t> occupied_;
  std::uint32_t group_mask_ = 0;
  int shift_ = 61;
};

}  // namespace pbs::detail
