// The expanded-matrix tuple stream of PB-SpGEMM: one layout, three widths.
//
// Cˆ entries are (rowid, colid, value) conceptually.  Inside a bin only the
// bin-relative row bits and the column bits vary, so every format stores a
// tuple as a key packed to exactly those bits (the paper's key squeezing,
// Sec. III-D) plus, when the semiring carries values, an 8-byte value:
//
//     key = (local_row << col_bits) | col        (KeyCodec, one codec)
//
// in a structure-of-arrays stream — a key array and an optional value
// array (StreamSpan).  `local_row` is BinLayout::local_row, the row minus
// its bin's first row, so within a bin ascending keys are ascending
// (row, col) — CSR order — and the per-bin radix sorts (stable) leave
// equal keys in expand's order.  The formats differ only in the key width
// and in whether the value array exists:
//
//  * kNarrow — u32 key + f64 value, 12 B/tuple.  Legal when
//    row_bits + col_bits <= 32 for every bin of the plan's layout.
//
//  * kWide — u64 key + f64 value, 16 B/tuple: the `b` the paper's
//    arithmetic-intensity model charges per COO nonzero (Sec. II-C).  A
//    u64 holds any local row (< 2^31) beside any column (< 2^31), so wide
//    is the fallback for every geometry.
//
//  * kKeyOnly — u64 key, no value array, 8 B/tuple.  For a value-free
//    semiring (bool_or_and, or any registered semiring flagged
//    idempotent-structural) the value of every surviving entry is
//    determined by structure alone, so expand writes only keys, compress
//    is a pure duplicate drop, and conversion stores kPresentValue.  Like
//    wide, it is legal for any bin geometry.
//
// The per-format byte cost feeds the roofline model through
// bytes_per_tuple(); telemetry reports which format a run used.
#pragma once

#include <cstddef>
#include <cstdint>
#include <type_traits>

#include "common/aligned_buffer.hpp"
#include "common/types.hpp"

namespace pbs::pb {

/// Physical width of the expanded tuple stream (see file comment).
enum class TupleFormat {
  kWide,     ///< u64 key + f64 value, 16 B/tuple
  kNarrow,   ///< u32 key + f64 value, 12 B/tuple
  kKeyOnly,  ///< u64 key, no value array, 8 B/tuple (value-free)
};

const char* to_string(TupleFormat f);

/// Key width of a format's stream.
constexpr std::size_t key_bytes(TupleFormat f) {
  return f == TupleFormat::kNarrow ? sizeof(std::uint32_t)
                                   : sizeof(std::uint64_t);
}

/// Whether the stream carries a value array (every format but key-only).
constexpr bool has_values(TupleFormat f) { return f != TupleFormat::kKeyOnly; }

/// The `b` of the arithmetic-intensity equations for the given stream
/// format — what each expanded tuple actually costs to move through DRAM.
constexpr std::size_t bytes_per_tuple(TupleFormat f) {
  return key_bytes(f) + (has_values(f) ? sizeof(value_t) : 0);
}
static_assert(bytes_per_tuple(TupleFormat::kWide) == kBytesPerTuple,
              "wide tuple must stay 16 bytes; the AI model depends on it");
static_assert(bytes_per_tuple(TupleFormat::kNarrow) == 12);
static_assert(bytes_per_tuple(TupleFormat::kKeyOnly) == 8);

/// Tuples per full-line flush: one cache line of keys, which is also a
/// whole number of value lines — 16 for u32 keys, 8 for u64.  Expand
/// rounds its local bins to this lane and pb_symbolic pads bin regions to
/// it, so full flushes land line-aligned on every array.
constexpr int lane_tuples(TupleFormat f) {
  return static_cast<int>(kCacheLineBytes / key_bytes(f));
}

/// The value conversion stores for every key-only survivor: a value-free
/// semiring's present-value ("true" for bool_or_and).
inline constexpr value_t kPresentValue = 1.0;

/// The same facts at compile time, for the kernels templated on a format.
template <TupleFormat F>
struct StreamTraits {
  using Key = std::conditional_t<key_bytes(F) == sizeof(std::uint32_t),
                                 std::uint32_t, std::uint64_t>;
  static constexpr bool kHasValues = has_values(F);
  static constexpr std::size_t kBytes = bytes_per_tuple(F);
  static constexpr int kLane = lane_tuples(F);
};

/// A tuple stream: keys[i] and, for valued formats, vals[i] (nullptr for
/// key-only).  Carved from workspace memory; holds only pointers.
template <TupleFormat F>
struct StreamSpan {
  using Key = typename StreamTraits<F>::Key;
  Key* keys = nullptr;
  value_t* vals = nullptr;
};

/// The key codec of every format.  `col_bits` is fixed per plan
/// (ceil_log2(ncols) <= 31 since ncols is a positive int32); `local_row`
/// is the bin-relative row (BinLayout::local_row).
template <typename Key>
struct KeyCodec {
  static_assert(std::is_unsigned_v<Key>, "tuple keys are unsigned");
  int col_bits = 0;

  [[nodiscard]] Key pack(index_t local_row, index_t col) const {
    return (static_cast<Key>(local_row) << col_bits) | static_cast<Key>(col);
  }
  [[nodiscard]] index_t local_row(Key key) const {
    return static_cast<index_t>(key >> col_bits);
  }
  [[nodiscard]] index_t col(Key key) const {
    return static_cast<index_t>(key & ((Key{1} << col_bits) - 1u));
  }
};

}  // namespace pbs::pb
