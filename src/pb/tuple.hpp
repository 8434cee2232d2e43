// The expanded-matrix tuple of PB-SpGEMM, in its three physical formats.
//
// Cˆ entries are (rowid, colid, value) conceptually.  The pipeline carries
// them in one of three layouts, chosen per plan by the symbolic phase
// (pb/symbolic.hpp):
//
//  * kWide — array-of-structs `Tuple{u64 key, f64 val}`: the two 4-byte
//    indices packed into one 8-byte key, 16 bytes per tuple — the `b` the
//    paper's arithmetic-intensity model charges per COO nonzero
//    (Sec. II-C).  Sorting by the key is lexicographic (row, col) order,
//    which is exactly CSR order.
//
//  * kNarrow — structure-of-arrays `u32 key[] + f64 val[]`, 12 bytes per
//    tuple: inside a bin only the bin-relative row bits and the column
//    bits vary, so whenever row_bits + col_bits <= 32 the key shrinks to
//    `(local_row << col_bits) | col`.  This extends the paper's "squeeze
//    keys into 4-byte integers" trick from the sort phase to the whole
//    stream: expand writes 12 B/tuple, the sort's histogram passes read
//    4 B/tuple, and conversion reconstructs the global (row, col) from the
//    bin geometry while streaming.  Within a bin ascending narrow-key
//    order equals ascending (row, col) order for every bin policy, so the
//    two formats produce identical CSR.
//
//  * kKeyOnly — the 8-byte wide key with NO value array at all.  For a
//    value-free semiring (bool_or_and, or any registered semiring flagged
//    idempotent-structural) the value of every surviving entry is
//    determined by structure alone, so carrying values through the stream
//    is pure redundancy: expand writes only keys, compress is a pure
//    duplicate drop with no semiring add and no value scatter in the radix
//    passes, and conversion synthesizes the semiring's present-value
//    (1.0).  Because the key is the full global (row << 32) | col, the
//    format is legal for ANY bin geometry — no 32-bit fit constraint.
//
// The per-format byte cost feeds the roofline model through
// bytes_per_tuple(); telemetry reports which format a run used.
#pragma once

#include <cstdint>

#include "common/types.hpp"

namespace pbs::pb {

/// Physical layout of the expanded tuple stream (see file comment).
enum class TupleFormat {
  kWide,       ///< AoS {u64 key, f64 val}, 16 B/tuple
  kNarrow,     ///< SoA u32 bin-relative key + f64 val, 12 B/tuple
  kKeyOnly,    ///< u64 global key, no value array, 8 B/tuple (value-free)
};

const char* to_string(TupleFormat f);

struct Tuple {
  std::uint64_t key;
  value_t val;
};
static_assert(sizeof(Tuple) == kBytesPerTuple,
              "wide tuple must stay 16 bytes; the AI model depends on it");

/// Key-only format key type (the wide key, sans value array).
using wide_key_t = std::uint64_t;
inline constexpr std::size_t kBytesPerTupleKeyOnly = sizeof(wide_key_t);
static_assert(kBytesPerTupleKeyOnly == 8);

/// Narrow-format key type and its per-tuple stream cost.
using narrow_key_t = std::uint32_t;
inline constexpr std::size_t kBytesPerTupleNarrow =
    sizeof(narrow_key_t) + sizeof(value_t);
static_assert(kBytesPerTupleNarrow == 12);

/// The `b` of the arithmetic-intensity equations for the given stream
/// format — what each expanded tuple actually costs to move through DRAM.
constexpr std::size_t bytes_per_tuple(TupleFormat f) {
  switch (f) {
    case TupleFormat::kWide: return kBytesPerTuple;
    case TupleFormat::kNarrow: return kBytesPerTupleNarrow;
    case TupleFormat::kKeyOnly: return kBytesPerTupleKeyOnly;
  }
  return kBytesPerTuple;
}

inline std::uint64_t make_key(index_t row, index_t col) {
  return (static_cast<std::uint64_t>(static_cast<std::uint32_t>(row)) << 32) |
         static_cast<std::uint32_t>(col);
}

inline index_t key_row(std::uint64_t key) {
  return static_cast<index_t>(key >> 32);
}

inline index_t key_col(std::uint64_t key) {
  return static_cast<index_t>(key & 0xFFFFFFFFu);
}

/// Narrow-key codec.  `col_bits` is fixed per plan (ceil_log2(ncols) <= 31
/// since ncols is a positive int32); `local_row` is the bin-relative row
/// (BinLayout::local_row / global_row map it to and from the rowid).
inline narrow_key_t make_narrow_key(index_t local_row, index_t col,
                                    int col_bits) {
  return (static_cast<narrow_key_t>(local_row) << col_bits) |
         static_cast<narrow_key_t>(col);
}

inline index_t narrow_key_local_row(narrow_key_t key, int col_bits) {
  return static_cast<index_t>(key >> col_bits);
}

inline index_t narrow_key_col(narrow_key_t key, int col_bits) {
  return static_cast<index_t>(key &
                              ((narrow_key_t{1} << col_bits) - 1u));
}

}  // namespace pbs::pb
