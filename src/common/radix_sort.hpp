// Byte-skipping radix sorts for integer keys.
//
// Two families:
//
//  * radix_sort — in-place MSD ("American flag sort", McIlroy/Bostic/
//    McIlroy) over arrays of records with a key callable.  No scratch, not
//    stable; matrix/coo.cpp and spgemm/esc_column.cpp sort with it.
//
//  * radix_sort_lsd_kv / radix_sort_lsd_keys — LSD sorts over a
//    structure-of-arrays key array (plus a value array for _kv) into and
//    out of a scratch of the same length.  Stable.  These are the per-bin
//    sorts of PB-SpGEMM's tuple streams (paper Sec. III-D; pb/tuple.hpp):
//    _kv for the valued formats, _keys for the key-only format.  _kv also
//    sorts each output row of the hash kernels in place by column
//    (spgemm/hash_impl.hpp), so both kernel families share one sort.
//    _kv takes a stable insertion sort for inputs of at most 32 elements:
//    clearing and summing the 256-bucket byte histograms costs more than
//    insertion-sorting 32 keys that arrive as a few sorted runs, as a
//    hash row's do (one run per contributing row of B).  _keys always
//    takes the radix path.
//
// Both skip constant bytes: inside a PB bin only ~log2(rows_per_bin) row
// bits and log2(ncols) column bits of a key vary, so detecting the bytes
// that differ from a key-OR/AND sweep and sorting only those reproduces
// the paper's "squeeze keys into 4-byte integers, four passes"
// optimization with a single code path for any bin geometry.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <type_traits>
#include <utility>

namespace pbs {

namespace detail {

/// Insertion sort fallback for small buckets; sorts by key only.
template <typename Record, typename KeyFn>
void insertion_sort(Record* a, std::size_t n, KeyFn key) {
  for (std::size_t i = 1; i < n; ++i) {
    Record tmp = a[i];
    const auto k = key(tmp);
    std::size_t j = i;
    while (j > 0 && key(a[j - 1]) > k) {
      a[j] = a[j - 1];
      --j;
    }
    a[j] = tmp;
  }
}

/// One American-flag pass on byte `shift/8`, then recursion on sub-buckets.
template <typename Record, typename KeyFn>
void flag_sort_pass(Record* a, std::size_t n, int shift, std::uint64_t varying,
                    KeyFn key) {
  constexpr std::size_t kInsertionCutoff = 48;
  // Descend past bytes in which no key differs.
  while (shift >= 0 && ((varying >> shift) & 0xFFu) == 0) shift -= 8;
  if (shift < 0) return;
  if (n <= kInsertionCutoff) {
    insertion_sort(a, n, key);
    return;
  }

  std::array<std::size_t, 256> count{};
  for (std::size_t i = 0; i < n; ++i)
    ++count[(key(a[i]) >> shift) & 0xFFu];

  std::array<std::size_t, 256> bucket_start;  // running cursor per bucket
  std::array<std::size_t, 256> bucket_end;
  std::size_t sum = 0;
  for (int b = 0; b < 256; ++b) {
    bucket_start[b] = sum;
    sum += count[b];
    bucket_end[b] = sum;
  }

  // Permute in place: walk buckets, swap each misplaced record into the
  // bucket its key demands until every bucket's cursor hits its end.
  for (int b = 0; b < 256; ++b) {
    while (bucket_start[b] < bucket_end[b]) {
      Record r = a[bucket_start[b]];
      int dest = static_cast<int>((key(r) >> shift) & 0xFFu);
      while (dest != b) {
        std::swap(r, a[bucket_start[dest]++]);
        dest = static_cast<int>((key(r) >> shift) & 0xFFu);
      }
      a[bucket_start[b]++] = r;
    }
  }

  if (shift == 0) return;
  std::size_t begin = 0;
  for (int b = 0; b < 256; ++b) {
    const std::size_t len = count[b];
    if (len > 1) flag_sort_pass(a + begin, len, shift - 8, varying, key);
    begin += len;
  }
}

}  // namespace detail

/// Sorts `a[0..n)` ascending by `key(record)` (any unsigned-integer-valued
/// callable).  In place, O(passes * n); passes = number of bytes in which
/// keys actually differ.
template <typename Record, typename KeyFn>
void radix_sort(Record* a, std::size_t n, KeyFn key) {
  if (n < 2) return;
  // OR of pairwise XORs == (OR of keys) ^ ... simplest: track min/max bits
  // via OR and AND; a byte varies iff or_bits and and_bits differ there.
  std::uint64_t or_bits = 0, and_bits = ~std::uint64_t{0};
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint64_t k = key(a[i]);
    or_bits |= k;
    and_bits &= k;
  }
  const std::uint64_t varying = or_bits ^ and_bits;
  if (varying == 0) return;  // all keys equal
  detail::flag_sort_pass(a, n, 56, varying, key);
}

namespace detail {

/// At or below this length radix_sort_lsd_kv runs insertion_sort_kv,
/// which is stable like the radix passes.
inline constexpr std::size_t kLsdInsertionCutoff = 32;

/// Stable insertion sort of keys[0..n) carrying vals[i] along.
template <typename Key, typename Value>
void insertion_sort_kv(Key* keys, Value* vals, std::size_t n) {
  for (std::size_t i = 1; i < n; ++i) {
    const Key k = keys[i];
    const Value v = vals[i];
    std::size_t j = i;
    while (j > 0 && keys[j - 1] > k) {
      keys[j] = keys[j - 1];
      vals[j] = vals[j - 1];
      --j;
    }
    keys[j] = k;
    vals[j] = v;
  }
}

/// Shared skeleton of the SoA LSD sorts: byte-skipping histogram setup over
/// an unsigned key array — all byte histograms gathered in one read pass —
/// then `Scatter(byte_index, src_is_a)` once per varying byte.
/// `CopyToScratch(i)` copies element i and is invoked from inside the
/// histogram loop (which already streams every record) when the pass count
/// is odd, so the ping-pong starts in scratch and the final scatter lands
/// in the caller's arrays — no trailing copy-back pass regardless of
/// parity.
template <typename Key, typename CopyToScratch, typename Scatter>
void lsd_soa_driver(const Key* keys, std::size_t n, CopyToScratch copy,
                    Scatter scatter) {
  constexpr int kKeyBytes = static_cast<int>(sizeof(Key));

  Key or_bits = 0, and_bits = static_cast<Key>(~Key{0});
  for (std::size_t i = 0; i < n; ++i) {
    or_bits |= keys[i];
    and_bits &= keys[i];
  }
  const Key varying = or_bits ^ and_bits;
  if (varying == 0) return;

  int passes[kKeyBytes];
  int npasses = 0;
  for (int byte = 0; byte < kKeyBytes; ++byte) {
    if (((varying >> (8 * byte)) & 0xFFu) != 0) passes[npasses++] = byte;
  }
  const bool odd = (npasses % 2) != 0;

  std::array<std::array<std::uint32_t, 256>, kKeyBytes> hist{};
  for (std::size_t i = 0; i < n; ++i) {
    const Key k = keys[i];
    for (int p = 0; p < npasses; ++p)
      ++hist[passes[p]][(k >> (8 * passes[p])) & 0xFFu];
    if (odd) copy(i);
  }

  bool src_is_a = !odd;
  for (int p = 0; p < npasses; ++p) {
    const int byte = passes[p];
    std::array<std::uint32_t, 256> offset;
    std::uint32_t sum = 0;
    for (int b = 0; b < 256; ++b) {
      offset[b] = sum;
      sum += hist[byte][b];
    }
    scatter(byte, src_is_a, offset);
    src_is_a = !src_is_a;
  }
}

}  // namespace detail

/// Structure-of-arrays LSD radix sort: sorts `keys[0..n)` ascending while
/// keeping `vals[i]` paired with its key.  This is the sort of PB-SpGEMM's
/// valued tuple formats (pb/tuple.hpp): the bit-scan + histogram passes
/// touch only the key array — 4 of a narrow tuple's 12 bytes, 8 of a wide
/// one's 16 — and each scatter pass moves a key and its value.  The LSD
/// scatter's iterations are independent, so the core overlaps them,
/// unlike the in-place flag sort's displacement chains; PB-SpGEMM's bins
/// are sized to half of L2 so that bin + scratch stay cache-resident.
/// Stable.  `key_scratch` and `val_scratch` must each hold n elements.
template <typename Key, typename Value>
void radix_sort_lsd_kv(Key* keys, Value* vals, std::size_t n,
                       Key* key_scratch, Value* val_scratch) {
  static_assert(std::is_unsigned_v<Key>, "radix keys must be unsigned");
  if (n <= detail::kLsdInsertionCutoff) {
    detail::insertion_sort_kv(keys, vals, n);
    return;
  }

  detail::lsd_soa_driver(
      keys, n,
      [&](std::size_t i) {
        key_scratch[i] = keys[i];
        val_scratch[i] = vals[i];
      },
      [&](int byte, bool src_is_a, std::array<std::uint32_t, 256>& offset) {
        const Key* ks = src_is_a ? keys : key_scratch;
        const Value* vs = src_is_a ? vals : val_scratch;
        Key* kd = src_is_a ? key_scratch : keys;
        Value* vd = src_is_a ? val_scratch : vals;
        const int shift = 8 * byte;
        for (std::size_t i = 0; i < n; ++i) {
          const std::uint32_t pos = offset[(ks[i] >> shift) & 0xFFu]++;
          kd[pos] = ks[i];
          vd[pos] = vs[i];
        }
      });
}

/// Keys-only LSD radix sort: sorts `keys[0..n)` ascending with no payload
/// lane at all.  This is the sort of PB-SpGEMM's key-only tuple format
/// (pb/tuple.hpp): for a value-free semiring the stream carries nothing
/// but 8-byte keys, so each scatter pass moves 8 bytes instead of a wide
/// tuple's 16 — the value scatter is not merely cheap, it is gone.  Same
/// byte skipping, odd-pass parity handling and stability as
/// radix_sort_lsd_kv.  `scratch` must hold n elements.
template <typename Key>
void radix_sort_lsd_keys(Key* keys, std::size_t n, Key* scratch) {
  static_assert(std::is_unsigned_v<Key>, "radix keys must be unsigned");
  if (n < 2) return;

  detail::lsd_soa_driver(
      keys, n, [&](std::size_t i) { scratch[i] = keys[i]; },
      [&](int byte, bool src_is_a, std::array<std::uint32_t, 256>& offset) {
        const Key* ks = src_is_a ? keys : scratch;
        Key* kd = src_is_a ? scratch : keys;
        const int shift = 8 * byte;
        for (std::size_t i = 0; i < n; ++i)
          kd[offset[(ks[i] >> shift) & 0xFFu]++] = ks[i];
      });
}

}  // namespace pbs
