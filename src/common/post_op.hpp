// Elementwise post-operations fused into SpGEMM output assembly.
//
// Iterative workloads shape the product the moment it exists: MCL prunes
// tiny entries and keeps the top-k per row right after every expansion,
// AMG rescales, filtering queries threshold.  Run separately, each of
// those is a full extra read+write of C — exactly the traffic the PB
// pipeline exists to avoid.  A PostOp travels inside the operation
// descriptor (SpGemmOp::post_op).  The PB pipeline applies it while the
// output is still in cache, in its per-bin filter stage (right after the
// fused mask, before convert ever sizes the CSR), so pb never
// materializes the unpruned C.  The hash family fuses it too: hash and
// hashvec shape each row in their row loop, masked or not, and an op
// that prunes runs there as one pass with no symbolic phase
// (spgemm/hash_impl.hpp).  The other algorithms build the full product,
// and their registry kernels (spgemm/registry.hpp) run apply_post_op
// over it as one parallel post-pass (spgemm/epilogue.hpp).
//
// The three knobs compose (all may be set at once) and apply in a fixed
// order chosen to match MCL's inflate-prune-select written as separate
// passes:
//
//   1. scale      v <- v * scale              (skipped when scale == 1)
//   2. prune      drop entries |v| < prune_threshold
//   3. top-k      keep the k largest-|v| entries per row
//                 (ties resolved toward smaller column ids, matching
//                 mtx::keep_top_k_per_row's selection; kept entries stay
//                 in ascending column order)
//
// Post-ops read and compare *values*, so they are rejected at plan time
// for value-free semirings (and the key-only tuple stream that carries
// them): there is no value to threshold.  This header sits in common/ so
// both the pb/ kernels and the spgemm/ descriptor layer can use it
// without an include cycle.
#pragma once

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "common/types.hpp"

namespace pbs {

struct PostOp {
  double scale = 1.0;            ///< multiply every surviving value
  double prune_threshold = 0.0;  ///< drop |v| < threshold (0 = off)
  index_t top_k = 0;             ///< keep k largest-|v| per row (0 = off)

  /// True when any knob departs from the identity.
  [[nodiscard]] bool active() const {
    return scale != 1.0 || prune_threshold > 0.0 || top_k > 0;
  }

  /// True when the op can drop entries (prune or top-k) — a pure scale
  /// keeps the pattern, which lets value-only fast paths stay valid.
  [[nodiscard]] bool drops_entries() const {
    return prune_threshold > 0.0 || top_k > 0;
  }

  friend bool operator==(const PostOp&, const PostOp&) = default;
};

/// The prune and top-k selection of one row segment [begin, end), whose
/// entry t has the (already scaled) absolute value abs_at(t): fills `sel`
/// with the survivors' (|v|, t) pairs in ascending t.  Top-k keeps the k
/// largest under (|v| desc, t asc); within a row, index order is column
/// order, so ties go to the smaller column, as in mtx::keep_top_k_per_row.
/// pb's per-bin filter and post_op_row (spgemm/epilogue.hpp) both select
/// through it, and each moves the survivors its own way.  `sel` is
/// caller scratch, reused across rows.
template <typename AbsAt>
void post_op_select(const PostOp& op, nnz_t begin, nnz_t end, AbsAt abs_at,
                    std::vector<std::pair<double, nnz_t>>& sel) {
  sel.clear();
  for (nnz_t t = begin; t < end; ++t) {
    const double av = abs_at(t);
    if (op.prune_threshold > 0 && av < op.prune_threshold) continue;
    sel.emplace_back(av, t);
  }
  if (op.top_k <= 0 || sel.size() <= static_cast<std::size_t>(op.top_k)) return;
  // The k-th entry under (|v| desc, t asc) is the cutoff; keeping
  // everything at or before it selects exactly k (indices are distinct,
  // so the order is total).
  const auto larger = [](const std::pair<double, nnz_t>& x,
                         const std::pair<double, nnz_t>& y) {
    return x.first > y.first || (x.first == y.first && x.second < y.second);
  };
  const auto kth = sel.begin() + (op.top_k - 1);
  std::nth_element(sel.begin(), kth, sel.end(), larger);
  const auto cut = *kth;
  sel.erase(std::remove_if(sel.begin(), sel.end(),
                           [&](const std::pair<double, nnz_t>& e) {
                             return larger(cut, e);
                           }),
            sel.end());
  std::sort(sel.begin(), sel.end(),
            [](const std::pair<double, nnz_t>& x,
               const std::pair<double, nnz_t>& y) {
              return x.second < y.second;
            });
}

/// Parses a CLI/wire spec: comma-separated `prune:T`, `topk:K`, `scale:X`
/// terms in any order, e.g. "prune:1e-5,topk:64".  Throws
/// std::invalid_argument on unknown terms, on a number that does not fill
/// its term, and on a value out of range: a negative or non-finite
/// threshold, a non-finite scale, a top-k outside [1, index_t's max].
inline PostOp parse_post_op(const std::string& spec) {
  // std::stod/stoll read a prefix; the whole term must be the number.
  const auto whole = [](std::size_t used, const std::string& val) {
    if (used != val.size()) throw std::invalid_argument("trailing characters");
  };
  PostOp op;
  std::size_t pos = 0;
  while (pos < spec.size()) {
    std::size_t end = spec.find(',', pos);
    if (end == std::string::npos) end = spec.size();
    const std::string term = spec.substr(pos, end - pos);
    const std::size_t colon = term.find(':');
    if (colon == std::string::npos) {
      throw std::invalid_argument("post-op term '" + term +
                                  "': expected name:value");
    }
    const std::string name = term.substr(0, colon);
    const std::string val = term.substr(colon + 1);
    try {
      std::size_t used = 0;
      if (name == "prune") {
        op.prune_threshold = std::stod(val, &used);
        whole(used, val);
        if (!(op.prune_threshold >= 0) || !std::isfinite(op.prune_threshold)) {
          throw std::invalid_argument("negative or non-finite");
        }
      } else if (name == "topk") {
        const long long k = std::stoll(val, &used);
        whole(used, val);
        if (k <= 0 || k > std::numeric_limits<index_t>::max()) {
          throw std::invalid_argument("out of range");
        }
        op.top_k = static_cast<index_t>(k);
      } else if (name == "scale") {
        op.scale = std::stod(val, &used);
        whole(used, val);
        if (!std::isfinite(op.scale)) throw std::invalid_argument("non-finite");
      } else {
        throw std::invalid_argument("unknown term");
      }
    } catch (const std::exception&) {
      throw std::invalid_argument("post-op term '" + term +
                                  "': expected prune:THRESH, topk:K or "
                                  "scale:X with a valid number");
    }
    pos = end + 1;
  }
  return op;
}

/// Round-trips through parse_post_op; "" for the identity op.
inline std::string post_op_to_string(const PostOp& op) {
  std::string s;
  const auto append = [&s](const std::string& term) {
    if (!s.empty()) s += ',';
    s += term;
  };
  if (op.scale != 1.0) append("scale:" + std::to_string(op.scale));
  if (op.prune_threshold > 0) {
    append("prune:" + std::to_string(op.prune_threshold));
  }
  if (op.top_k > 0) append("topk:" + std::to_string(op.top_k));
  return s;
}

}  // namespace pbs
