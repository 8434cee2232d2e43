// Matrix registry — the serving daemon's handle table.
//
// Iterative clients (MCL pruning epochs, BFS/BC frontiers, relaxation
// sweeps) multiply against the same operand structure for many requests;
// shipping the CSR payload every time would make the wire the bottleneck
// the paper's bandwidth analysis warns about.  The registry lets a client
// upload a matrix once, multiply by handle, and refresh only the numeric
// values in place — update_values keeps the structure (dims + nnz
// occupancy) frozen, which is exactly the contract the executor's
// value-only fast path (run_values_updated) trusts, so handle reuse hits
// that path across requests.
//
// Entries are shared_ptr<const CsrMatrix>: an in-flight multiply keeps
// its operand alive even if the client releases or refreshes the handle
// mid-request (copy-on-write — update_values installs a new matrix, it
// never mutates the published one).
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>

#include "matrix/csr.hpp"

namespace pbs::serve {

class MatrixRegistry {
 public:
  using MatrixPtr = std::shared_ptr<const mtx::CsrMatrix>;

  /// Stores a copy of m; handles start at 1 (0 means "inline operand" on
  /// the wire) and are never reused.
  std::uint64_t upload(mtx::CsrMatrix m);

  /// nullptr when the handle is unknown (expired or never issued).
  [[nodiscard]] MatrixPtr get(std::uint64_t handle) const;

  /// Replaces the values of a registered matrix, keeping its structure:
  /// m must match the stored matrix's dims, rowptr, AND colids exactly
  /// (so an update cannot introduce column ids the upload-time
  /// validation never saw).  Returns false for an unknown handle; throws
  /// std::invalid_argument on a structure mismatch, leaving the stored
  /// matrix unchanged.
  bool update_values(std::uint64_t handle, const mtx::CsrMatrix& m);

  /// Forgets the handle.  Returns false when it was not registered.
  bool release(std::uint64_t handle);

  [[nodiscard]] std::size_t size() const;

 private:
  mutable std::mutex mu_;
  std::map<std::uint64_t, MatrixPtr> table_;
  std::uint64_t next_ = 1;
};

}  // namespace pbs::serve
