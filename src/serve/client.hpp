// Blocking C++ client for the pbs_serve wire protocol.
//
// One Client owns one connection; requests on it are serial (the
// protocol is strict request/response per connection).  Open one Client
// per thread for concurrent traffic — the server's worker pool serves
// the connections in parallel.
//
//   serve::Client cli("/tmp/pbs_serve.sock");
//   const std::uint64_t h = cli.upload(a);          // ship A once
//   serve::Client::MultiplyOptions mo;
//   mtx::CsrMatrix c = cli.multiply(h, h, mo);      // iterate by handle
//   cli.update_values(h, a_rescaled);               // values-only refresh
//   mo.values_only = true;                          // hit the fast path
//   c = cli.multiply(h, h, mo);
//
// Server-side failures surface as ServeError carrying the typed
// WireStatus code; transport and framing problems surface as
// std::runtime_error / WireFormatError.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "serve/protocol.hpp"

namespace pbs::serve {

/// A non-kOk response: `status` is the stable wire code, what() the
/// server's message.
class ServeError : public std::runtime_error {
 public:
  ServeError(WireStatus status, const std::string& message)
      : std::runtime_error(std::string(wire_status_name(status)) + ": " +
                           message),
        status_(status) {}

  [[nodiscard]] WireStatus status() const noexcept { return status_; }

 private:
  WireStatus status_;
};

/// Per-multiply options (out-of-class so it is complete where Client's
/// default arguments need it).
struct MultiplyOptions {
  std::string algo = "auto";
  std::string semiring = "plus_times";
  const mtx::CsrMatrix* mask = nullptr;
  bool complement = false;
  /// Assert the operands' structures are unchanged since the previous
  /// multiply of this op — the server runs the value-only fast path.
  bool values_only = false;
  /// Per-request deadline; 0 defers to the server default.
  double deadline_ms = 0;
  /// Elementwise epilogue (scale/prune/top-k) applied server-side: fused
  /// into pb's per-bin filter and into the row loop of hash and hashvec,
  /// masked or not; a post-pass over the product after heap, spa and the
  /// other baselines.  Sent only when active (versioned wire field);
  /// a server that cannot honor it answers kUnsupported.
  PostOp post_op;
};

/// What the executor reported for a multiply, decoded from the
/// response's info flags.
struct MultiplyInfo {
  bool cache_hit = false;
  bool value_only = false;
  bool used_pb = false;
  bool degraded = false;
};

class Client {
 public:
  /// Connects to the daemon's Unix socket; throws std::runtime_error
  /// when the connection cannot be established.
  explicit Client(const std::string& socket_path);
  ~Client();
  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  using MultiplyOptions = serve::MultiplyOptions;
  using MultiplyInfo = serve::MultiplyInfo;

  void ping();

  /// Registers m server-side; returns the handle for multiply-by-handle.
  std::uint64_t upload(const mtx::CsrMatrix& m);

  /// Values-only refresh of an uploaded matrix (structure must match).
  void update_values(std::uint64_t handle, const mtx::CsrMatrix& m);

  void release(std::uint64_t handle);

  /// A·B with inline payloads.
  mtx::CsrMatrix multiply(const mtx::CsrMatrix& a, const mtx::CsrMatrix& b,
                          const MultiplyOptions& mo = {},
                          MultiplyInfo* info = nullptr);

  /// A·B by registry handles (uploaded earlier on any connection).
  mtx::CsrMatrix multiply(std::uint64_t a_handle, std::uint64_t b_handle,
                          const MultiplyOptions& mo = {},
                          MultiplyInfo* info = nullptr);

  /// A·A by one handle (the paper's squaring workloads) — B never
  /// crosses the wire.
  mtx::CsrMatrix square(std::uint64_t a_handle,
                        const MultiplyOptions& mo = {},
                        MultiplyInfo* info = nullptr);

  /// The server's telemetry JSON (aggregate + per-shard counters).
  std::string telemetry();

 private:
  mtx::CsrMatrix multiply_request(MultiplyRequest req, MultiplyInfo* info);
  /// Sends req and reads the response into rx_; throws ServeError on a
  /// non-kOk status.  Returns a reader over rx_ positioned after the
  /// status byte — valid until the next request on this client.
  WireReader roundtrip(const std::vector<std::uint8_t>& req);

  int fd_ = -1;
  /// Response payload buffer, recycled across requests so steady-state
  /// traffic with large results does not allocate per round-trip.
  std::vector<std::uint8_t> rx_;
};

}  // namespace pbs::serve
