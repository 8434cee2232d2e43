#include "serve/protocol.hpp"

#include <sys/socket.h>
#include <sys/uio.h>
#include <unistd.h>

#include <cerrno>
#include <cmath>
#include <cstring>
#include <limits>

#include "common/huge_pages.hpp"

namespace pbs::serve {

const char* wire_status_name(WireStatus s) noexcept {
  switch (s) {
    case WireStatus::kOk: return "ok";
    case WireStatus::kValidation: return "validation";
    case WireStatus::kDeadline: return "deadline";
    case WireStatus::kCancelled: return "cancelled";
    case WireStatus::kMemoryBudget: return "memory_budget";
    case WireStatus::kOverloaded: return "overloaded";
    case WireStatus::kMalformed: return "malformed";
    case WireStatus::kUnknownHandle: return "unknown_handle";
    case WireStatus::kUnsupported: return "unsupported";
    case WireStatus::kInternal: return "internal";
  }
  return "?";
}

// ---- writer ----------------------------------------------------------------

void WireWriter::str(const std::string& s) {
  u32(static_cast<std::uint32_t>(s.size()));
  const auto* b = reinterpret_cast<const std::uint8_t*>(s.data());
  buf_.insert(buf_.end(), b, b + s.size());
}

void WireWriter::csr(const mtx::CsrMatrix& m) {
  // One exact reservation: appending a multi-megabyte matrix must not
  // re-copy the buffer through the vector's growth doublings.
  reserve(16 + m.rowptr.size() * sizeof(nnz_t) +
          m.colids.size() * sizeof(index_t) + m.vals.size() * sizeof(value_t));
  u32(static_cast<std::uint32_t>(m.nrows));
  u32(static_cast<std::uint32_t>(m.ncols));
  u64(static_cast<std::uint64_t>(m.nnz()));
  raw(m.rowptr.data(), m.rowptr.size() * sizeof(nnz_t));
  raw(m.colids.data(), m.colids.size() * sizeof(index_t));
  raw(m.vals.data(), m.vals.size() * sizeof(value_t));
}

// ---- reader ----------------------------------------------------------------

std::string WireReader::str() {
  const std::uint32_t n = u32();
  need(n);
  std::string s(reinterpret_cast<const char*>(data_.data() + pos_), n);
  pos_ += n;
  return s;
}

mtx::CsrMatrix WireReader::csr() {
  const std::uint32_t nrows = u32();
  const std::uint32_t ncols = u32();
  const std::uint64_t nnz = u64();
  // Size the arrays from the REMAINING bytes before allocating: the
  // declared counts must fit in what the peer actually sent, so a hostile
  // header cannot provoke a giant allocation.  Each component is checked
  // on its own — a single summed bound would let an attacker-chosen nnz
  // near 2^64/12 wrap the total below remaining() and pass.
  const std::uint64_t rem = remaining();
  const std::uint64_t rowptr_bytes =
      (static_cast<std::uint64_t>(nrows) + 1) * sizeof(nnz_t);
  constexpr std::uint64_t kEntryBytes = sizeof(index_t) + sizeof(value_t);
  if (rowptr_bytes > rem || nnz > (rem - rowptr_bytes) / kEntryBytes) {
    throw WireFormatError(
        "wire: csr declares more data than the payload holds");
  }
  mtx::CsrMatrix m(static_cast<index_t>(nrows), static_cast<index_t>(ncols));
  std::memcpy(m.rowptr.data(), data_.data() + pos_,
              m.rowptr.size() * sizeof(nnz_t));
  pos_ += m.rowptr.size() * sizeof(nnz_t);
  if (m.rowptr.front() != 0 ||
      m.rowptr.back() != static_cast<nnz_t>(nnz)) {
    throw WireFormatError("wire: csr rowptr inconsistent with nnz");
  }
  for (std::size_t r = 1; r < m.rowptr.size(); ++r) {
    if (m.rowptr[r] < m.rowptr[r - 1]) {
      throw WireFormatError("wire: csr rowptr not monotone");
    }
  }
  resize_on_huge_pages(m.colids, static_cast<std::size_t>(nnz));
  resize_on_huge_pages(m.vals, static_cast<std::size_t>(nnz));
  std::memcpy(m.colids.data(), data_.data() + pos_,
              m.colids.size() * sizeof(index_t));
  pos_ += m.colids.size() * sizeof(index_t);
  std::memcpy(m.vals.data(), data_.data() + pos_,
              m.vals.size() * sizeof(value_t));
  pos_ += m.vals.size() * sizeof(value_t);
  return m;
}

void WireReader::expect_done() const {
  if (remaining() != 0) {
    throw WireFormatError("wire: " + std::to_string(remaining()) +
                          " trailing bytes after the last field");
  }
}

// ---- frame transport -------------------------------------------------------

namespace {

void write_all(int fd, const void* data, std::size_t n) {
  const auto* p = static_cast<const std::uint8_t*>(data);
  while (n > 0) {
    // MSG_NOSIGNAL: a peer that vanished mid-reply must surface as an
    // error on this connection, not SIGPIPE the whole daemon.
    const ssize_t w = ::send(fd, p, n, MSG_NOSIGNAL);
    if (w < 0) {
      if (errno == EINTR) continue;
      throw std::runtime_error(std::string("wire: send failed: ") +
                               std::strerror(errno));
    }
    p += w;
    n -= static_cast<std::size_t>(w);
  }
}

/// Reads exactly n bytes.  Returns false on EOF before the first byte
/// (only legal at a frame boundary); throws WireFormatError on EOF
/// mid-read.
bool read_all(int fd, void* data, std::size_t n, bool eof_ok) {
  auto* p = static_cast<std::uint8_t*>(data);
  std::size_t got = 0;
  while (got < n) {
    const ssize_t r = ::recv(fd, p + got, n - got, 0);
    if (r < 0) {
      if (errno == EINTR) continue;
      throw std::runtime_error(std::string("wire: recv failed: ") +
                               std::strerror(errno));
    }
    if (r == 0) {
      if (got == 0 && eof_ok) return false;
      throw WireFormatError("wire: connection closed mid-frame");
    }
    got += static_cast<std::size_t>(r);
  }
  return true;
}

}  // namespace

void write_frame(int fd, std::span<const std::uint8_t> payload) {
  if (payload.size() > std::numeric_limits<std::uint32_t>::max()) {
    // Before any send: the stream stays framed, the caller can still
    // answer on this connection.
    throw FrameTooLargeError("wire: payload of " +
                             std::to_string(payload.size()) +
                             " bytes does not fit the u32 frame length");
  }
  std::uint8_t header[8];
  const std::uint32_t magic = kFrameMagic;
  const auto len = static_cast<std::uint32_t>(payload.size());
  std::memcpy(header, &magic, 4);
  std::memcpy(header + 4, &len, 4);
  // Header and payload in one gathered send: the peer's blocking header
  // read never needs a separate wakeup.
  iovec iov[2] = {{header, sizeof(header)},
                  {const_cast<std::uint8_t*>(payload.data()), payload.size()}};
  msghdr msg{};
  msg.msg_iov = iov;
  msg.msg_iovlen = payload.empty() ? 1 : 2;
  for (;;) {
    const ssize_t w = ::sendmsg(fd, &msg, MSG_NOSIGNAL);
    if (w < 0) {
      if (errno == EINTR) continue;
      throw std::runtime_error(std::string("wire: send failed: ") +
                               std::strerror(errno));
    }
    std::size_t sent = static_cast<std::size_t>(w);
    if (sent >= sizeof(header) + payload.size()) return;
    // Partial gathered send: finish the remainder with plain sends.
    if (sent < sizeof(header)) {
      write_all(fd, header + sent, sizeof(header) - sent);
      sent = sizeof(header);
    }
    if (!payload.empty()) {
      write_all(fd, payload.data() + (sent - sizeof(header)),
                payload.size() - (sent - sizeof(header)));
    }
    return;
  }
}

bool read_frame(int fd, std::vector<std::uint8_t>& payload,
                std::size_t max_bytes) {
  std::uint8_t header[8];
  if (!read_all(fd, header, sizeof(header), /*eof_ok=*/true)) return false;
  std::uint32_t magic = 0, len = 0;
  std::memcpy(&magic, header, 4);
  std::memcpy(&len, header + 4, 4);
  if (magic != kFrameMagic) {
    throw WireFormatError("wire: bad frame magic");
  }
  if (len > max_bytes) {
    throw WireFormatError("wire: frame of " + std::to_string(len) +
                          " bytes exceeds the " + std::to_string(max_bytes) +
                          "-byte limit");
  }
  payload.resize(len);
  if (len > 0) (void)read_all(fd, payload.data(), len, /*eof_ok=*/false);
  return true;
}

// ---- typed messages --------------------------------------------------------

std::vector<std::uint8_t> encode_ping() {
  WireWriter w;
  w.u8(static_cast<std::uint8_t>(MsgType::kPing));
  return w.take();
}

std::vector<std::uint8_t> encode_telemetry_request() {
  WireWriter w;
  w.u8(static_cast<std::uint8_t>(MsgType::kTelemetry));
  return w.take();
}

std::vector<std::uint8_t> encode_upload(const mtx::CsrMatrix& m) {
  WireWriter w;
  w.u8(static_cast<std::uint8_t>(MsgType::kUpload));
  w.csr(m);
  return w.take();
}

std::vector<std::uint8_t> encode_update_values(std::uint64_t handle,
                                               const mtx::CsrMatrix& m) {
  WireWriter w;
  w.u8(static_cast<std::uint8_t>(MsgType::kUpdateValues));
  w.u64(handle);
  w.csr(m);
  return w.take();
}

std::vector<std::uint8_t> encode_release(std::uint64_t handle) {
  WireWriter w;
  w.u8(static_cast<std::uint8_t>(MsgType::kRelease));
  w.u64(handle);
  return w.take();
}

std::vector<std::uint8_t> encode_multiply(const MultiplyRequest& req) {
  WireWriter w;
  w.u8(static_cast<std::uint8_t>(MsgType::kMultiply));
  w.str(req.algo);
  w.str(req.semiring);
  std::uint8_t flags = 0;
  if (req.complement) flags |= kFlagComplement;
  if (req.has_mask) flags |= kFlagHasMask;
  if (req.values_only) flags |= kFlagValuesOnly;
  if (req.b_is_a) flags |= kFlagBIsA;
  // Versioned field: an identity post-op emits the pre-post-op body byte
  // for byte (protocol.hpp header comment).
  if (req.post_op.active()) flags |= kFlagHasPostOp;
  w.u8(flags);
  w.f64(req.deadline_ms);
  w.u64(req.a_handle);
  w.u64(req.b_handle);
  if (req.a_handle == 0) w.csr(req.a);
  if (req.b_handle == 0 && !req.b_is_a) w.csr(req.b);
  if (req.has_mask) w.csr(req.mask);
  if (req.post_op.active()) {
    w.f64(req.post_op.scale);
    w.f64(req.post_op.prune_threshold);
    w.u32(static_cast<std::uint32_t>(req.post_op.top_k));
  }
  return w.take();
}

MultiplyRequest decode_multiply(WireReader& r) {
  MultiplyRequest req;
  req.algo = r.str();
  req.semiring = r.str();
  const std::uint8_t flags = r.u8();
  req.complement = (flags & kFlagComplement) != 0;
  req.has_mask = (flags & kFlagHasMask) != 0;
  req.values_only = (flags & kFlagValuesOnly) != 0;
  req.b_is_a = (flags & kFlagBIsA) != 0;
  req.deadline_ms = r.f64();
  req.a_handle = r.u64();
  req.b_handle = r.u64();
  if (req.a_handle == 0) req.a = r.csr();
  if (req.b_handle == 0 && !req.b_is_a) req.b = r.csr();
  if (req.has_mask) req.mask = r.csr();
  if ((flags & kFlagHasPostOp) != 0) {
    req.post_op.scale = r.f64();
    req.post_op.prune_threshold = r.f64();
    // Hostile bytes: a threshold that is negative/NaN or a top_k past
    // index_t would desync the op's invariants downstream — reject in
    // the decoder like every other inconsistent field.
    const std::uint32_t k = r.u32();
    if (!std::isfinite(req.post_op.scale) ||
        !(req.post_op.prune_threshold >= 0) ||
        !std::isfinite(req.post_op.prune_threshold) ||
        k > static_cast<std::uint32_t>(
                std::numeric_limits<index_t>::max())) {
      throw WireFormatError("wire: invalid post-op fields");
    }
    req.post_op.top_k = static_cast<index_t>(k);
  }
  r.expect_done();
  return req;
}

std::vector<std::uint8_t> encode_ok_empty() {
  WireWriter w;
  w.u8(static_cast<std::uint8_t>(WireStatus::kOk));
  return w.take();
}

std::vector<std::uint8_t> encode_ok_handle(std::uint64_t handle) {
  WireWriter w;
  w.u8(static_cast<std::uint8_t>(WireStatus::kOk));
  w.u64(handle);
  return w.take();
}

std::vector<std::uint8_t> encode_ok_text(const std::string& text) {
  WireWriter w;
  w.u8(static_cast<std::uint8_t>(WireStatus::kOk));
  w.str(text);
  return w.take();
}

std::vector<std::uint8_t> encode_ok_csr(std::uint8_t info_flags,
                                        const mtx::CsrMatrix& c,
                                        std::vector<std::uint8_t> reuse) {
  WireWriter w(std::move(reuse));
  w.u8(static_cast<std::uint8_t>(WireStatus::kOk));
  w.u8(info_flags);
  w.csr(c);
  return w.take();
}

std::vector<std::uint8_t> encode_error(WireStatus status,
                                       const std::string& message) {
  WireWriter w;
  w.u8(static_cast<std::uint8_t>(status));
  w.str(message);
  return w.take();
}

}  // namespace pbs::serve
