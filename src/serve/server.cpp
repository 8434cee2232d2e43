#include "serve/server.hpp"

#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <atomic>
#include <condition_variable>
#include <cstring>
#include <deque>
#include <mutex>
#include <set>
#include <sstream>
#include <thread>
#include <vector>

#include "common/errors.hpp"

namespace pbs::serve {

namespace {

int bind_unix_listener(const std::string& path) {
  if (path.empty() || path.size() >= sizeof(sockaddr_un{}.sun_path)) {
    throw std::runtime_error("serve: socket path empty or too long: '" +
                             path + "'");
  }
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) {
    throw std::runtime_error(std::string("serve: socket() failed: ") +
                             std::strerror(errno));
  }
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::strncpy(addr.sun_path, path.c_str(), sizeof(addr.sun_path) - 1);
  ::unlink(path.c_str());  // replace a stale socket file
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0 ||
      ::listen(fd, 64) < 0) {
    const std::string err = std::strerror(errno);
    ::close(fd);
    throw std::runtime_error("serve: cannot listen on '" + path +
                             "': " + err);
  }
  return fd;
}

/// Upper bound on the multiply's expanded-tuple bytes: flop(A·B) × the
/// 16 B wide-format tuple — the admission gate's one-pass estimate
/// (column counts of A folded against B's row lengths).
double expand_bytes_bound(const mtx::CsrMatrix& a, const mtx::CsrMatrix& b) {
  std::vector<nnz_t> col_nnz(static_cast<std::size_t>(a.ncols), 0);
  for (const index_t c : a.colids) ++col_nnz[static_cast<std::size_t>(c)];
  double flop = 0;
  const index_t k_max = std::min<index_t>(a.ncols, b.nrows);
  for (index_t k = 0; k < k_max; ++k) {
    flop += static_cast<double>(col_nnz[static_cast<std::size_t>(k)]) *
            static_cast<double>(b.row_nnz(k));
  }
  return 16.0 * flop;
}

}  // namespace

struct Server::Impl {
  explicit Impl(ServeOptions o) : opts(std::move(o)) {
    opts.worker_threads = std::max(opts.worker_threads, 1);
    // Wire ingress is untrusted: every decoded operand gets the strict
    // csr_validate sweep regardless of what the embedder configured.
    opts.executor.validate_inputs = true;
    ShardOptions so;
    so.rows = opts.shard_rows;
    so.cols = opts.shard_cols;
    so.pin_numa = opts.pin_shards;
    so.executor = opts.executor;
    router = std::make_unique<ShardRouter>(so);
    listen_fd = bind_unix_listener(opts.socket_path);
  }

  ~Impl() {
    stop();
    if (listen_fd >= 0) ::close(listen_fd);
    ::unlink(opts.socket_path.c_str());
  }

  // ---- lifecycle ----------------------------------------------------------

  void start() {
    bool expected = false;
    if (!started.compare_exchange_strong(expected, true)) return;
    stopping = false;
    accept_thread = std::thread([this] { accept_loop(); });
    workers.reserve(static_cast<std::size_t>(opts.worker_threads));
    for (int i = 0; i < opts.worker_threads; ++i) {
      workers.emplace_back([this] { worker_loop(); });
    }
  }

  void stop() {
    bool expected = false;
    if (!stopping.compare_exchange_strong(expected, true)) return;
    if (!started) return;
    // 1. Stop accepting (the poll() in the accept loop sees `stopping`),
    //    then close the listener and remove the socket file so late
    //    clients get an immediate connection error instead of sitting in
    //    a backlog nobody will ever accept from.
    if (accept_thread.joinable()) accept_thread.join();
    if (listen_fd >= 0) {
      ::close(listen_fd);
      listen_fd = -1;
    }
    ::unlink(opts.socket_path.c_str());
    // 2. Unblock workers idle in recv(): in-flight requests run to
    //    completion (only the read side is shut), their responses still
    //    go out, then the worker sees EOF and closes.
    {
      const std::lock_guard<std::mutex> lock(mu);
      for (const int fd : live_fds) ::shutdown(fd, SHUT_RD);
      // Connections still waiting in the queue get the same treatment
      // BEFORE the sentinels go in: a worker that pops one afterwards
      // sees immediate EOF instead of parking in recv() on an idle
      // client forever.  (Workers move an fd from queue to live_fds
      // under this mutex, so every accepted fd is in exactly one of the
      // two sets here.)
      for (const int fd : queue) {
        if (fd >= 0) ::shutdown(fd, SHUT_RD);
      }
      // Wake workers idle on the queue.
      for (int i = 0; i < opts.worker_threads; ++i) queue.push_back(-1);
    }
    cv.notify_all();
    for (std::thread& w : workers) {
      if (w.joinable()) w.join();
    }
    workers.clear();
    // 3. Connections accepted but never picked up.
    for (const int fd : queue) {
      if (fd >= 0) ::close(fd);
    }
    queue.clear();
    started = false;
  }

  void accept_loop() {
    while (!stopping) {
      pollfd pfd{listen_fd, POLLIN, 0};
      const int r = ::poll(&pfd, 1, 200);
      if (r <= 0) continue;  // timeout or EINTR: re-check stopping
      const int fd = ::accept(listen_fd, nullptr, nullptr);
      if (fd < 0) continue;
      {
        const std::lock_guard<std::mutex> lock(mu);
        ++stats.connections;
        queue.push_back(fd);
      }
      cv.notify_one();
    }
  }

  void worker_loop() {
    for (;;) {
      int fd = -1;
      {
        std::unique_lock<std::mutex> lock(mu);
        cv.wait(lock, [this] { return !queue.empty(); });
        fd = queue.front();
        queue.pop_front();
        // Queue -> live_fds under ONE critical section: stop() must see
        // every accepted fd in one of the two sets, or a connection
        // caught between them would never get its SHUT_RD.
        if (fd >= 0) live_fds.insert(fd);
      }
      if (fd < 0) return;  // stop sentinel
      serve_connection(fd);
      {
        const std::lock_guard<std::mutex> lock(mu);
        live_fds.erase(fd);
      }
      ::close(fd);
    }
  }

  // ---- per-connection request loop ----------------------------------------

  void serve_connection(int fd) {
    std::vector<std::uint8_t> payload;
    std::vector<std::uint8_t> response;
    for (;;) {
      try {
        if (!read_frame(fd, payload, opts.max_frame_bytes)) return;  // EOF
      } catch (const WireFormatError&) {
        // Framing is broken: the stream position is unrecoverable, so
        // answer best-effort and drop the connection.  The daemon itself
        // keeps serving.
        count_malformed();
        try {
          const auto err = encode_error(WireStatus::kMalformed,
                                        "malformed frame");
          write_frame(fd, err);
        } catch (...) {
        }
        return;
      } catch (const std::exception&) {
        return;  // transport error: peer gone
      }
      try {
        // `response` round-trips through handle_request so the multiply
        // path can recycle its (large) allocation across requests.
        response = handle_request(payload, std::move(response));
      } catch (const WireFormatError& e) {
        // The frame arrived intact but its payload did not decode; the
        // stream is still framed, so the connection survives.
        count_malformed();
        response = encode_error(WireStatus::kMalformed, e.what());
      }
      try {
        write_frame(fd, response);
      } catch (const FrameTooLargeError& e) {
        // A result >= 4 GiB does not fit the u32 length field.  Nothing
        // was written (the size check precedes the first send), so the
        // stream is still framed: answer with a typed error instead of
        // silently wrapping the length and desyncing the client.
        try {
          response = error(WireStatus::kMemoryBudget, e.what());
          write_frame(fd, response);
        } catch (const std::exception&) {
          return;
        }
      } catch (const std::exception&) {
        return;
      }
    }
  }

  std::vector<std::uint8_t> handle_request(
      std::span<const std::uint8_t> payload,
      std::vector<std::uint8_t> reuse = {}) {
    {
      const std::lock_guard<std::mutex> lock(mu);
      ++stats.requests;
    }
    WireReader r(payload);
    const auto type = static_cast<MsgType>(r.u8());
    switch (type) {
      case MsgType::kPing:
        r.expect_done();
        return encode_ok_empty();
      case MsgType::kTelemetry:
        r.expect_done();
        return encode_ok_text(telemetry_json());
      case MsgType::kUpload: {
        mtx::CsrMatrix m = r.csr();
        r.expect_done();
        const mtx::CsrValidation v = mtx::csr_validate(m);
        if (!v) return error(WireStatus::kValidation, v.error);
        return encode_ok_handle(registry.upload(std::move(m)));
      }
      case MsgType::kUpdateValues: {
        const std::uint64_t h = r.u64();
        const mtx::CsrMatrix m = r.csr();
        r.expect_done();
        // Same gate as kUpload: nothing unvalidated may enter the
        // registry, because handle_multiply trusts registry-held
        // operands as validated-at-upload and scatters by their column
        // ids before the executor's own checks run.
        const mtx::CsrValidation v = mtx::csr_validate(m);
        if (!v) return error(WireStatus::kValidation, v.error);
        try {
          if (!registry.update_values(h, m)) {
            return error(WireStatus::kUnknownHandle,
                         "unknown matrix handle " + std::to_string(h));
          }
        } catch (const std::invalid_argument& e) {
          return error(WireStatus::kValidation, e.what());
        }
        return encode_ok_empty();
      }
      case MsgType::kRelease: {
        const std::uint64_t h = r.u64();
        r.expect_done();
        if (!registry.release(h)) {
          return error(WireStatus::kUnknownHandle,
                       "unknown matrix handle " + std::to_string(h));
        }
        return encode_ok_empty();
      }
      case MsgType::kMultiply:
        return handle_multiply(decode_multiply(r), std::move(reuse));
      default:
        return error(WireStatus::kUnsupported,
                     "unknown message type " +
                         std::to_string(static_cast<int>(type)));
    }
  }

  std::vector<std::uint8_t> handle_multiply(MultiplyRequest req,
                                            std::vector<std::uint8_t> reuse) {
    // Resolve operands (registry handles keep in-flight matrices alive
    // even across a concurrent release/update).
    MatrixRegistry::MatrixPtr a_held, b_held;
    if (req.a_handle != 0) {
      a_held = registry.get(req.a_handle);
      if (a_held == nullptr) {
        return error(WireStatus::kUnknownHandle,
                     "unknown matrix handle " + std::to_string(req.a_handle));
      }
    }
    if (req.b_handle != 0 && !req.b_is_a) {
      b_held = registry.get(req.b_handle);
      if (b_held == nullptr) {
        return error(WireStatus::kUnknownHandle,
                     "unknown matrix handle " + std::to_string(req.b_handle));
      }
    }
    const mtx::CsrMatrix& a = a_held != nullptr ? *a_held : req.a;
    const mtx::CsrMatrix& b =
        req.b_is_a ? a : (b_held != nullptr ? *b_held : req.b);

    // Inline operands are validated HERE, before anything indexes by
    // their column ids — the admission estimate and the problem's CSC
    // conversion both scatter by colid, so an out-of-range id from the
    // wire must never reach them.  Registry-held operands were validated
    // at upload.
    if (a_held == nullptr && req.a_handle == 0) {
      const mtx::CsrValidation v = mtx::csr_validate(a);
      if (!v) return error(WireStatus::kValidation, "A: " + v.error);
    }
    if (!req.b_is_a && b_held == nullptr && req.b_handle == 0) {
      const mtx::CsrValidation v = mtx::csr_validate(b);
      if (!v) return error(WireStatus::kValidation, "B: " + v.error);
    }
    if (req.has_mask) {
      const mtx::CsrValidation v = mtx::csr_validate(req.mask);
      if (!v) return error(WireStatus::kValidation, "mask: " + v.error);
    }

    if (a.ncols != b.nrows) {
      return error(WireStatus::kValidation,
                   "operand dimensions differ: A is " +
                       std::to_string(a.nrows) + "x" +
                       std::to_string(a.ncols) + ", B is " +
                       std::to_string(b.nrows) + "x" +
                       std::to_string(b.ncols));
    }

    // Admission: concurrency gate, then the memory gate, both BEFORE the
    // CSC conversion — a shed request costs O(nnz) at most.
    if (opts.max_inflight > 0) {
      bool admitted = false;
      {
        const std::lock_guard<std::mutex> lock(mu);
        if (inflight < opts.max_inflight) {
          ++inflight;
          admitted = true;
        } else {
          ++stats.shed;
        }
      }
      if (!admitted) {
        return error(WireStatus::kOverloaded,
                     "at max_inflight=" + std::to_string(opts.max_inflight) +
                         " concurrent multiplies");
      }
    }
    struct InflightGuard {
      Impl* im;
      ~InflightGuard() {
        if (im != nullptr && im->opts.max_inflight > 0) {
          const std::lock_guard<std::mutex> lock(im->mu);
          --im->inflight;
        }
      }
    } guard{this};

    if (opts.admission_budget_bytes > 0) {
      const double need = expand_bytes_bound(a, b);
      if (need > static_cast<double>(opts.admission_budget_bytes)) {
        {
          const std::lock_guard<std::mutex> lock(mu);
          ++stats.shed;
        }
        return error(
            WireStatus::kMemoryBudget,
            "admission: expanded-tuple bound " +
                std::to_string(static_cast<std::uint64_t>(need)) +
                " B exceeds admission_budget_bytes=" +
                std::to_string(opts.admission_budget_bytes));
      }
    }
    {
      const std::lock_guard<std::mutex> lock(mu);
      ++stats.multiplies;
    }

    SpGemmOp op;
    op.algo = req.algo;
    op.semiring = req.semiring;
    op.complement = req.complement;
    if (req.has_mask) op.mask = &req.mask;
    // Fused epilogue rides the descriptor; an illegal combination (post-op
    // on a value-free semiring) throws std::invalid_argument below, which
    // maps to the typed kUnsupported reply.
    op.post_op = req.post_op;
    RunOptions ropts;
    const double deadline_ms =
        req.deadline_ms > 0 ? req.deadline_ms : opts.default_deadline_ms;
    if (deadline_ms > 0) {
      ropts.timeout =
          std::chrono::milliseconds(static_cast<long long>(deadline_ms));
    }

    try {
      const SpGemmProblem p = SpGemmProblem::multiply(a, b);
      RunInfo info;
      const mtx::CsrMatrix c =
          req.values_only ? router->run_values_updated(p, op, ropts, &info)
                          : router->run(p, op, ropts, &info);
      std::uint8_t flags = 0;
      if (info.cache_hit) flags |= kInfoCacheHit;
      if (info.value_only) flags |= kInfoValueOnly;
      if (info.used_pb) flags |= kInfoUsedPb;
      if (info.degraded) flags |= kInfoDegraded;
      return encode_ok_csr(flags, c, std::move(reuse));
    } catch (const DeadlineError& e) {
      return error(WireStatus::kDeadline, e.what());
    } catch (const CancelledError& e) {
      return error(WireStatus::kCancelled, e.what());
    } catch (const MemoryBudgetError& e) {
      return error(WireStatus::kMemoryBudget, e.what());
    } catch (const ValidationError& e) {
      return error(WireStatus::kValidation, e.what());
    } catch (const std::invalid_argument& e) {
      return error(WireStatus::kUnsupported, e.what());
    } catch (const std::logic_error& e) {
      return error(WireStatus::kUnsupported, e.what());
    } catch (const std::bad_alloc& e) {
      return error(WireStatus::kMemoryBudget, e.what());
    } catch (const std::exception& e) {
      // FaultInjectedError and everything unforeseen: THIS request
      // fails, the daemon survives.
      return error(WireStatus::kInternal, e.what());
    }
  }

  std::vector<std::uint8_t> error(WireStatus status,
                                  const std::string& message) {
    {
      const std::lock_guard<std::mutex> lock(mu);
      ++stats.errors;
    }
    return encode_error(status, message);
  }

  void count_malformed() {
    const std::lock_guard<std::mutex> lock(mu);
    ++stats.malformed;
    ++stats.errors;
  }

  // ---- telemetry ----------------------------------------------------------

  std::string telemetry_json() const {
    ServerStats server_stats;
    {
      const std::lock_guard<std::mutex> lock(mu);
      server_stats = stats;
    }
    std::ostringstream os;
    os << "{\"server\":{"
       << "\"connections\":" << server_stats.connections
       << ",\"requests\":" << server_stats.requests
       << ",\"multiplies\":" << server_stats.multiplies
       << ",\"errors\":" << server_stats.errors
       << ",\"shed\":" << server_stats.shed
       << ",\"malformed\":" << server_stats.malformed
       << ",\"registry_size\":" << registry.size()
       << ",\"shard_rows\":" << router->shard_rows()
       << ",\"shard_cols\":" << router->shard_cols() << "}";
    const auto emit = [&os](const ExecutorStats& e) {
      os << "{\"executes\":" << e.executes
         << ",\"cache_hits\":" << e.cache_hits
         << ",\"cache_misses\":" << e.cache_misses
         << ",\"value_only_hits\":" << e.value_only_hits
         << ",\"evictions\":" << e.evictions
         << ",\"cache_entries\":" << e.cache_entries
         << ",\"cache_bytes\":" << e.cache_bytes
         << ",\"bytes_evicted\":" << e.bytes_evicted
         << ",\"degraded_plans\":" << e.degraded_plans
         << ",\"degraded_runs\":" << e.degraded_runs
         << ",\"cancelled\":" << e.cancelled
         << ",\"stale_replans\":" << e.stale_replans << "}";
    };
    os << ",\"aggregate\":";
    emit(router->aggregate_stats());
    os << ",\"shards\":[";
    const std::vector<ExecutorStats> per_shard = router->shard_stats();
    for (std::size_t i = 0; i < per_shard.size(); ++i) {
      if (i > 0) os << ",";
      emit(per_shard[i]);
    }
    os << "]}";
    return os.str();
  }

  // ---- state --------------------------------------------------------------

  ServeOptions opts;
  std::unique_ptr<ShardRouter> router;
  MatrixRegistry registry;
  int listen_fd = -1;

  mutable std::mutex mu;
  std::condition_variable cv;
  std::deque<int> queue;     ///< accepted fds awaiting a worker (-1 = stop)
  std::set<int> live_fds;    ///< connections currently owned by workers
  ServerStats stats;
  int inflight = 0;          ///< admitted multiplies in flight

  std::atomic<bool> started{false};
  std::atomic<bool> stopping{false};
  std::thread accept_thread;
  std::vector<std::thread> workers;
};

Server::Server(ServeOptions opts)
    : impl_(std::make_unique<Impl>(std::move(opts))) {}

Server::~Server() = default;

void Server::start() { impl_->start(); }
void Server::stop() { impl_->stop(); }

bool Server::running() const {
  return impl_->started && !impl_->stopping;
}

const std::string& Server::socket_path() const {
  return impl_->opts.socket_path;
}

ServerStats Server::stats() const {
  const std::lock_guard<std::mutex> lock(impl_->mu);
  return impl_->stats;
}

std::string Server::telemetry_json() const { return impl_->telemetry_json(); }

}  // namespace pbs::serve
