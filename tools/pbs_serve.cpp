// pbs_serve — the SpGEMM serving daemon (serve/server.hpp) and its
// self-test driver.
//
//   pbs_serve serve --socket /tmp/pbs.sock [--workers 4]
//                   [--shard-rows 1] [--shard-cols 1] [--no-pin]
//                   [--max-inflight N] [--deadline-ms T]
//                   [--admission-budget-mb N] [--mem-budget-mb N]
//                   [--cache-capacity-mb M] [--max-frame-mb N]
//     Serves until SIGTERM/SIGINT, then drains in-flight requests and
//     exits 0, printing the final telemetry JSON.
//
//   pbs_serve smoke --socket /tmp/pbs.sock [--scale 13] [--ef 8]
//     Drives a running daemon through the client: ping, inline multiply
//     of an integer-valued ER operand checked bit-identical against an
//     in-process executor (at any team size: integer sums are exact in
//     every accumulation order), upload + multiply-by-handle, values-only
//     refresh hitting the fast path, deadline rejection as a typed
//     kDeadline code, and unknown-handle rejection.  Exits non-zero on
//     the first violation — the CI serve smoke job runs exactly this
//     against a daemon it then SIGTERMs.
#include <csignal>
#include <cstring>
#include <iostream>
#include <map>
#include <string>
#include <thread>

#include "matrix/convert.hpp"
#include "matrix/generate.hpp"
#include "serve/client.hpp"
#include "serve/server.hpp"
#include "spgemm/executor.hpp"

namespace {

using namespace pbs;

volatile std::sig_atomic_t g_stop = 0;
void on_signal(int) { g_stop = 1; }

class Args {
 public:
  Args(int argc, char** argv) {
    for (int i = 2; i < argc; ++i) {
      std::string arg = argv[i];
      if (arg.rfind("--", 0) != 0) continue;
      arg = arg.substr(2);
      if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
        kv_[arg] = argv[++i];
      } else {
        kv_[arg] = "1";  // value-less flag
      }
    }
  }
  [[nodiscard]] std::string get(const std::string& k,
                                const std::string& fallback) const {
    const auto it = kv_.find(k);
    return it == kv_.end() ? fallback : it->second;
  }
  [[nodiscard]] double num(const std::string& k, double fallback) const {
    const auto it = kv_.find(k);
    return it == kv_.end() ? fallback : std::stod(it->second);
  }
  [[nodiscard]] bool has(const std::string& k) const {
    return kv_.count(k) > 0;
  }

 private:
  std::map<std::string, std::string> kv_;
};

int cmd_serve(const Args& args) {
  serve::ServeOptions so;
  so.socket_path = args.get("socket", "/tmp/pbs_serve.sock");
  so.worker_threads = static_cast<int>(args.num("workers", 4));
  so.shard_rows = static_cast<int>(args.num("shard-rows", 1));
  so.shard_cols = static_cast<int>(args.num("shard-cols", 1));
  so.pin_shards = !args.has("no-pin");
  so.max_inflight = static_cast<int>(args.num("max-inflight", 0));
  so.default_deadline_ms = args.num("deadline-ms", 0);
  const double adm_mb = args.num("admission-budget-mb", 0);
  if (adm_mb > 0) {
    so.admission_budget_bytes =
        static_cast<std::size_t>(adm_mb * 1024.0 * 1024.0);
  }
  const double mem_mb = args.num("mem-budget-mb", 0);
  if (mem_mb > 0) {
    so.executor.mem_budget_bytes =
        static_cast<std::size_t>(mem_mb * 1024.0 * 1024.0);
  }
  const double cache_mb = args.num("cache-capacity-mb", 0);
  if (cache_mb > 0) {
    so.executor.cache_capacity_bytes =
        static_cast<std::size_t>(cache_mb * 1024.0 * 1024.0);
  }
  const double frame_mb = args.num("max-frame-mb", 0);
  if (frame_mb > 0) {
    so.max_frame_bytes =
        static_cast<std::size_t>(frame_mb * 1024.0 * 1024.0);
  }

  serve::Server server(std::move(so));
  std::signal(SIGTERM, on_signal);
  std::signal(SIGINT, on_signal);
  server.start();
  std::cout << "pbs_serve: listening on " << server.socket_path() << " ("
            << args.num("workers", 4) << " workers, "
            << static_cast<int>(args.num("shard-rows", 1)) << "x"
            << static_cast<int>(args.num("shard-cols", 1)) << " shards)"
            << std::endl;
  while (g_stop == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
  }
  std::cout << "pbs_serve: draining..." << std::endl;
  server.stop();
  std::cout << server.telemetry_json() << std::endl;
  return 0;
}

#define SMOKE_CHECK(cond, what)                                   \
  do {                                                            \
    if (!(cond)) {                                                \
      std::cerr << "smoke FAILED: " << what << std::endl;         \
      return 1;                                                   \
    }                                                             \
  } while (0)

int cmd_smoke(const Args& args) {
  const std::string path = args.get("socket", "/tmp/pbs_serve.sock");
  const int scale = static_cast<int>(args.num("scale", 13));
  const double ef = args.num("ef", 8);

  serve::Client cli(path);
  cli.ping();

  // Integer values in [1, 8]: the smoke's equal_exact checks then hold
  // whatever order any kernel adds a duplicate sum in.
  mtx::CooMatrix coo =
      mtx::generate_er(mtx::RandomScale{scale, ef}, /*seed=*/7);
  mtx::make_values_exact(coo);
  const mtx::CsrMatrix a = mtx::coo_to_csr(coo);
  const SpGemmProblem p = SpGemmProblem::square(a);
  SpGemmOp op;
  op.algo = "pb";
  SpGemmExecutor local;
  const mtx::CsrMatrix expect = local.run(p, op);

  serve::Client::MultiplyOptions mo;
  mo.algo = "pb";

  // Inline multiply: bit-identical to the in-process executor.
  const mtx::CsrMatrix c1 = cli.multiply(a, a, mo);
  SMOKE_CHECK(mtx::equal_exact(c1, expect),
              "inline multiply differs from the local executor");

  // Handle reuse: upload once, square by handle twice — the second run
  // must hit the server-side plan cache.
  const std::uint64_t h = cli.upload(a);
  serve::Client::MultiplyInfo info;
  const mtx::CsrMatrix c2 = cli.square(h, mo, &info);
  SMOKE_CHECK(mtx::equal_exact(c2, expect), "square-by-handle differs");
  const mtx::CsrMatrix c3 = cli.square(h, mo, &info);
  SMOKE_CHECK(mtx::equal_exact(c3, expect), "cached square differs");
  SMOKE_CHECK(info.cache_hit, "second square-by-handle missed the cache");

  // Values-only refresh through the registry hits the fast path.
  mtx::CsrMatrix a2 = a;
  for (value_t& v : a2.vals) v *= 2.0;
  cli.update_values(h, a2);
  mo.values_only = true;
  const mtx::CsrMatrix c4 = cli.square(h, mo, &info);
  mo.values_only = false;
  SMOKE_CHECK(info.value_only, "values-only run did not take the fast path");
  SpGemmProblem p2 = SpGemmProblem::square(a2);
  SMOKE_CHECK(mtx::equal_exact(c4, local.run_values_updated(p2, op)),
              "values-only result differs");

  // Deadline rejection arrives as the typed kDeadline code.
  bool deadline_hit = false;
  try {
    mo.deadline_ms = 1;
    (void)cli.square(h, mo);
  } catch (const serve::ServeError& e) {
    deadline_hit = e.status() == serve::WireStatus::kDeadline;
  }
  mo.deadline_ms = 0;
  SMOKE_CHECK(deadline_hit, "1 ms deadline not rejected with kDeadline");

  // ... and the daemon still serves correctly afterwards.
  const mtx::CsrMatrix c5 = cli.square(h, mo);
  SMOKE_CHECK(mtx::equal_exact(c5, c4), "post-deadline square differs");

  bool unknown_hit = false;
  try {
    (void)cli.square(999999, mo);
  } catch (const serve::ServeError& e) {
    unknown_hit = e.status() == serve::WireStatus::kUnknownHandle;
  }
  SMOKE_CHECK(unknown_hit, "bogus handle not rejected with kUnknownHandle");

  cli.release(h);
  const std::string telemetry = cli.telemetry();
  SMOKE_CHECK(telemetry.find("\"value_only_hits\"") != std::string::npos,
              "telemetry JSON missing executor counters");

  std::cout << "smoke OK (" << telemetry.size() << " B telemetry)"
            << std::endl;
  return 0;
}

void usage() {
  std::cout
      << "pbs_serve <serve|smoke> [options]\n"
         "  serve  --socket PATH [--workers N] [--shard-rows R]\n"
         "         [--shard-cols C] [--no-pin] [--max-inflight N]\n"
         "         [--deadline-ms T] [--admission-budget-mb N]\n"
         "         [--mem-budget-mb N] [--cache-capacity-mb M]\n"
         "         [--max-frame-mb N]\n"
         "  smoke  --socket PATH [--scale N] [--ef F]\n";
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    usage();
    return 2;
  }
  const std::string cmd = argv[1];
  const Args args(argc, argv);
  try {
    if (cmd == "serve") return cmd_serve(args);
    if (cmd == "smoke") return cmd_smoke(args);
  } catch (const std::exception& e) {
    std::cerr << "pbs_serve: " << e.what() << std::endl;
    return 1;
  }
  usage();
  return 2;
}
