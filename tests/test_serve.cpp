// Serving subsystem: wire-protocol round-trips (including malformed and
// truncated frames), shard-merge bit-identity against a single executor
// across semirings and tile grids, typed error codes over the wire
// (deadline, admission budget, validation, unknown handle, unsupported
// algo, overload shedding), matrix-handle reuse hitting the value-only
// fast path, and an injected-fault request that fails alone while the
// daemon keeps serving bit-identically.
#include <gtest/gtest.h>

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include "common/errors.hpp"
#include "common/fault.hpp"
#include "matrix/ops.hpp"
#include "serve/client.hpp"
#include "serve/protocol.hpp"
#include "serve/registry.hpp"
#include "serve/server.hpp"
#include "serve/shard.hpp"
#include "spgemm/executor.hpp"
#include "test_util.hpp"

namespace pbs {
namespace {

using namespace std::chrono_literals;

/// Clears the global injector on entry and exit, so a failed assertion
/// can never leak an armed fault into the next test.
struct FaultGuard {
  FaultGuard() { FaultInjector::reset(); }
  ~FaultGuard() { FaultInjector::reset(); }
};

/// A socket path unique to this process AND this call — tests never
/// collide with each other or with a concurrently running suite.
std::string unique_socket_path() {
  static std::atomic<int> counter{0};
  return "/tmp/pbs_test_" + std::to_string(::getpid()) + "_" +
         std::to_string(counter.fetch_add(1)) + ".sock";
}

/// An in-process daemon for one test: constructs, starts, and on scope
/// exit drains via the same stop() path SIGTERM uses.
struct TestServer {
  explicit TestServer(serve::ServeOptions opts = {}) {
    opts.socket_path = unique_socket_path();
    opts.pin_shards = false;  // irrelevant to correctness, skip affinity
    if (opts.worker_threads == 4) opts.worker_threads = 2;
    server = std::make_unique<serve::Server>(std::move(opts));
    server->start();
  }
  [[nodiscard]] const std::string& path() const {
    return server->socket_path();
  }
  std::unique_ptr<serve::Server> server;
};

mtx::CsrMatrix local_run(const mtx::CsrMatrix& a, const mtx::CsrMatrix& b,
                         const SpGemmOp& op) {
  SpGemmExecutor exec;
  return exec.run(SpGemmProblem::multiply(a, b), op);
}

/// A structurally broken CSR that survives wire decoding (monotone
/// rowptr, consistent counts) but fails csr_validate: column id out of
/// range.  Distinguishes the kMalformed layer from the kValidation layer.
mtx::CsrMatrix decodable_but_invalid_csr() {
  mtx::CsrMatrix m;
  m.nrows = 2;
  m.ncols = 2;
  m.rowptr = {0, 1, 1};
  m.colids = {5};  // >= ncols
  m.vals = {1.0};
  return m;
}

// ---- protocol unit tests (no socket) --------------------------------------

TEST(ServeProtocol, MultiplyRequestRoundTripsThroughTheWireFormat) {
  const mtx::CsrMatrix a = testutil::exact_er(60, 40, 4.0, 91);
  const mtx::CsrMatrix b = testutil::exact_er(40, 50, 4.0, 92);
  const mtx::CsrMatrix m = testutil::exact_er(60, 50, 2.0, 93);

  serve::MultiplyRequest req;
  req.algo = "pb";
  req.semiring = "min_plus";
  req.complement = true;
  req.has_mask = true;
  req.deadline_ms = 12.5;
  req.a = a;
  req.b = b;
  req.mask = m;
  const std::vector<std::uint8_t> bytes = serve::encode_multiply(req);

  serve::WireReader r(bytes);
  ASSERT_EQ(r.u8(), static_cast<std::uint8_t>(serve::MsgType::kMultiply));
  const serve::MultiplyRequest back = serve::decode_multiply(r);
  r.expect_done();

  EXPECT_EQ(back.algo, "pb");
  EXPECT_EQ(back.semiring, "min_plus");
  EXPECT_TRUE(back.complement);
  EXPECT_TRUE(back.has_mask);
  EXPECT_FALSE(back.values_only);
  EXPECT_FALSE(back.b_is_a);
  EXPECT_DOUBLE_EQ(back.deadline_ms, 12.5);
  EXPECT_EQ(back.a_handle, 0u);
  EXPECT_TRUE(mtx::equal_exact(back.a, a));
  EXPECT_TRUE(mtx::equal_exact(back.b, b));
  EXPECT_TRUE(mtx::equal_exact(back.mask, m));
}

TEST(ServeProtocol, HandleRequestsCarryNoMatrixPayload) {
  serve::MultiplyRequest req;
  req.a_handle = 7;
  req.b_is_a = true;
  req.values_only = true;
  const std::vector<std::uint8_t> bytes = serve::encode_multiply(req);

  serve::WireReader r(bytes);
  ASSERT_EQ(r.u8(), static_cast<std::uint8_t>(serve::MsgType::kMultiply));
  const serve::MultiplyRequest back = serve::decode_multiply(r);
  r.expect_done();
  EXPECT_EQ(back.a_handle, 7u);
  EXPECT_TRUE(back.b_is_a);
  EXPECT_TRUE(back.values_only);
  EXPECT_EQ(back.a.nrows, 0);
  EXPECT_EQ(back.b.nrows, 0);
}

// The post-op fields are versioned by kFlagHasPostOp: an inactive
// post-op adds no bytes (a pre-post-op client's body is reproduced byte
// for byte), an active one appends exactly the three trailing fields and
// round-trips.
TEST(ServeProtocol, PostOpRoundTripsAndStaysOffTheWireWhenInactive) {
  serve::MultiplyRequest req;
  req.a_handle = 3;
  req.b_handle = 4;
  const std::vector<std::uint8_t> without = serve::encode_multiply(req);

  req.post_op.scale = 2.0;
  req.post_op.prune_threshold = 1e-4;
  req.post_op.top_k = 8;
  const std::vector<std::uint8_t> with = serve::encode_multiply(req);
  EXPECT_EQ(with.size(),
            without.size() + 2 * sizeof(double) + sizeof(std::uint32_t));

  serve::WireReader r(with);
  ASSERT_EQ(r.u8(), static_cast<std::uint8_t>(serve::MsgType::kMultiply));
  const serve::MultiplyRequest back = serve::decode_multiply(r);
  r.expect_done();
  EXPECT_EQ(back.post_op, req.post_op);

  serve::WireReader r2(without);
  ASSERT_EQ(r2.u8(), static_cast<std::uint8_t>(serve::MsgType::kMultiply));
  const serve::MultiplyRequest back2 = serve::decode_multiply(r2);
  r2.expect_done();
  EXPECT_FALSE(back2.post_op.active());
}

// Hostile post-op bytes (non-finite scale, negative threshold) fail wire
// decoding — they never reach the executor as a live descriptor.
TEST(ServeProtocol, HostilePostOpFieldsAreRejectedAtDecode) {
  serve::MultiplyRequest req;
  req.a_handle = 1;
  req.b_handle = 1;
  req.post_op.scale = std::numeric_limits<double>::quiet_NaN();
  const std::vector<std::uint8_t> bytes = serve::encode_multiply(req);

  serve::WireReader r(bytes);
  ASSERT_EQ(r.u8(), static_cast<std::uint8_t>(serve::MsgType::kMultiply));
  EXPECT_THROW((void)serve::decode_multiply(r), serve::WireFormatError);
}

// Every strict prefix of a valid body must throw, never read past the
// end or return a half-decoded request.
TEST(ServeProtocol, TruncatedPayloadsThrowAtEveryPrefixLength) {
  serve::MultiplyRequest req;
  req.a = testutil::exact_er(20, 20, 3.0, 94);
  req.b = req.a;
  const std::vector<std::uint8_t> bytes = serve::encode_multiply(req);
  ASSERT_GT(bytes.size(), 2u);

  for (std::size_t len = 1; len < bytes.size(); ++len) {
    serve::WireReader r(std::span(bytes.data(), len));
    EXPECT_THROW(
        {
          (void)r.u8();
          serve::MultiplyRequest parsed = serve::decode_multiply(r);
          r.expect_done();  // shorter frames must not parse cleanly
          (void)parsed;
        },
        serve::WireFormatError)
        << "prefix length " << len;
  }
}

TEST(ServeProtocol, InconsistentCsrBlobsAreRejected) {
  // Non-monotone rowptr.
  {
    serve::WireWriter w;
    w.u32(2);  // nrows
    w.u32(2);  // ncols
    w.u64(2);  // nnz
    for (const std::int64_t rp : {0, 2, 1}) w.u64(static_cast<std::uint64_t>(rp));
    for (int i = 0; i < 2; ++i) w.u32(0);  // colids
    for (int i = 0; i < 2; ++i) w.f64(1.0);
    const std::vector<std::uint8_t> bytes = w.take();
    serve::WireReader r(bytes);
    EXPECT_THROW((void)r.csr(), serve::WireFormatError);
  }
  // rowptr.back() disagrees with nnz.
  {
    serve::WireWriter w;
    w.u32(1);
    w.u32(4);
    w.u64(3);
    w.u64(0);
    w.u64(2);  // back() = 2 != nnz = 3
    for (int i = 0; i < 3; ++i) w.u32(static_cast<std::uint32_t>(i));
    for (int i = 0; i < 3; ++i) w.f64(1.0);
    const std::vector<std::uint8_t> bytes = w.take();
    serve::WireReader r(bytes);
    EXPECT_THROW((void)r.csr(), serve::WireFormatError);
  }
  // Declared nnz far beyond the bytes present: the reader must refuse
  // before sizing any allocation from it.
  {
    serve::WireWriter w;
    w.u32(1);
    w.u32(4);
    w.u64(std::uint64_t{1} << 40);
    const std::vector<std::uint8_t> bytes = w.take();
    serve::WireReader r(bytes);
    EXPECT_THROW((void)r.csr(), serve::WireFormatError);
  }
}

// Regression: the reader's size check must bound each component on its
// own — a single summed bound can be wrapped by an attacker-chosen nnz.
// Both blobs below pass a naive `rowptr_bytes + 12*nnz <= remaining`
// after uint64 wraparound; accepting either means sizing an allocation
// (or a memcpy) in the exabyte range from hostile header bytes.
TEST(ServeProtocol, OverflowingDeclaredCountsCannotWrapTheSizeCheck) {
  // 12 * 1537228672809129302 == 2^64 + 8, so the naive total is
  // 16 (rowptr) + 8 == 24 <= the 24 bytes present.
  constexpr std::uint64_t kWrapNnz = 1537228672809129302ull;
  {
    serve::WireWriter w;
    w.u32(1);  // nrows
    w.u32(1);  // ncols
    w.u64(kWrapNnz);
    w.u64(0);         // rowptr[0]
    w.u64(kWrapNnz);  // rowptr[1]: consistent with nnz if it got this far
    w.u64(0);         // pad remaining up to the wrapped total
    const std::vector<std::uint8_t> bytes = w.take();
    serve::WireReader r(bytes);
    EXPECT_THROW((void)r.csr(), serve::WireFormatError);
  }
  // Same wrap reached through the rowptr term: nrows = 2^32-1 puts 2^35
  // rowptr bytes in the total and 12*nnz tips it to 2^64 + 4.
  {
    serve::WireWriter w;
    w.u32(0xFFFFFFFFu);  // nrows
    w.u32(1);            // ncols
    w.u64(1537228669945817771ull);
    w.u64(0);  // 8 bytes remaining >= the wrapped total of 4
    const std::vector<std::uint8_t> bytes = w.take();
    serve::WireReader r(bytes);
    EXPECT_THROW((void)r.csr(), serve::WireFormatError);
  }
}

// Regression: a payload that does not fit the u32 frame-length field
// must throw — silently truncating the length desyncs the stream.  The
// check precedes every send and every payload access, so the span's
// (deliberately lying) extent is never dereferenced and no byte leaks
// onto the wire.
TEST(ServeProtocol, OversizedPayloadThrowsBeforeAnyByteIsSent) {
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  std::uint8_t byte = 0;
  const std::span<const std::uint8_t> oversized(&byte, std::size_t{1} << 32);
  EXPECT_THROW(serve::write_frame(fds[0], oversized),
               serve::FrameTooLargeError);
  std::uint8_t probe = 0;
  EXPECT_EQ(::recv(fds[1], &probe, 1, MSG_DONTWAIT), -1);
  ::close(fds[0]);
  ::close(fds[1]);
}

TEST(ServeProtocol, TrailingBytesAreAProtocolViolation) {
  std::vector<std::uint8_t> bytes = serve::encode_ping();
  bytes.push_back(0xAB);
  serve::WireReader r(bytes);
  (void)r.u8();
  EXPECT_THROW(r.expect_done(), serve::WireFormatError);
}

// ---- registry unit tests --------------------------------------------------

TEST(ServeRegistry, UploadUpdateReleaseLifecycle) {
  serve::MatrixRegistry reg;
  const mtx::CsrMatrix a = testutil::exact_er(30, 30, 3.0, 95);
  const std::uint64_t h = reg.upload(a);
  ASSERT_NE(reg.get(h), nullptr);
  EXPECT_TRUE(mtx::equal_exact(*reg.get(h), a));

  // Values-only refresh is copy-on-write: a reader holding the old
  // snapshot keeps it.
  const auto old_snapshot = reg.get(h);
  mtx::CsrMatrix a2 = a;
  for (value_t& v : a2.vals) v += 1.0;
  EXPECT_TRUE(reg.update_values(h, a2));
  EXPECT_TRUE(mtx::equal_exact(*reg.get(h), a2));
  EXPECT_TRUE(mtx::equal_exact(*old_snapshot, a));

  // Structure drift is rejected, unknown handles report false.
  const mtx::CsrMatrix other = testutil::exact_er(30, 30, 3.0, 96);
  EXPECT_THROW((void)reg.update_values(h, other), std::invalid_argument);
  EXPECT_FALSE(reg.update_values(h + 100, a2));

  EXPECT_TRUE(reg.release(h));
  EXPECT_EQ(reg.get(h), nullptr);
  EXPECT_FALSE(reg.release(h));
  // Handles are never reused.
  EXPECT_GT(reg.upload(a), h);
}

// Regression: colids are frozen structure too.  An "update" that keeps
// the dims and per-row occupancy but swaps in different column ids must
// be rejected — consumers trust registry entries as validated-at-upload,
// so an update may never introduce ids that validation did not see.
TEST(ServeRegistry, UpdateValuesRejectsChangedColids) {
  serve::MatrixRegistry reg;
  mtx::CsrMatrix a;
  a.nrows = 2;
  a.ncols = 4;
  a.rowptr = {0, 2, 3};
  a.colids = {0, 2, 1};
  a.vals = {1.0, 2.0, 3.0};
  const std::uint64_t h = reg.upload(a);

  mtx::CsrMatrix same_occupancy = a;
  same_occupancy.colids = {0, 3, 1};  // same per-row counts, new column
  EXPECT_THROW((void)reg.update_values(h, same_occupancy),
               std::invalid_argument);
  EXPECT_TRUE(mtx::equal_exact(*reg.get(h), a));
}

// ---- shard router: bit-identity across grids and semirings ----------------

// The k-dimension is never split, so every tile preserves each output
// entry's accumulation order — the sharded product must be bit-identical
// (equal_exact, not tolerance) to a single executor for every grid and
// semiring, in both the Gustavson and PB kernels.
TEST(ServeShard, TiledRouteIsBitIdenticalAcrossGridsAndSemirings) {
  // R×1 grids are the paper's Sec. V-D row-partitioned variant; the tiny
  // operand also runs with more row blocks than rows (empty blocks).
  const mtx::CsrMatrix er_a = testutil::exact_er(210, 170, 5.0, 97);
  const mtx::CsrMatrix er_b = testutil::exact_er(170, 190, 5.0, 98);
  const mtx::CsrMatrix rmat = testutil::exact_rmat(8, 8.0, 82);
  const mtx::CsrMatrix tiny = testutil::exact_er(5, 5, 2.0, 85);
  const mtx::CsrMatrix empty = mtx::coo_to_csr(mtx::CooMatrix(40, 40));
  const mtx::CsrMatrix rect_a = testutil::exact_er(120, 60, 3.0, 86);
  const mtx::CsrMatrix rect_b = testutil::exact_er(60, 90, 3.0, 87);
  const std::vector<std::pair<std::string, SpGemmProblem>> problems = {
      {"er 210x170 * 170x190", SpGemmProblem::multiply(er_a, er_b)},
      {"rmat scale 8 squared", SpGemmProblem::square(rmat)},
      {"5x5 squared", SpGemmProblem::square(tiny)},
      {"empty 40x40 squared", SpGemmProblem::square(empty)},
      {"120x60 * 60x90", SpGemmProblem::multiply(rect_a, rect_b)},
  };

  for (const auto& [name, p] : problems) {
    std::vector<std::pair<int, int>> grids = {
        {1, 2}, {2, 1}, {2, 2}, {3, 2}, {3, 1}, {7, 1}, {16, 1}};
    if (p.a_csr.nrows < 64) grids.emplace_back(64, 1);
    for (const char* algo : {"heap", "pb"}) {
      for (const char* semiring :
           {"plus_times", "min_plus", "max_min", "bool_or_and"}) {
        SpGemmOp op;
        op.algo = algo;
        op.semiring = semiring;
        SpGemmExecutor single;
        const mtx::CsrMatrix ref = single.run(p, op);
        for (const auto& [rows, cols] : grids) {
          serve::ShardOptions so;
          so.rows = rows;
          so.cols = cols;
          so.pin_numa = false;
          serve::ShardRouter router(so);
          const mtx::CsrMatrix c = router.run(p, op);
          EXPECT_TRUE(c.valid());
          EXPECT_TRUE(mtx::equal_exact(c, ref))
              << name << ": " << algo << " x " << semiring << " on " << rows
              << "x" << cols;
        }
      }
    }
  }
}

TEST(ServeShard, MaskedAndComplementedOpsShardIdentically) {
  const mtx::CsrMatrix a = testutil::exact_er(160, 160, 5.0, 99);
  const mtx::CsrMatrix mask = testutil::exact_er(160, 160, 3.0, 100);
  const SpGemmProblem p = SpGemmProblem::square(a);

  for (const bool complement : {false, true}) {
    SpGemmOp op;
    op.mask = &mask;
    op.complement = complement;
    SpGemmExecutor single;
    const mtx::CsrMatrix ref = single.run(p, op);
    serve::ShardOptions so;
    so.rows = 2;
    so.cols = 2;
    so.pin_numa = false;
    serve::ShardRouter router(so);
    EXPECT_TRUE(mtx::equal_exact(router.run(p, op), ref))
        << "complement=" << complement;
  }
}

TEST(ServeShard, ValueOnlyFastPathWorksPerTile) {
  const mtx::CsrMatrix a = testutil::exact_er(150, 150, 5.0, 101);
  SpGemmProblem p = SpGemmProblem::square(a);
  SpGemmOp op;
  op.algo = "pb";

  serve::ShardOptions so;
  so.rows = 2;
  so.cols = 2;
  so.pin_numa = false;
  serve::ShardRouter router(so);
  (void)router.run(p, op);  // plant per-tile plans

  mtx::CsrMatrix a2 = a;
  for (value_t& v : a2.vals) v *= 3.0;
  SpGemmProblem p2 = SpGemmProblem::square(a2);
  RunInfo info;
  const mtx::CsrMatrix c = router.run_values_updated(p2, op, {}, &info);
  EXPECT_TRUE(info.value_only);

  SpGemmExecutor single;
  (void)single.run(p2, op);
  EXPECT_TRUE(mtx::equal_exact(c, single.run_values_updated(p2, op)));
  EXPECT_GE(router.aggregate_stats().value_only_hits, 4u);
}

TEST(ServeShard, StatsAggregateAcrossTheGrid) {
  const mtx::CsrMatrix a = testutil::exact_er(120, 120, 4.0, 102);
  const SpGemmProblem p = SpGemmProblem::square(a);
  serve::ShardOptions so;
  so.rows = 2;
  so.cols = 3;
  so.pin_numa = false;
  serve::ShardRouter router(so);
  (void)router.run(p, SpGemmOp{});
  (void)router.run(p, SpGemmOp{});
  const std::vector<ExecutorStats> per = router.shard_stats();
  ASSERT_EQ(per.size(), 6u);
  std::uint64_t executes = 0;
  for (const ExecutorStats& s : per) executes += s.executes;
  EXPECT_EQ(executes, 12u);  // 6 tiles x 2 runs
  EXPECT_EQ(router.aggregate_stats().executes, 12u);
  EXPECT_EQ(router.aggregate_stats().cache_hits, 6u);
}

// ---- end-to-end over the socket -------------------------------------------

TEST(ServeEndToEnd, InlineMultiplyMatchesTheLocalExecutor) {
  TestServer ts;
  serve::Client cli(ts.path());
  cli.ping();

  const mtx::CsrMatrix a = testutil::exact_er(220, 180, 5.0, 103);
  const mtx::CsrMatrix b = testutil::exact_er(180, 200, 5.0, 104);
  for (const char* semiring : {"plus_times", "min_plus", "bool_or_and"}) {
    serve::MultiplyOptions mo;
    mo.algo = "pb";
    mo.semiring = semiring;
    SpGemmOp op;
    op.algo = "pb";
    op.semiring = semiring;
    EXPECT_TRUE(mtx::equal_exact(cli.multiply(a, b, mo), local_run(a, b, op)))
        << semiring;
  }
}

TEST(ServeEndToEnd, MaskedMultiplyCrossesTheWire) {
  TestServer ts;
  serve::Client cli(ts.path());
  const mtx::CsrMatrix a = testutil::exact_er(140, 140, 5.0, 105);
  const mtx::CsrMatrix mask = testutil::exact_er(140, 140, 2.0, 106);

  serve::MultiplyOptions mo;
  mo.mask = &mask;
  SpGemmOp op;
  op.mask = &mask;
  EXPECT_TRUE(mtx::equal_exact(cli.multiply(a, a, mo), local_run(a, a, op)));

  mo.complement = true;
  op.complement = true;
  EXPECT_TRUE(mtx::equal_exact(cli.multiply(a, a, mo), local_run(a, a, op)));
}

// A post-op crosses the wire and runs fused server-side: the reply is
// bit-identical to the local executor under the same descriptor, and
// strictly smaller than the unpruned product.
TEST(ServeEndToEnd, PostOpMultiplyIsPrunedServerSide) {
  TestServer ts;
  serve::Client cli(ts.path());
  const mtx::CsrMatrix a = testutil::exact_er(160, 160, 5.0, 120);

  serve::MultiplyOptions mo;
  mo.algo = "pb";
  mo.post_op = parse_post_op("prune:4,topk:8");
  SpGemmOp op;
  op.algo = "pb";
  op.post_op = mo.post_op;
  const mtx::CsrMatrix pruned = cli.multiply(a, a, mo);
  EXPECT_TRUE(mtx::equal_exact(pruned, local_run(a, a, op)));

  SpGemmOp plain;
  plain.algo = "pb";
  EXPECT_LT(pruned.vals.size(), local_run(a, a, plain).vals.size());
}

// A post-op the server cannot honor (value-free semiring) comes back as
// the typed kUnsupported code — and the connection keeps serving.
TEST(ServeErrors, PostOpOnAValueFreeSemiringIsKUnsupported) {
  TestServer ts;
  serve::Client cli(ts.path());
  const mtx::CsrMatrix a = testutil::exact_er(80, 80, 3.0, 121);

  serve::MultiplyOptions mo;
  mo.semiring = "bool_or_and";
  mo.post_op.top_k = 4;
  try {
    (void)cli.multiply(a, a, mo);
    FAIL() << "post-op on bool_or_and must be rejected";
  } catch (const serve::ServeError& e) {
    EXPECT_EQ(e.status(), serve::WireStatus::kUnsupported);
  }
  cli.ping();
}

// The acceptance bar: a >= 2x2 tile-sharded route, driven through the
// real socket, bit-identical to a direct single-executor run.
TEST(ServeEndToEnd, ShardedServerIsBitIdenticalToSingleExecutor) {
  serve::ServeOptions so;
  so.shard_rows = 2;
  so.shard_cols = 2;
  TestServer ts(std::move(so));
  serve::Client cli(ts.path());

  const mtx::CsrMatrix a = testutil::exact_er(260, 260, 6.0, 107);
  serve::MultiplyOptions mo;
  mo.algo = "pb";
  SpGemmOp op;
  op.algo = "pb";
  const mtx::CsrMatrix ref = local_run(a, a, op);

  EXPECT_TRUE(mtx::equal_exact(cli.multiply(a, a, mo), ref));

  const std::uint64_t h = cli.upload(a);
  EXPECT_TRUE(mtx::equal_exact(cli.square(h, mo), ref));

  // Telemetry reports the full grid.
  const std::string telemetry = cli.telemetry();
  EXPECT_NE(telemetry.find("\"shard_rows\":2"), std::string::npos);
  EXPECT_NE(telemetry.find("\"shards\""), std::string::npos);
}

TEST(ServeEndToEnd, HandleReuseHitsThePlanCacheAndValueOnlyPath) {
  TestServer ts;
  serve::Client cli(ts.path());
  const mtx::CsrMatrix a = testutil::exact_er(200, 200, 5.0, 108);

  serve::MultiplyOptions mo;
  mo.algo = "pb";
  SpGemmOp op;
  op.algo = "pb";

  const std::uint64_t h = cli.upload(a);
  serve::MultiplyInfo info;
  const mtx::CsrMatrix c1 = cli.square(h, mo, &info);
  EXPECT_FALSE(info.cache_hit);
  const mtx::CsrMatrix c2 = cli.square(h, mo, &info);
  EXPECT_TRUE(info.cache_hit);
  EXPECT_TRUE(mtx::equal_exact(c1, c2));

  // Values-only refresh by handle: the wire reports the fast path fired
  // and the numbers match the executor's own fast path.
  mtx::CsrMatrix a2 = a;
  for (value_t& v : a2.vals) v *= 2.0;
  cli.update_values(h, a2);
  mo.values_only = true;
  const mtx::CsrMatrix c3 = cli.square(h, mo, &info);
  EXPECT_TRUE(info.value_only);

  SpGemmExecutor local;
  SpGemmProblem p2 = SpGemmProblem::square(a2);
  (void)local.run(SpGemmProblem::square(a), op);
  EXPECT_TRUE(mtx::equal_exact(c3, local.run_values_updated(p2, op)));

  // After release the handle is gone, with the typed code.
  cli.release(h);
  try {
    (void)cli.square(h, mo);
    FAIL() << "released handle still multiplied";
  } catch (const serve::ServeError& e) {
    EXPECT_EQ(e.status(), serve::WireStatus::kUnknownHandle);
  }
}

// A client that sets values_only on a changed structure: request 2's
// operands have request 1's dims and nnz, but their tuples overrun the
// cached plan's slices.  The worker replans instead of writing past them,
// answers with the fresh product, and the daemon keeps serving.
TEST(ServeEndToEnd, ValuesOnlyOnChangedStructureReplans) {
  TestServer ts;
  serve::Client cli(ts.path());
  const testutil::ChangedStructure s = testutil::changed_structure(2048);

  serve::MultiplyOptions mo;
  mo.algo = "pb";
  SpGemmOp op;
  op.algo = "pb";
  (void)cli.multiply(s.a, s.b, mo);
  mo.values_only = true;
  EXPECT_TRUE(mtx::equal_exact(cli.multiply(s.a2, s.b, mo),
                               local_run(s.a2, s.b, op)));
  EXPECT_NE(cli.telemetry().find("\"stale_replans\":1"), std::string::npos);

  mo.values_only = false;
  EXPECT_TRUE(mtx::equal_exact(cli.multiply(s.a, s.b, mo),
                               local_run(s.a, s.b, op)));
}

// ---- typed error codes over the wire --------------------------------------

TEST(ServeErrors, DeadlineExpiryArrivesAsKDeadline) {
  TestServer ts;
  serve::Client cli(ts.path());
  const mtx::CsrMatrix a = testutil::exact_er(300, 300, 6.0, 109);
  const std::uint64_t h = cli.upload(a);

  serve::MultiplyOptions mo;
  mo.algo = "pb";
  const mtx::CsrMatrix ref = cli.square(h, mo);  // plan cached, no deadline

  FaultGuard guard;
  FaultInjector::slow_bin(20);  // make the run reliably slower than 1 ms
  mo.deadline_ms = 1;
  try {
    (void)cli.square(h, mo);
    FAIL() << "1 ms deadline on a forced-slow run did not expire";
  } catch (const serve::ServeError& e) {
    EXPECT_EQ(e.status(), serve::WireStatus::kDeadline);
  }
  FaultInjector::reset();

  // The connection and the daemon survived; the next run is clean.
  mo.deadline_ms = 0;
  EXPECT_TRUE(mtx::equal_exact(cli.square(h, mo), ref));
}

TEST(ServeErrors, AdmissionBudgetRejectsWithKMemoryBudget) {
  serve::ServeOptions so;
  so.admission_budget_bytes = 1;  // nothing real fits
  TestServer ts(std::move(so));
  serve::Client cli(ts.path());

  const mtx::CsrMatrix a = testutil::exact_er(100, 100, 4.0, 110);
  try {
    (void)cli.multiply(a, a);
    FAIL() << "admission budget of 1 byte admitted a multiply";
  } catch (const serve::ServeError& e) {
    EXPECT_EQ(e.status(), serve::WireStatus::kMemoryBudget);
  }
  EXPECT_EQ(ts.server->stats().shed, 1u);
  // Non-multiply traffic is not shed.
  cli.ping();
}

TEST(ServeErrors, InvalidOperandsRejectWithKValidation) {
  TestServer ts;
  serve::Client cli(ts.path());
  const mtx::CsrMatrix bad = decodable_but_invalid_csr();
  const mtx::CsrMatrix good = testutil::exact_er(50, 50, 3.0, 111);

  // Upload validates before registering.
  try {
    (void)cli.upload(bad);
    FAIL() << "out-of-range colids uploaded";
  } catch (const serve::ServeError& e) {
    EXPECT_EQ(e.status(), serve::WireStatus::kValidation);
  }

  // The server forces validate_inputs on the executor for inline
  // operands (wire ingress is untrusted even from a well-formed frame):
  // bad×bad is wire-consistent and dimension-compatible, but its
  // out-of-range colids must be caught before any kernel touches them.
  try {
    (void)cli.multiply(bad, bad);
    FAIL() << "invalid inline operand multiplied";
  } catch (const serve::ServeError& e) {
    EXPECT_EQ(e.status(), serve::WireStatus::kValidation);
  }

  // Dimension mismatch is a validation failure, not a crash.
  const mtx::CsrMatrix wide = testutil::exact_er(50, 60, 3.0, 112);
  try {
    (void)cli.multiply(wide, good);
    FAIL() << "inner-dimension mismatch multiplied";
  } catch (const serve::ServeError& e) {
    EXPECT_EQ(e.status(), serve::WireStatus::kValidation);
  }

  // Structure drift on update_values -> kValidation; bogus handle ->
  // kUnknownHandle.
  const std::uint64_t h = cli.upload(good);
  try {
    cli.update_values(h, wide);
    FAIL() << "structure drift accepted";
  } catch (const serve::ServeError& e) {
    EXPECT_EQ(e.status(), serve::WireStatus::kValidation);
  }
  try {
    cli.update_values(h + 999, good);
    FAIL() << "unknown handle updated";
  } catch (const serve::ServeError& e) {
    EXPECT_EQ(e.status(), serve::WireStatus::kUnknownHandle);
  }
}

// Regression: kUpdateValues is wire ingress exactly like kUpload — a
// matrix whose dims and rowptr match the registered one but whose colids
// are out of range must be stopped at the handler with kValidation,
// never enter the registry, and leave the handle multiplying with the
// original validated operand.
TEST(ServeErrors, UpdateValuesCannotInjectInvalidColids) {
  TestServer ts;
  serve::Client cli(ts.path());
  const mtx::CsrMatrix a = testutil::exact_er(60, 60, 4.0, 119);
  const std::uint64_t h = cli.upload(a);
  const mtx::CsrMatrix ref = cli.square(h);

  mtx::CsrMatrix poisoned = a;
  ASSERT_FALSE(poisoned.colids.empty());
  poisoned.colids[0] = poisoned.ncols + 7;
  try {
    cli.update_values(h, poisoned);
    FAIL() << "out-of-range colids entered the registry";
  } catch (const serve::ServeError& e) {
    EXPECT_EQ(e.status(), serve::WireStatus::kValidation);
  }
  // The registry still serves the validated original, bit-identically.
  EXPECT_TRUE(mtx::equal_exact(cli.square(h), ref));
}

TEST(ServeErrors, UnknownAlgoRejectsWithKUnsupported) {
  TestServer ts;
  serve::Client cli(ts.path());
  const mtx::CsrMatrix a = testutil::exact_er(40, 40, 3.0, 113);
  serve::MultiplyOptions mo;
  mo.algo = "no_such_kernel";
  try {
    (void)cli.multiply(a, a, mo);
    FAIL() << "unknown algo ran";
  } catch (const serve::ServeError& e) {
    EXPECT_EQ(e.status(), serve::WireStatus::kUnsupported);
  }
  cli.ping();  // the connection survived the rejection
}

// Shedding: with max_inflight = 1, a multiply arriving while another is
// being served is rejected with kOverloaded before any work.
TEST(ServeErrors, OverloadShedsWithKOverloaded) {
  serve::ServeOptions so;
  so.max_inflight = 1;
  TestServer ts(std::move(so));

  const mtx::CsrMatrix a = testutil::exact_er(300, 300, 6.0, 114);
  serve::MultiplyOptions mo;
  mo.algo = "pb";

  FaultGuard guard;
  FaultInjector::slow_bin(100);  // hold request 1 in flight

  std::thread first([&] {
    serve::Client c1(ts.path());
    (void)c1.multiply(a, a, mo);  // slow but successful
  });
  // Admission is counted in stats().multiplies before the run starts;
  // wait for it so the second request deterministically overlaps.
  while (ts.server->stats().multiplies < 1) {
    std::this_thread::sleep_for(1ms);
  }

  serve::Client c2(ts.path());
  try {
    (void)c2.multiply(a, a, mo);
    ADD_FAILURE() << "second concurrent multiply was not shed";
  } catch (const serve::ServeError& e) {
    EXPECT_EQ(e.status(), serve::WireStatus::kOverloaded);
  }
  first.join();
  FaultInjector::reset();

  // Capacity freed: the same client's next multiply is served.
  SpGemmOp op;
  op.algo = "pb";
  EXPECT_TRUE(mtx::equal_exact(c2.multiply(a, a, mo), local_run(a, a, op)));
  EXPECT_GE(ts.server->stats().shed, 1u);
}

// ---- hostile framing against the live server ------------------------------

/// A raw (non-Client) connection for speaking garbage at the server.
struct RawConn {
  explicit RawConn(const std::string& path) {
    fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd < 0) throw std::runtime_error("RawConn: socket() failed");
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    std::strncpy(addr.sun_path, path.c_str(), sizeof(addr.sun_path) - 1);
    if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
      throw std::runtime_error("RawConn: connect() failed");
    }
  }
  ~RawConn() {
    if (fd >= 0) ::close(fd);
  }
  int fd = -1;
};

TEST(ServeHostile, BadMagicGetsKMalformedAndTheDaemonSurvives) {
  TestServer ts;
  {
    RawConn raw(ts.path());
    const std::uint32_t bad_magic = 0xDEADBEEFu;
    const std::uint32_t len = 4;
    ASSERT_EQ(::send(raw.fd, &bad_magic, 4, MSG_NOSIGNAL), 4);
    ASSERT_EQ(::send(raw.fd, &len, 4, MSG_NOSIGNAL), 4);
    // The server answers kMalformed (best effort) and closes.
    std::vector<std::uint8_t> payload;
    try {
      if (serve::read_frame(raw.fd, payload)) {
        ASSERT_GE(payload.size(), 1u);
        EXPECT_EQ(static_cast<serve::WireStatus>(payload[0]),
                  serve::WireStatus::kMalformed);
      }
    } catch (const serve::WireFormatError&) {
      // Equally acceptable: the server hung up without a reply frame.
    }
  }
  EXPECT_GE(ts.server->stats().malformed, 1u);
  // Fresh connections still work.
  serve::Client cli(ts.path());
  cli.ping();
}

TEST(ServeHostile, TruncatedFrameClosesOnlyThatConnection) {
  TestServer ts;
  {
    RawConn raw(ts.path());
    const std::uint32_t magic = serve::kFrameMagic;
    const std::uint32_t len = 1000;  // promise 1000 bytes...
    ASSERT_EQ(::send(raw.fd, &magic, 4, MSG_NOSIGNAL), 4);
    ASSERT_EQ(::send(raw.fd, &len, 4, MSG_NOSIGNAL), 4);
    const std::uint8_t byte = 1;
    ASSERT_EQ(::send(raw.fd, &byte, 1, MSG_NOSIGNAL), 1);
  }  // ...then hang up mid-frame
  // The worker sees EOF mid-frame and drops the connection; the daemon
  // still serves.
  serve::Client cli(ts.path());
  cli.ping();
  const mtx::CsrMatrix a = testutil::exact_er(40, 40, 3.0, 115);
  EXPECT_TRUE(mtx::equal_exact(cli.multiply(a, a), local_run(a, a, {})));
}

TEST(ServeHostile, MalformedPayloadInAValidFrameKeepsTheConnection) {
  TestServer ts;
  RawConn raw(ts.path());
  // A well-framed multiply whose body is garbage: decode throws
  // WireFormatError, the server answers kMalformed on the SAME
  // connection, and the connection keeps working.
  const std::vector<std::uint8_t> junk = {
      static_cast<std::uint8_t>(serve::MsgType::kMultiply), 0xFF, 0xFF};
  serve::write_frame(raw.fd, junk);
  std::vector<std::uint8_t> payload;
  ASSERT_TRUE(serve::read_frame(raw.fd, payload));
  ASSERT_GE(payload.size(), 1u);
  EXPECT_EQ(static_cast<serve::WireStatus>(payload[0]),
            serve::WireStatus::kMalformed);

  serve::write_frame(raw.fd, serve::encode_ping());
  ASSERT_TRUE(serve::read_frame(raw.fd, payload));
  ASSERT_GE(payload.size(), 1u);
  EXPECT_EQ(static_cast<serve::WireStatus>(payload[0]),
            serve::WireStatus::kOk);
}

TEST(ServeHostile, UnknownMessageTypeGetsKUnsupported) {
  TestServer ts;
  RawConn raw(ts.path());
  const std::vector<std::uint8_t> unknown = {0x7F};
  serve::write_frame(raw.fd, unknown);
  std::vector<std::uint8_t> payload;
  ASSERT_TRUE(serve::read_frame(raw.fd, payload));
  ASSERT_GE(payload.size(), 1u);
  EXPECT_EQ(static_cast<serve::WireStatus>(payload[0]),
            serve::WireStatus::kUnsupported);
}

// ---- injected faults against the live server ------------------------------

// The robustness contract extended over the wire: a fault injected into
// the executor's expand phase fails exactly one request with a typed
// code, and the daemon then serves the SAME multiply bit-identically —
// no poisoned plan cache, no leaked workspace, no dead connection.
TEST(ServeFaults, InjectedFaultFailsOneRequestThenServesIdentically) {
  TestServer ts;
  serve::Client cli(ts.path());
  const mtx::CsrMatrix a = testutil::exact_er(250, 250, 6.0, 116);
  serve::MultiplyOptions mo;
  mo.algo = "pb";
  SpGemmOp op;
  op.algo = "pb";
  const mtx::CsrMatrix ref = local_run(a, a, op);

  FaultGuard guard;
  FaultInjector::throw_at(FaultPoint::kExpand);
  try {
    (void)cli.multiply(a, a, mo);
    FAIL() << "armed expand fault did not surface";
  } catch (const serve::ServeError& e) {
    EXPECT_EQ(e.status(), serve::WireStatus::kInternal);
  }
  FaultInjector::reset();

  EXPECT_TRUE(mtx::equal_exact(cli.multiply(a, a, mo), ref));
}

// Same shape for an injected allocation fault: the executor degrades
// gracefully (row-wise fallback), so the request SUCCEEDS with the exact
// product — the wire just reports the degraded flag.
TEST(ServeFaults, InjectedAllocFaultDegradesButStillAnswersExactly) {
  TestServer ts;
  serve::Client cli(ts.path());
  const mtx::CsrMatrix a = testutil::exact_er(250, 250, 6.0, 117);
  serve::MultiplyOptions mo;
  mo.algo = "pb";
  SpGemmOp op;
  op.algo = "pb";
  const mtx::CsrMatrix ref = local_run(a, a, op);

  FaultGuard guard;
  FaultInjector::fail_alloc_after(0);
  serve::MultiplyInfo info;
  const mtx::CsrMatrix c = cli.multiply(a, a, mo, &info);
  FaultInjector::reset();
  EXPECT_TRUE(mtx::equal_exact(c, ref));
  EXPECT_TRUE(info.degraded);

  EXPECT_TRUE(mtx::equal_exact(cli.multiply(a, a, mo), ref));
}

// ---- drain ----------------------------------------------------------------

TEST(ServeDrain, StopFinishesCleanlyWithConnectionsOpen) {
  TestServer ts;
  serve::Client cli(ts.path());
  cli.ping();
  const mtx::CsrMatrix a = testutil::exact_er(60, 60, 3.0, 118);
  (void)cli.multiply(a, a);

  ts.server->stop();  // idle connection open: stop() must not hang
  EXPECT_FALSE(ts.server->running());

  // The drained server refuses new work...
  EXPECT_THROW(
      {
        serve::Client late(ts.path());
        late.ping();
      },
      std::runtime_error);

  // ...and stop() is idempotent.
  ts.server->stop();
  EXPECT_EQ(ts.server->stats().connections, 1u);
}

// Regression: a connection still parked in the accept queue when stop()
// runs (every worker busy) must get SHUT_RD along with the live ones —
// otherwise the worker that pops it after the sentinels sits in recv()
// on an idle client forever and stop() never joins.
TEST(ServeDrain, StopDoesNotHangOnQueuedIdleConnections) {
  serve::ServeOptions so;
  so.worker_threads = 1;
  TestServer ts(std::move(so));

  serve::Client busy(ts.path());
  busy.ping();  // the only worker now owns this connection
  serve::Client queued(ts.path());  // accepted, waiting in the queue
  while (ts.server->stats().connections < 2) {
    std::this_thread::sleep_for(1ms);
  }
  ts.server->stop();  // must return, not park in recv() forever
  EXPECT_FALSE(ts.server->running());
}

}  // namespace
}  // namespace pbs
