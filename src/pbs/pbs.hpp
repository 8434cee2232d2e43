// Umbrella header — the public API of the PB-SpGEMM library.
//
//   #include <pbs/pbs.hpp>
//
//   auto a = pbs::mtx::coo_to_csr(pbs::mtx::generate_er(1 << 16, 1 << 16, 8, /*seed=*/1));
//   auto p = pbs::SpGemmProblem::square(a);
//
//   // Every product runs through an executor: one analysis per
//   // structure, pooled workspaces, thread-safe.
//   pbs::SpGemmExecutor exec;
//   pbs::SpGemmOp op;                       // algo = "auto" (roofline-guided)
//   pbs::RunInfo info;                      // algorithm, per-phase telemetry
//   auto c = exec.run(p, op, &info);
//   op.algo = "hash";                       // or any registry algorithm
//   op.semiring = "min_plus";               // and any registered semiring
//   auto c2 = exec.run(p, op);
//
//   // Serving daemon: pbs_serve over a Unix socket (serve/server.hpp),
//   // or embed the pieces — wire protocol, shard router, registry:
//   pbs::serve::Client cli("/tmp/pbs_serve.sock");
//   auto h  = cli.upload(a);                // ship A once
//   auto c3 = cli.square(h);                // iterate by handle
//
// See README.md for the architecture overview and examples/ for complete
// programs.
#pragma once

#include "common/cache_info.hpp"
#include "common/env_report.hpp"
#include "common/huge_pages.hpp"
#include "common/parallel.hpp"
#include "common/run_stats.hpp"
#include "common/stream.hpp"
#include "common/timer.hpp"
#include "common/types.hpp"
#include "matrix/convert.hpp"
#include "matrix/coo.hpp"
#include "matrix/csc.hpp"
#include "matrix/csr.hpp"
#include "matrix/generate.hpp"
#include "matrix/matrix_market.hpp"
#include "matrix/mstats.hpp"
#include "matrix/ops.hpp"
#include "matrix/surrogates.hpp"
#include "model/roofline.hpp"
#include "model/selection.hpp"
#include "pb/pb_spgemm.hpp"
#include "pb/plan.hpp"
#include "pb/workspace_pool.hpp"
#include "serve/client.hpp"
#include "serve/protocol.hpp"
#include "serve/registry.hpp"
#include "serve/server.hpp"
#include "serve/shard.hpp"
#include "spgemm/epilogue.hpp"
#include "spgemm/executor.hpp"
#include "spgemm/masked.hpp"
#include "spgemm/op.hpp"
#include "spgemm/registry.hpp"
#include "spgemm/semiring.hpp"
#include "spgemm/spgemm.hpp"
