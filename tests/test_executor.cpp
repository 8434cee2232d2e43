// Executor layer: fingerprint-keyed plan cache (LRU hits/evictions),
// value-only re-execution, workspace-pooled concurrent serving, the
// predicted-vs-achieved samples a refit reads, and the sampled nnz
// estimate behind "auto".
#include <gtest/gtest.h>
#include <omp.h>

#include <stdexcept>
#include <thread>
#include <vector>

#include "common/parallel.hpp"
#include "matrix/ops.hpp"
#include "model/selection.hpp"
#include "pb/symbolic.hpp"
#include "pb/workspace_pool.hpp"
#include "spgemm/epilogue.hpp"
#include "spgemm/executor.hpp"
#include "spgemm/registry.hpp"
#include "spgemm/semiring.hpp"
#include "test_util.hpp"

namespace pbs {
namespace {

/// Same structure, different numeric values (exact under small-int
/// scaling): the value-only contract's legitimate mutation.
mtx::CsrMatrix scale_values(const mtx::CsrMatrix& a, value_t factor) {
  mtx::CsrMatrix out = a;
  for (value_t& v : out.vals) v *= factor;
  return out;
}

// ---- WorkspacePool --------------------------------------------------------

TEST(WorkspacePool, LeasesAreExclusiveAndReturnedWorkspacesAreReused) {
  pb::WorkspacePool pool;
  {
    const pb::WorkspacePool::Lease l1 = pool.acquire();
    const pb::WorkspacePool::Lease l2 = pool.acquire();
    EXPECT_NE(&l1.workspace(), &l2.workspace());  // concurrent = distinct
    (void)l1.workspace().acquire<pb::TupleFormat::kWide>(64);  // warm one
  }
  const pb::WorkspacePool::Lease l3 = pool.acquire();  // idle again: reuse
  const pb::WorkspacePool::Stats s = pool.stats();
  EXPECT_EQ(s.leases, 3u);
  EXPECT_EQ(s.created, 2u);
  EXPECT_EQ(s.reused, 1u);
  EXPECT_EQ(s.workspaces, 2u);
  EXPECT_EQ(s.peak_in_flight, 2u);
  // The aggregate allocator view covers every member.
  EXPECT_EQ(pool.workspace_stats().allocations, 1u);
}

// ---- SpGemmExecutor: correctness ------------------------------------------

TEST(Executor, MatchesReferenceAcrossAlgorithmsAndSemirings) {
  const mtx::CsrMatrix a = testutil::exact_er(200, 200, 5.0, 41);
  const SpGemmProblem p = SpGemmProblem::square(a);
  SpGemmExecutor exec;
  for (const std::string& algo : {"auto", "pb", "heap", "hash"}) {
    for (const std::string& s : semiring_names()) {
      SpGemmOp op;
      op.algo = algo;
      op.semiring = s;
      const mtx::CsrMatrix c = exec.run(p, op);
      EXPECT_TRUE(mtx::equal_exact(c, semiring_algorithm("reference", s)(p)))
          << algo << " x " << s;
    }
  }
}

TEST(Executor, MaskedRunsMatchThePatternFilterOracle) {
  // Every registered algorithm with every epilogue: plain, masked and
  // complemented, each without a post-op, with prune + top-k and with a
  // scale.  The oracle masks the reference product and then shapes it;
  // every kernel must keep that order, whether it fuses a step or the
  // registry applies it after the kernel.
  const mtx::CsrMatrix a = testutil::exact_er(150, 150, 5.0, 42);
  const mtx::CsrMatrix mask = testutil::exact_er(150, 150, 2.0, 43);
  const SpGemmProblem p = SpGemmProblem::square(a);
  const mtx::CsrMatrix product = reference_spgemm(p);
  PostOp prune_top_k;
  prune_top_k.prune_threshold = 10.0;
  prune_top_k.top_k = 3;
  PostOp scale;
  scale.scale = 0.5;
  SpGemmExecutor exec;
  for (const AlgoInfo& algo : algorithms()) {
    for (const int polarity : {0, 1, 2}) {  // plain, masked, complemented
      for (const PostOp& post : {PostOp{}, prune_top_k, scale}) {
        SpGemmOp op;
        op.algo = algo.name;
        op.mask = polarity == 0 ? nullptr : &mask;
        op.complement = polarity == 2;
        op.post_op = post;
        mtx::CsrMatrix expected =
            polarity == 0 ? product
                          : mtx::pattern_filter(product, mask, op.complement);
        apply_post_op(expected, post);
        RunInfo info;
        const mtx::CsrMatrix c = exec.run(p, op, &info);
        EXPECT_TRUE(mtx::equal_exact(c, expected))
            << algo.name << " polarity " << polarity << " post-op '"
            << post_op_to_string(post) << "'";
        EXPECT_EQ(info.used_pb, algo.name == "pb") << algo.name;
      }
    }
  }
  SpGemmOp bad;
  bad.mask = &a;  // right shape...
  const mtx::CsrMatrix wrong = testutil::exact_er(150, 100, 2.0, 44);
  bad.mask = &wrong;  // ...wrong shape: rejected at analysis
  EXPECT_THROW((void)exec.run(p, bad), std::invalid_argument);
}

TEST(Executor, AccumulatingRunCombinesWithTheSemiringAdd) {
  const mtx::CsrMatrix a = testutil::exact_er(120, 120, 4.0, 45);
  const mtx::CsrMatrix c0 = testutil::exact_er(120, 120, 5.0, 46);
  const SpGemmProblem p = SpGemmProblem::square(a);
  SpGemmExecutor exec;
  SpGemmOp op;
  op.algo = "pb";
  op.accumulate = true;
  EXPECT_THROW((void)exec.run(p, op), std::logic_error);
  const mtx::CsrMatrix c = exec.run(p, op, c0);
  EXPECT_TRUE(mtx::equal_exact(c, mtx::add(c0, reference_spgemm(p))));
}

// ---- plan cache: hits, eviction, alternation ------------------------------

TEST(Executor, AlternatingStructuresHitTheCache) {
  const mtx::CsrMatrix big = testutil::exact_er(300, 300, 6.0, 47);
  const mtx::CsrMatrix small = testutil::exact_er(120, 120, 4.0, 48);
  const SpGemmProblem pb_ = SpGemmProblem::square(big);
  const SpGemmProblem ps = SpGemmProblem::square(small);
  const mtx::CsrMatrix eb = reference_spgemm(pb_);
  const mtx::CsrMatrix es = reference_spgemm(ps);

  SpGemmExecutor exec;
  SpGemmOp op;
  op.algo = "pb";
  for (int round = 0; round < 3; ++round) {
    EXPECT_TRUE(mtx::equal_exact(exec.run(pb_, op), eb));
    EXPECT_TRUE(mtx::equal_exact(exec.run(ps, op), es));
  }
  const ExecutorStats s = exec.stats();
  EXPECT_EQ(s.executes, 6u);
  EXPECT_EQ(s.cache_misses, 2u);  // one analysis per structure, ever
  EXPECT_EQ(s.cache_hits, 4u);
  EXPECT_EQ(s.evictions, 0u);
  EXPECT_NEAR(s.hit_ratio(), 4.0 / 6.0, 1e-12);
}

TEST(Executor, CapacityOneReplansOnEveryFlip) {
  // The pre-executor behavior as a configuration: a single cached plan
  // alternating between two structures re-analyzes every time.
  ExecutorOptions eo;
  eo.cache_capacity = 1;
  SpGemmExecutor exec(eo);
  const SpGemmProblem pa =
      SpGemmProblem::square(testutil::exact_er(200, 200, 5.0, 49));
  const SpGemmProblem pb_ =
      SpGemmProblem::square(testutil::exact_er(150, 150, 5.0, 50));
  SpGemmOp op;
  op.algo = "pb";
  for (int round = 0; round < 3; ++round) {
    (void)exec.run(pa, op);
    (void)exec.run(pb_, op);
  }
  const ExecutorStats s = exec.stats();
  EXPECT_EQ(s.cache_misses, 6u);
  EXPECT_EQ(s.cache_hits, 0u);
  EXPECT_EQ(s.evictions, 5u);
}

TEST(Executor, LruEvictsTheLeastRecentlyUsedEntry) {
  ExecutorOptions eo;
  eo.cache_capacity = 2;
  SpGemmExecutor exec(eo);
  const SpGemmProblem pa =
      SpGemmProblem::square(testutil::exact_er(100, 100, 4.0, 51));
  const SpGemmProblem pb_ =
      SpGemmProblem::square(testutil::exact_er(110, 110, 4.0, 52));
  const SpGemmProblem pc =
      SpGemmProblem::square(testutil::exact_er(120, 120, 4.0, 53));
  SpGemmOp op;
  op.algo = "pb";
  (void)exec.run(pa, op);  // miss {A}
  (void)exec.run(pb_, op); // miss {B A}
  (void)exec.run(pa, op);  // hit  {A B}
  (void)exec.run(pc, op);  // miss {C A}, evicts B (least recently used)
  (void)exec.run(pa, op);  // hit  {A C}
  (void)exec.run(pb_, op); // miss again: B was evicted
  const ExecutorStats s = exec.stats();
  EXPECT_EQ(s.cache_misses, 4u);
  EXPECT_EQ(s.cache_hits, 2u);
  EXPECT_EQ(s.evictions, 2u);
}

TEST(Executor, ByteBudgetLiftsTheEntryCountBound) {
  // Byte mode: cache_capacity (1 entry here) is ignored; a generous byte
  // budget holds every structure, so the second round is all hits.
  ExecutorOptions eo;
  eo.cache_capacity = 1;
  eo.cache_capacity_bytes = 64u << 20;
  SpGemmExecutor exec(eo);
  SpGemmOp op;
  op.algo = "pb";
  std::vector<SpGemmProblem> problems;
  for (int i = 0; i < 4; ++i) {
    problems.push_back(SpGemmProblem::square(
        testutil::exact_er(100 + 20 * i, 100 + 20 * i, 4.0, 60 + i)));
  }
  for (int round = 0; round < 2; ++round) {
    for (const SpGemmProblem& p : problems) (void)exec.run(p, op);
  }
  const ExecutorStats s = exec.stats();
  EXPECT_EQ(s.cache_misses, 4u);
  EXPECT_EQ(s.cache_hits, 4u);
  EXPECT_EQ(s.evictions, 0u);
  EXPECT_EQ(s.cache_entries, 4u);
  EXPECT_GT(s.cache_bytes, 0u);
  EXPECT_EQ(s.bytes_evicted, 0u);
}

TEST(Executor, CacheBytesCountTheExpandSlices) {
  // A pb entry's footprint includes every symbolic array it holds.  At
  // 1024 bins the per-(chunk, bin) slice arrays outweigh the per-bin ones,
  // so an estimate without them under-counts the entry several times over.
  const SpGemmProblem p =
      SpGemmProblem::square(testutil::exact_er(2048, 2048, 4.0, 71));
  SpGemmOp op;
  op.algo = "pb";
  op.pb.nbins = 1024;
  SpGemmExecutor exec;
  (void)exec.run(p, op);
  const pb::SymbolicResult sym = pb::pb_symbolic(p.a_csc, p.b_csr, op.pb);
  ASSERT_EQ(sym.layout.nbins, 1024);
  ASSERT_GT(sym.nchunks(), 0);
  const std::size_t arrays =
      sym.bin_offsets.size() * sizeof(nnz_t) +
      sym.bin_fill.size() * sizeof(nnz_t) + sym.bin_home.size() * sizeof(int) +
      sym.chunk_cols.size() * sizeof(index_t) +
      sym.slice_offsets.size() * sizeof(nnz_t) +
      sym.slice_fill.size() * sizeof(nnz_t);
  const ExecutorStats s = exec.stats();
  EXPECT_EQ(s.cache_entries, 1u);
  EXPECT_GE(s.cache_bytes, arrays);
}

TEST(Executor, ByteBudgetEvictsDownToTheTargetButKeepsTheNewestEntry) {
  // A budget no entry can fit under still caches the most recent plan
  // (the budget is a target, not a hard cap), evicting the previous one
  // on every flip and accounting for the reclaimed bytes.
  ExecutorOptions eo;
  eo.cache_capacity_bytes = 1;
  SpGemmExecutor exec(eo);
  const SpGemmProblem pa =
      SpGemmProblem::square(testutil::exact_er(120, 120, 4.0, 64));
  const SpGemmProblem pb_ =
      SpGemmProblem::square(testutil::exact_er(140, 140, 4.0, 65));
  SpGemmOp op;
  op.algo = "pb";
  for (int round = 0; round < 2; ++round) {
    (void)exec.run(pa, op);
    (void)exec.run(pb_, op);
  }
  const ExecutorStats s = exec.stats();
  EXPECT_EQ(s.cache_misses, 4u);  // the survivor is always the other one
  EXPECT_EQ(s.cache_hits, 0u);
  EXPECT_EQ(s.evictions, 3u);
  EXPECT_EQ(s.cache_entries, 1u);
  EXPECT_GT(s.cache_bytes, 0u);
  EXPECT_GT(s.bytes_evicted, 0u);
  // Back-to-back repeats of one structure still hit: the newest entry
  // survives its own insert.
  (void)exec.run(pa, op);  // evicts B
  (void)exec.run(pa, op);
  EXPECT_EQ(exec.stats().cache_hits, 1u);
}

TEST(Executor, OpIdentityKeysTheCacheAlongsideStructure) {
  // Two descriptors on one structure are two entries; flipping between
  // them never replans once both are cached.
  const SpGemmProblem p =
      SpGemmProblem::square(testutil::exact_er(200, 200, 5.0, 54));
  SpGemmExecutor exec;
  SpGemmOp times;
  times.algo = "pb";
  SpGemmOp minplus;
  minplus.algo = "pb";
  minplus.semiring = MinPlus::name;
  for (int round = 0; round < 3; ++round) {
    (void)exec.run(p, times);
    (void)exec.run(p, minplus);
  }
  const ExecutorStats s = exec.stats();
  EXPECT_EQ(s.cache_misses, 2u);
  EXPECT_EQ(s.cache_hits, 4u);
}

TEST(Executor, SelectionModelTunablesKeyTheCache) {
  // pb_efficiency steers "auto" and beta_gbs sets the recorded
  // prediction: an op that differs from a cached one only there plans
  // afresh, and agrees with a fresh executor.  The key holds what a plan
  // reads and nothing it ignores: the model's pb_tuple_bytes is replaced
  // by the predicted stream format before selection.
  const SpGemmProblem p =
      SpGemmProblem::square(testutil::exact_er(2000, 2000, 8.0, 55));
  const SpGemmOp base;  // "auto"
  SpGemmOp steered = base;
  steered.model.pb_efficiency = 0.5 * base.model.pb_efficiency;
  SpGemmOp faster = base;
  faster.model.beta_gbs = 2.0 * base.model.beta_gbs;

  SpGemmExecutor exec;
  exec.prepare(p, base);
  for (const SpGemmOp* op : {&steered, &faster}) {
    RunInfo shared, alone;
    exec.prepare(p, *op, &shared);
    SpGemmExecutor fresh;
    fresh.prepare(p, *op, &alone);
    EXPECT_FALSE(shared.cache_hit);
    EXPECT_EQ(shared.algo, alone.algo);
    EXPECT_DOUBLE_EQ(shared.predicted_mflops, alone.predicted_mflops);
  }
  RunInfo info;
  SpGemmOp tuple_bytes = base;
  tuple_bytes.model.pb_tuple_bytes = 2.0 * base.model.pb_tuple_bytes;
  exec.prepare(p, tuple_bytes, &info);
  EXPECT_TRUE(info.cache_hit);
  EXPECT_EQ(exec.stats().cache_misses, 3u);
  EXPECT_EQ(exec.stats().cache_hits, 1u);
}

TEST(Executor, AutoPredictionIsIndependentOfTeamSize) {
  // One pb_efficiency at every team size: an ER product (cf ≈ 1, so pb)
  // gets the same pick and the same recorded prediction on one lane as on
  // four.
  const SpGemmProblem p =
      SpGemmProblem::square(testutil::exact_er(2000, 2000, 8.0, 59));
  const auto prepare = [&](int threads) {
    // The executor sees the team size through max_threads() alone.  No
    // active levels runs every region inline, so the test starts no
    // OpenMP threads, which a ThreadSanitizer build cannot follow.
    const ThreadCountGuard lanes(threads);
    const int levels = omp_get_max_active_levels();
    omp_set_max_active_levels(0);
    RunInfo info;
    SpGemmExecutor().prepare(p, SpGemmOp{}, &info);
    omp_set_max_active_levels(levels);
    return info;
  };
  const RunInfo one = prepare(1);
  const RunInfo four = prepare(4);
  EXPECT_EQ(one.algo, "pb");
  EXPECT_EQ(four.algo, one.algo);
  EXPECT_DOUBLE_EQ(four.predicted_mflops, one.predicted_mflops);
}

TEST(Executor, FixedBaselineOpsArePassthrough) {
  const SpGemmProblem p =
      SpGemmProblem::square(testutil::exact_er(100, 100, 4.0, 55));
  SpGemmExecutor exec;
  SpGemmOp op;
  op.algo = "hash";
  RunInfo info;
  const mtx::CsrMatrix c = exec.run(p, op, &info);
  EXPECT_TRUE(mtx::equal_exact(c, reference_spgemm(p)));
  EXPECT_TRUE(info.passthrough);
  // A masked op with a post-op takes the same path: the mask is fused
  // into the kernel, the post-op applies after it, and nothing is looked
  // up or cached.
  const mtx::CsrMatrix mask = testutil::exact_er(100, 100, 3.0, 56);
  SpGemmOp shaped = op;
  shaped.mask = &mask;
  shaped.post_op.prune_threshold = 20.0;
  shaped.post_op.top_k = 2;
  RunInfo shaped_info;
  const mtx::CsrMatrix cs = exec.run(p, shaped, &shaped_info);
  EXPECT_TRUE(mtx::equal_exact(
      cs, mtx::keep_top_k_per_row(
              mtx::prune(mtx::pattern_filter(reference_spgemm(p), mask),
                         20.0),
              2)));
  EXPECT_TRUE(shaped_info.passthrough);
  EXPECT_FALSE(shaped_info.cache_hit);
  const ExecutorStats s = exec.stats();
  EXPECT_EQ(s.passthrough, 2u);
  EXPECT_EQ(s.executes, 2u);
  EXPECT_EQ(s.cache_hits + s.cache_misses, 0u);
}

// ---- value-only fast path -------------------------------------------------

TEST(Executor, ValueOnlyRunSkipsAnalysisAndStaysCorrect) {
  const mtx::CsrMatrix a = testutil::exact_er(250, 250, 5.0, 56);
  const SpGemmProblem p = SpGemmProblem::square(a);
  SpGemmExecutor exec;
  SpGemmOp op;
  op.algo = "pb";
  (void)exec.run(p, op);  // populate the cache

  const mtx::CsrMatrix a2 = scale_values(a, 3.0);
  const SpGemmProblem p2 = SpGemmProblem::square(a2);
  RunInfo info;
  const mtx::CsrMatrix c = exec.run_values_updated(p2, op, &info);
  EXPECT_TRUE(info.cache_hit);
  EXPECT_TRUE(info.value_only);
  EXPECT_TRUE(mtx::equal_exact(c, reference_spgemm(p2)));
  EXPECT_EQ(exec.stats().value_only_hits, 1u);

  // No dims+nnz match on file: transparently falls back to the full
  // fingerprinted path (and caches the new structure).
  const SpGemmProblem other =
      SpGemmProblem::square(testutil::exact_er(180, 180, 4.0, 57));
  RunInfo fallback;
  const mtx::CsrMatrix co = exec.run_values_updated(other, op, &fallback);
  EXPECT_FALSE(fallback.value_only);
  EXPECT_FALSE(fallback.cache_hit);
  EXPECT_TRUE(mtx::equal_exact(co, reference_spgemm(other)));
}

TEST(Executor, ValueOnlyRunOnChangedStructureReplans) {
  // A caller who wrongly claims an unchanged structure: A2 matches A's
  // dims and nnz, so the value-only lookup finds A's plan, but A2·B's
  // tuples overrun its slices.  The run stops before writing past them,
  // and the executor replans once, reruns and keeps the fresh plan.
  const testutil::ChangedStructure s = testutil::changed_structure(2048);
  SpGemmExecutor exec;
  SpGemmOp op;
  op.algo = "pb";
  (void)exec.run(SpGemmProblem::multiply(s.a, s.b), op);

  const SpGemmProblem p2 = SpGemmProblem::multiply(s.a2, s.b);
  RunInfo info;
  const mtx::CsrMatrix c = exec.run_values_updated(p2, op, &info);
  EXPECT_TRUE(mtx::equal_exact(c, SpGemmExecutor().run(p2, op)));
  EXPECT_EQ(exec.stats().stale_replans, 1u);
  EXPECT_FALSE(info.value_only);

  // The fresh plan replaced the stale one, so the next value-only run of
  // A2's structure fits it.
  EXPECT_TRUE(mtx::equal_exact(exec.run_values_updated(p2, op, &info), c));
  EXPECT_TRUE(info.value_only);
  EXPECT_EQ(exec.stats().stale_replans, 1u);
  EXPECT_EQ(exec.stats().cache_entries, 1u);
}

TEST(Executor, KeyOnlyPlanReplansWhenStoredZerosAppear) {
  // Stored zeros are values, so zeros appearing in A keep its fingerprint
  // and the run hits the cached key-only plan.  That stream cannot carry
  // them (a stored 0.0 is bool-false), so the run replans narrow instead
  // of dropping every stored zero of the product.
  mtx::CsrMatrix a = testutil::exact_er(512, 512, 8.0, 58);
  for (value_t& v : a.vals) v = 1.0;
  SpGemmExecutor exec;
  SpGemmOp op;
  op.algo = "pb";
  op.semiring = BoolOrAnd::name;
  RunInfo info;
  (void)exec.run(SpGemmProblem::square(a), op, &info);
  ASSERT_EQ(info.pb_stats.format, pb::TupleFormat::kKeyOnly);

  for (std::size_t i = 0; i < a.vals.size(); i += 4) a.vals[i] = 0.0;
  const SpGemmProblem p = SpGemmProblem::square(a);
  const mtx::CsrMatrix c = exec.run(p, op, &info);
  EXPECT_NE(info.pb_stats.format, pb::TupleFormat::kKeyOnly);
  EXPECT_TRUE(pb::has_stored_zero(c.vals));
  EXPECT_TRUE(mtx::equal_exact(c, SpGemmExecutor().run(p, op)));
  EXPECT_TRUE(mtx::equal_exact(
      c, semiring_algorithm("heap", BoolOrAnd::name)(p)));
  EXPECT_EQ(exec.stats().stale_replans, 1u);
}

TEST(Executor, SameAggregateStructuresGetDistinctCacheEntries) {
  // Regression for the fingerprint's structural hash: two permutation
  // matrices share dims, nnz and flop(P²) — every aggregate the
  // fingerprint held before the hash — so without it the second structure
  // would false-hit the first one's cached plan and run through a stale
  // bin layout.
  constexpr index_t n = 512;
  const auto permutation = [](bool reversed) {
    mtx::CsrMatrix m(n, n);
    for (index_t r = 0; r < n; ++r) {
      m.rowptr[static_cast<std::size_t>(r) + 1] = r + 1;
      m.colids.push_back(reversed ? n - 1 - r : r);
      m.vals.push_back(1.0);
    }
    return m;
  };
  const mtx::CsrMatrix ident = permutation(false);
  const mtx::CsrMatrix rev = permutation(true);
  const SpGemmProblem pi = SpGemmProblem::square(ident);
  const SpGemmProblem pr = SpGemmProblem::square(rev);

  SpGemmExecutor exec;
  SpGemmOp op;
  op.algo = "pb";
  EXPECT_TRUE(mtx::equal_exact(exec.run(pi, op), reference_spgemm(pi)));
  EXPECT_TRUE(mtx::equal_exact(exec.run(pr, op), reference_spgemm(pr)));
  const ExecutorStats s = exec.stats();
  EXPECT_EQ(s.cache_misses, 2u);  // distinct entries, no false hit
  EXPECT_EQ(s.cache_hits, 0u);
}

// ---- concurrent serving ---------------------------------------------------

TEST(ExecutorConcurrency, FourThreadsThroughOneCachedPlan) {
  const mtx::CsrMatrix base = testutil::exact_er(250, 250, 5.0, 60);
  SpGemmExecutor exec;
  SpGemmOp op;
  op.algo = "pb";
  {
    const SpGemmProblem warm = SpGemmProblem::square(base);
    (void)exec.run(warm, op);  // one analysis, then serve from the cache
  }

  constexpr int kThreads = 4;
  constexpr int kRounds = 3;
  for (int round = 0; round < kRounds; ++round) {
    // Values mutate between rounds (the serving pattern: same structure,
    // fresh numbers); every thread multiplies the same problem.
    const mtx::CsrMatrix m =
        scale_values(base, static_cast<value_t>(round + 1));
    const SpGemmProblem p = SpGemmProblem::square(m);
    const mtx::CsrMatrix expected = reference_spgemm(p);

    std::vector<mtx::CsrMatrix> results(kThreads);
    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t] {
        set_threads(1);  // serving config: one OpenMP lane per request
        results[static_cast<std::size_t>(t)] =
            exec.run_values_updated(p, op);
      });
    }
    for (std::thread& th : threads) th.join();
    for (const mtx::CsrMatrix& r : results) {
      EXPECT_TRUE(mtx::equal_exact(r, expected)) << "round " << round;
    }
  }

  const ExecutorStats s = exec.stats();
  EXPECT_EQ(s.executes, 1u + kThreads * kRounds);
  EXPECT_EQ(s.cache_misses, 1u);  // the warmup analysis; everything else hit
  EXPECT_EQ(s.value_only_hits,
            static_cast<std::uint64_t>(kThreads * kRounds));
  const pb::WorkspacePool::Stats ps = exec.pool_stats();
  // Concurrency bounds the pool: at most one workspace per thread, and
  // most leases are served by returned (warm) workspaces.  Whether leases
  // actually overlapped depends on scheduling, so overlap itself is not
  // asserted.
  EXPECT_LE(ps.created, static_cast<std::uint64_t>(kThreads));
  EXPECT_GT(ps.reused, 0u);
}

TEST(ExecutorConcurrency, ConcurrentRunsAcrossTwoCachedStructures) {
  const SpGemmProblem pa =
      SpGemmProblem::square(testutil::exact_er(220, 220, 5.0, 61));
  const SpGemmProblem pb_ =
      SpGemmProblem::square(testutil::exact_er(160, 160, 5.0, 62));
  const mtx::CsrMatrix ea = reference_spgemm(pa);
  const mtx::CsrMatrix eb = reference_spgemm(pb_);
  SpGemmExecutor exec;
  SpGemmOp op;
  op.algo = "pb";
  (void)exec.run(pa, op);
  (void)exec.run(pb_, op);

  constexpr int kThreads = 4;
  std::vector<mtx::CsrMatrix> results(kThreads);
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      set_threads(1);
      const SpGemmProblem& mine = t % 2 == 0 ? pa : pb_;
      for (int i = 0; i < 3; ++i) {
        results[static_cast<std::size_t>(t)] = exec.run(mine, op);
      }
    });
  }
  for (std::thread& th : threads) th.join();
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_TRUE(mtx::equal_exact(results[static_cast<std::size_t>(t)],
                                 t % 2 == 0 ? ea : eb))
        << "thread " << t;
  }
  EXPECT_EQ(exec.stats().cache_misses, 2u);  // races never re-analyzed
}

// ---- calibration ----------------------------------------------------------

TEST(SelectionCalibrate, RecoversSyntheticDeratingConstants) {
  const model::SelectionModel defaults;
  const double true_pb_eff = 0.6;
  const double true_penalty = 5.0;
  std::vector<model::PerfSample> samples;
  for (const double cf : {1.0, 1.5, 2.0, 3.0, 6.0, 12.0, 24.0}) {
    const model::AlgoChoice c =
        model::select_algorithm(cf, 1 << 20, true, defaults);
    // Invert the default derating to the underated bound, then apply the
    // ground-truth derating: that is what a machine with these constants
    // would have measured.
    const double pb_underated = c.pb_mflops / defaults.pb_efficiency;
    samples.push_back({"pb", c.cf, c.pb_mflops, pb_underated * true_pb_eff});
    const double col_eff_pred =
        c.cf / (c.cf + defaults.column_latency_penalty);
    const double col_underated = c.column_mflops / col_eff_pred;
    const double col_eff_true = c.cf / (c.cf + true_penalty);
    samples.push_back(
        {"hash", c.cf, c.column_mflops, col_underated * col_eff_true});
  }

  model::SelectionModel fit;
  const model::CalibrationResult r = fit.calibrate(samples);
  EXPECT_TRUE(r.changed);
  EXPECT_EQ(r.pb_samples, 7);
  EXPECT_EQ(r.column_samples, 7);
  EXPECT_NEAR(fit.pb_efficiency, true_pb_eff, 0.02);
  EXPECT_NEAR(fit.column_latency_penalty, true_penalty, 0.25);

  // Degenerate/empty samples leave the model untouched.
  model::SelectionModel untouched;
  const model::CalibrationResult none = untouched.calibrate({});
  EXPECT_FALSE(none.changed);
  EXPECT_EQ(untouched.pb_efficiency, defaults.pb_efficiency);
}

// ---- sampled nnz estimate: masks and the auto choice ----------------------

TEST(MaskedEstimate, CountsExactlyTheEntriesTheMaskKeeps) {
  // flop ≤ 2^16, so every row is counted: both products are exact, through
  // the column stamps (square) and the sort-unique path (wide B).  The
  // mask holds part of C's pattern and random cells beside it.  B and the
  // random cells have about 1800 and 1200 entries at either width.
  const mtx::CsrMatrix a = testutil::exact_er(300, 300, 6.0, 64);
  for (const index_t b_cols : {300, 400000}) {
    const double per_col = 1.0 / static_cast<double>(b_cols);
    const mtx::CsrMatrix b =
        testutil::exact_er(300, b_cols, 1800.0 * per_col, 65);
    const SpGemmProblem p = SpGemmProblem::multiply(a, b);
    const mtx::CsrMatrix c = reference_spgemm(p);
    const mtx::CsrMatrix mask =
        mtx::add(mtx::prune(c, 30.0),
                 testutil::exact_er(300, b_cols, 1200.0 * per_col, 66));
    const pb::NnzEstimate est = pb::pb_estimate_nnz_c(
        p.a_csr, p.b_csr, pb::pb_row_flops(p.a_csc, p.b_csr), &mask);
    EXPECT_EQ(est.nnz, c.nnz()) << b_cols;
    EXPECT_EQ(est.masked, mtx::pattern_filter(c, mask).nnz()) << b_cols;
  }
  // Without a mask, masked mirrors nnz.
  const SpGemmProblem sq = SpGemmProblem::square(a);
  const pb::NnzEstimate plain = pb::pb_estimate_nnz_c(
      sq.a_csr, sq.b_csr, pb::pb_row_flops(sq.a_csc, sq.b_csr));
  EXPECT_EQ(plain.masked, plain.nnz);
}

TEST(Executor, AutoPicksHashOnABandedSquareAndPbOnEr) {
  const auto choice = [](const mtx::CsrMatrix& a) {
    SpGemmExecutor exec;
    RunInfo info;
    exec.prepare(SpGemmProblem::square(a), SpGemmOp{}, &info);
    return info.algo;
  };
  // The `cant` recipe of matrix/surrogates at n 1000: cf about 17.
  EXPECT_EQ(choice(mtx::coo_to_csr(mtx::generate_banded(1000, 64.17, 67, 91))),
            "hash");
  EXPECT_EQ(choice(testutil::exact_er(4000, 4000, 8.0, 92)), "pb");
}

// ---- one structure, planned once ----------------------------------------

TEST(Executor, AutoResolvesToConcreteAlgorithmWithRationale) {
  const mtx::CsrMatrix a = testutil::exact_er(600, 600, 8.0, 17);
  const SpGemmProblem p = SpGemmProblem::square(a);
  SpGemmExecutor exec;
  RunInfo info;
  const mtx::CsrMatrix c = exec.run(p, SpGemmOp{}, &info);  // auto
  EXPECT_TRUE(info.algo == "pb" || info.algo == "hash" || info.algo == "heap")
      << info.algo;
  EXPECT_EQ(info.algo, info.choice.algo);
  EXPECT_FALSE(info.choice.rationale.empty());
  EXPECT_GT(info.choice.cf, 0.0);
  EXPECT_TRUE(mtx::equal_exact(c, reference_spgemm(p)));
}

TEST(Executor, RecordsPredictedAndAchievedMflops) {
  const mtx::CsrMatrix a = testutil::exact_er(500, 500, 8.0, 30);
  const SpGemmProblem p = SpGemmProblem::square(a);
  SpGemmExecutor exec;
  RunInfo info;
  // The prediction is fixed at plan time from the roofline choice...
  exec.prepare(p, SpGemmOp{}, &info);
  EXPECT_GT(info.predicted_mflops, 0.0);
  EXPECT_EQ(info.achieved_mflops, 0.0);
  EXPECT_TRUE(exec.samples().empty());
  // ...and every unmasked "auto" run records what it actually achieved
  // against it: one sample per run, the pair a refit reads.
  for (std::size_t runs = 1; runs <= 2; ++runs) {
    (void)exec.run(p, SpGemmOp{}, &info);
    EXPECT_GT(info.predicted_mflops, 0.0);
    EXPECT_GT(info.achieved_mflops, 0.0);
    const std::vector<model::PerfSample> samples = exec.samples();
    ASSERT_EQ(samples.size(), runs);
    EXPECT_EQ(samples.back().algo, info.algo);
    EXPECT_EQ(samples.back().cf, info.choice.cf);
    EXPECT_EQ(samples.back().predicted_mflops, info.predicted_mflops);
    EXPECT_EQ(samples.back().achieved_mflops, info.achieved_mflops);
  }
  // A mask changes both roofline bounds, and a fixed algorithm predicts
  // nothing: neither adds a sample.
  SpGemmOp masked;
  masked.mask = &a;
  (void)exec.run(p, masked);
  for (const char* algo : {"pb", "hash"}) {
    SpGemmOp fixed;
    fixed.algo = algo;
    (void)exec.run(p, fixed);
  }
  EXPECT_EQ(exec.samples().size(), 2u);
}

TEST(Executor, RepeatedRunsSkipAnalysisAndAllocation) {
  const mtx::CsrMatrix a = testutil::exact_er(350, 350, 7.0, 20);
  const SpGemmProblem p = SpGemmProblem::square(a);
  SpGemmExecutor exec;
  SpGemmOp op;
  op.algo = "pb";
  RunInfo info;
  const mtx::CsrMatrix first = exec.run(p, op, &info);
  const pb::PbWorkspace::Stats after_first = exec.workspace_stats();
  for (int i = 0; i < 5; ++i) {
    EXPECT_TRUE(mtx::equal_exact(first, exec.run(p, op, &info)));
    EXPECT_TRUE(info.cache_hit);
  }
  const ExecutorStats s = exec.stats();
  EXPECT_EQ(s.executes, 6u);
  EXPECT_EQ(s.cache_misses, 1u);
  EXPECT_EQ(s.cache_hits, 5u);
  // The symbolic phase of a reused execution is skipped entirely...
  EXPECT_EQ(info.pb_stats.symbolic.seconds, 0.0);
  // ...and the tuple buffer is never reallocated.
  const pb::PbWorkspace::Stats steady = exec.workspace_stats();
  EXPECT_EQ(steady.allocations, after_first.allocations);
  EXPECT_EQ(steady.reuses, after_first.reuses + 5);
}

TEST(Executor, GrowShrinkGrowReusesPeakCapacity) {
  // A grow-then-shrink-then-grow problem sequence through one executor:
  // the pooled buffer sized by the big problem serves the small one and
  // the big one again without any new allocation.
  const mtx::CsrMatrix big = testutil::exact_er(500, 500, 8.0, 23);
  const mtx::CsrMatrix small = testutil::exact_er(100, 100, 3.0, 24);
  const SpGemmProblem pb_ = SpGemmProblem::square(big);
  const SpGemmProblem ps = SpGemmProblem::square(small);

  SpGemmExecutor exec;
  SpGemmOp op;
  op.algo = "pb";
  (void)exec.run(pb_, op);
  const pb::PbWorkspace::Stats after_big = exec.workspace_stats();

  EXPECT_TRUE(mtx::equal_exact(exec.run(ps, op), reference_spgemm(ps)));
  EXPECT_TRUE(mtx::equal_exact(exec.run(pb_, op), reference_spgemm(pb_)));
  const pb::PbWorkspace::Stats end = exec.workspace_stats();
  EXPECT_EQ(end.allocations, after_big.allocations);
  EXPECT_EQ(end.reuses, after_big.reuses + 2);
  EXPECT_EQ(end.peak_request, after_big.peak_request);
}

TEST(Executor, RejectsUnsupportedPairsAtPlanTime) {
  const SpGemmProblem p =
      SpGemmProblem::square(testutil::exact_er(50, 50, 3.0, 25));
  SpGemmExecutor exec;
  SpGemmOp op;
  op.algo = "hashvec";  // the hash family's remaining plus_times-only member
  op.semiring = "min_plus";
  EXPECT_THROW(exec.prepare(p, op), std::invalid_argument);
  op.algo = "no_such_algo";
  EXPECT_THROW(exec.prepare(p, op), std::invalid_argument);
  // A pb entry never resolves a registry kernel, but still checks the pair.
  op.algo = "pb";
  op.semiring = "no_such_semiring";
  EXPECT_THROW(exec.prepare(p, op), std::invalid_argument);
}

}  // namespace
}  // namespace pbs
