#include "spgemm/executor.hpp"

#include <algorithm>
#include <list>
#include <mutex>
#include <sstream>
#include <stdexcept>

#include "common/cancel.hpp"
#include "common/errors.hpp"
#include "common/parallel.hpp"
#include "common/timer.hpp"
#include "pb/symbolic.hpp"
#include "spgemm/registry.hpp"

namespace pbs {

namespace {

// Everything of an op that a cached entry reads: the algorithm and
// semiring, the mask binding (by address — the pattern behind it may
// change freely, the fused kernels re-read it per call), every PbConfig
// field (the plan copies the config into each execution), the post-op
// (the entry's op copy carries it into every execution), and the model
// tunables that steer "auto" selection and the recorded
// predicted_mflops.  Nothing planning ignores: accumulate is a
// per-call argument (an accumulating op shares its plan with the plain
// product), and the model's pb_tuple_bytes is overwritten by analyze
// from the predicted stream format.
std::string op_cache_key(const SpGemmOp& op) {
  std::ostringstream key;
  key << op.algo << '|' << op.semiring << '|'
      << static_cast<const void*>(op.mask) << '|' << op.complement << '|'
      << static_cast<int>(op.pb.format) << '|' << op.pb.value_free << '|'
      << op.pb.nbins << '|' << op.pb.local_bin_bytes << '|'
      << op.pb.streaming_stores << '|'
      << op.pb.expand_mask_max_density << '|' << op.post_op.scale << '|'
      << op.post_op.prune_threshold << '|' << op.post_op.top_k << '|'
      << op.model.pb_efficiency << '|' << op.model.column_latency_penalty
      << '|' << op.model.small_flop_threshold << '|'
      << op.model.bytes_per_nnz << '|' << op.model.beta_gbs;
  return key.str();
}

void check_mask_shape(const SpGemmOp& op, const SpGemmProblem& p) {
  if (op.mask != nullptr && (op.mask->nrows != p.a_csr.nrows ||
                             op.mask->ncols != p.b_csr.ncols)) {
    throw std::invalid_argument(
        "SpGemmExecutor: mask shape does not match the product");
  }
}

/// Descriptor-level legality of op.post_op, enforced at every entry point
/// (plan time, never execute time).  `accumulating` covers both the
/// op.accumulate flag and the accumulating run overload's target.
void check_post_op(const SpGemmOp& op, bool accumulating) {
  if (!op.post_op.active()) return;
  if (accumulating) {
    throw std::invalid_argument(
        "SpGemmExecutor: post_op and accumulate are mutually exclusive "
        "(prune/top-k over a merged C is ambiguous — run the product with "
        "the post-op, then accumulate explicitly)");
  }
  if (op.pb.value_free || semiring_value_free(op.semiring)) {
    throw std::invalid_argument(
        "SpGemmExecutor: post_op on value-free semiring '" + op.semiring +
        "': every output value is the present-value 1.0, so there is "
        "nothing to scale, prune or rank");
  }
}

bool is_passthrough(const SpGemmOp& op) {
  return op.algo != "auto" && op.algo != "pb";
}

/// Predicted-vs-achieved samples kept for samples(): the most recent
/// window, oldest dropped first.
constexpr std::size_t kMaxSamples = 512;

/// Serializes executions over runtime-registered semirings.  The
/// DynSemiring bridge routes scalar ops through ONE process-global
/// active-semiring pointer (spgemm/op.hpp), so the mutex must be
/// process-global too — a per-executor mutex would let two executors
/// interleave their activations and silently compute with the wrong
/// semiring.
std::mutex& dyn_semiring_mutex() {
  static std::mutex mu;
  return mu;
}

}  // namespace

/// One plan: the full analysis product for (structure, op), immutable
/// after construction so in-flight executions can keep using it through
/// their shared_ptr after an eviction.  A fixed non-pb op's entry holds
/// only its resolved kernel, is built per call and is never cached.
struct CachedPlanEntry {
  pb::StructureFingerprint fp;
  std::string key;
  SpGemmOp op;  ///< copy; the mask pointer stays non-owning
  std::string resolved;
  bool auto_requested = false;
  bool use_pb = false;
  model::AlgoChoice choice;
  double predicted_mflops = 0;
  double plan_seconds = 0;
  /// Derating constants the "auto" selection ran with (the op's tunables,
  /// pb's capped) — recorded into every PerfSample so a later
  /// SelectionModel::calibrate inverts each prediction through them.
  double sel_pb_efficiency = 0;
  double sel_column_latency_penalty = 0;
  pb::PbPlan pb_plan;  ///< valid when use_pb
  /// Execution path when !use_pb: the registry's finished kernel, mask
  /// and post-op included.
  SpGemmFn fn;
  bool degraded = false;       ///< plan-time budget downgrade
  std::string degrade_reason;  ///< "budget" when degraded
  std::size_t bytes = 0;  ///< estimated footprint (set at insert time)
};

namespace {

/// Estimated resident cost of one cache entry: the struct itself, its
/// strings, and the PB symbolic arrays (per-bin offsets/fills/homes, the
/// chunk bounds and the per-(chunk, bin) slice offsets/fills).  The
/// tuple streams are NOT here — they live in the workspace pool, shared
/// by every entry.
std::size_t entry_bytes(const CachedPlanEntry& e) {
  std::size_t b = sizeof(CachedPlanEntry);
  b += e.key.capacity() + e.resolved.capacity() + e.op.algo.capacity() +
       e.op.semiring.capacity() + e.degrade_reason.capacity();
  const pb::SymbolicResult& sym = e.pb_plan.sym;
  b += sym.bin_offsets.capacity() * sizeof(nnz_t);
  b += sym.bin_fill.capacity() * sizeof(nnz_t);
  b += sym.bin_home.capacity() * sizeof(int);
  b += sym.chunk_cols.capacity() * sizeof(index_t);
  b += sym.slice_offsets.capacity() * sizeof(nnz_t);
  b += sym.slice_fill.capacity() * sizeof(nnz_t);
  return b;
}

}  // namespace

struct SpGemmExecutor::Impl {
  explicit Impl(ExecutorOptions o) : opts(o) {
    opts.cache_capacity = std::max<std::size_t>(opts.cache_capacity, 1);
    pool.set_budget_bytes(opts.mem_budget_bytes);
  }

  using EntryPtr = std::shared_ptr<const CachedPlanEntry>;

  ExecutorOptions opts;
  mutable std::mutex mu;  ///< cache + stats + samples
  std::list<EntryPtr> lru;  ///< front = most recently used
  ExecutorStats stats;
  std::vector<model::PerfSample> samples;
  pb::WorkspacePool pool;

  /// Cancellation epoch: every run links the epoch current at its start;
  /// cancel() fires it and swaps in a fresh one, so only in-flight runs
  /// unwind.  shared_ptr keeps a fired epoch alive until its last run
  /// finishes polling it.
  std::shared_ptr<CancelToken> epoch = std::make_shared<CancelToken>();

  /// Builds a run's stack token from the caller's RunOptions + the
  /// current epoch.  `token` must outlive the run (caller's stack).
  void arm_token(CancelToken& token, const RunOptions& ropts,
                 std::shared_ptr<CancelToken>& epoch_snapshot) {
    {
      const std::lock_guard<std::mutex> lock(mu);
      epoch_snapshot = epoch;
    }
    token.link(epoch_snapshot.get());
    token.link(ropts.cancel);
    if (ropts.timeout.count() > 0) {
      token.set_timeout(ropts.timeout);
    } else if (ropts.deadline.time_since_epoch().count() != 0) {
      token.set_deadline(ropts.deadline);
    }
  }

  /// Strict-ingress validation (ExecutorOptions::validate_inputs).
  void validate_problem(const SpGemmProblem& p, const SpGemmOp& op) const {
    mtx::csr_validate_or_throw(p.a_csr, "SpGemmExecutor: operand A");
    mtx::csr_validate_or_throw(p.b_csr, "SpGemmExecutor: operand B");
    if (op.mask != nullptr) {
      mtx::csr_validate_or_throw(*op.mask, "SpGemmExecutor: mask");
    }
  }

  void count_cancelled() {
    const std::lock_guard<std::mutex> lock(mu);
    ++stats.cancelled;
  }

  // ---- cache primitives (callers hold no lock) ----------------------------

  EntryPtr find(const pb::StructureFingerprint& fp, const std::string& key) {
    const std::lock_guard<std::mutex> lock(mu);
    for (auto it = lru.begin(); it != lru.end(); ++it) {
      if ((*it)->key == key && (*it)->fp == fp) {
        lru.splice(lru.begin(), lru, it);
        return lru.front();
      }
    }
    return nullptr;
  }

  /// Value-only match: same op, same dims and nnz — the flop field (the
  /// one that needs an O(ncols) pass to recompute) is vouched for by the
  /// caller.
  EntryPtr find_values_only(const SpGemmProblem& p, const std::string& key) {
    const std::lock_guard<std::mutex> lock(mu);
    for (auto it = lru.begin(); it != lru.end(); ++it) {
      const pb::StructureFingerprint& fp = (*it)->fp;
      if ((*it)->key == key && fp.a_rows == p.a_csc.nrows &&
          fp.a_cols == p.a_csc.ncols && fp.b_rows == p.b_csr.nrows &&
          fp.b_cols == p.b_csr.ncols && fp.a_nnz == p.a_csc.nnz() &&
          fp.b_nnz == p.b_csr.nnz()) {
        lru.splice(lru.begin(), lru, it);
        return lru.front();
      }
    }
    return nullptr;
  }

  void insert(EntryPtr entry) {
    const std::lock_guard<std::mutex> lock(mu);
    // A racing thread may have analyzed the same (structure, op); replace
    // rather than hold duplicates.
    for (auto it = lru.begin(); it != lru.end(); ++it) {
      if ((*it)->key == entry->key && (*it)->fp == entry->fp) {
        drop(it);
        break;
      }
    }
    stats.cache_bytes += entry->bytes;
    ++stats.cache_entries;
    lru.push_front(std::move(entry));
    if (opts.cache_capacity_bytes > 0) {
      // Byte-budget mode: the entry count is unbounded; evict by cost.
      // Among the coldest few entries (LRU tail) the one whose plan is
      // cheapest to rebuild per byte it occupies goes first — an old but
      // expensive analysis of a huge structure outlives an equally old
      // cheap one.  The newest entry is always retained, so a single
      // over-budget plan still caches (the budget is a target, not a
      // hard cap).
      while (stats.cache_bytes > opts.cache_capacity_bytes &&
             lru.size() > 1) {
        const std::size_t window = std::min<std::size_t>(8, lru.size() - 1);
        auto victim = std::prev(lru.end());
        double victim_score = score(**victim);
        auto it = std::prev(lru.end());
        for (std::size_t i = 1; i < window; ++i) {
          --it;
          const double s = score(**it);
          if (s < victim_score) {
            victim = it;
            victim_score = s;
          }
        }
        evict(victim);
      }
    } else {
      while (lru.size() > opts.cache_capacity) {
        evict(std::prev(lru.end()));
      }
    }
  }

  /// Rebuild-cost density: seconds of analysis bought back per byte held.
  static double score(const CachedPlanEntry& e) {
    return e.plan_seconds / static_cast<double>(std::max<std::size_t>(e.bytes, 1));
  }

  /// Removes an entry, keeping the byte/entry accounting consistent.
  /// In-flight holders keep their shared_ptr; only the cache's claim on
  /// the footprint is released here.
  void drop(std::list<EntryPtr>::iterator it) {
    stats.cache_bytes -= (*it)->bytes;
    --stats.cache_entries;
    lru.erase(it);
  }

  void evict(std::list<EntryPtr>::iterator it) {
    stats.bytes_evicted += (*it)->bytes;
    ++stats.evictions;
    drop(it);
  }

  // ---- analysis ------------------------------------------------------------

  /// Full analysis for one (structure, op): "auto" selection (mask-aware,
  /// with the sampled nnz estimate, under exactly op.model), kernel
  /// resolution, and the PB symbolic build when the choice lands on pb.
  EntryPtr analyze(const SpGemmProblem& p, const SpGemmOp& op,
                   const std::string& key,
                   const pb::StructureFingerprint& fp) {
    Timer timer;
    check_mask_shape(op, p);

    // Planning must see the op's value-freeness (it legalizes the 8 B
    // key-only stream): derive it from the semiring registration when the
    // caller did not assert it.  Derived state stays out of the cache key —
    // it is a pure function of op.semiring, which is already keyed.
    pb::PbConfig pbcfg = op.pb;
    if (!pbcfg.value_free) pbcfg.value_free = semiring_value_free(op.semiring);

    auto entry = std::make_shared<CachedPlanEntry>();
    entry->fp = fp;
    entry->key = key;
    entry->op = op;
    entry->auto_requested = op.algo == "auto";

    std::string resolved = op.algo;
    if (entry->auto_requested) {
      const std::vector<nnz_t> row_flops = pb::pb_row_flops(p.a_csc, p.b_csr);
      // A plain mask's kept count rides the same sampled pass.
      const mtx::CsrMatrix* plain_mask =
          op.mask != nullptr && !op.complement ? op.mask : nullptr;
      const pb::NnzEstimate est =
          pb::pb_estimate_nnz_c(p.a_csr, p.b_csr, row_flops, plain_mask);
      const double cf = static_cast<double>(fp.flop) /
                        static_cast<double>(std::max<nnz_t>(est.nnz, 1));
      const AlgoInfo* hash = find_algorithm("hash");
      const bool hash_available =
          hash != nullptr && hash->supports_semiring(op.semiring);
      model::SelectionModel m = op.model;
      m.pb_tuple_bytes = static_cast<double>(pb::bytes_per_tuple(
          pb::predict_tuple_format(p.a_csc.nrows, p.b_csr.ncols, fp.flop,
                                   pbcfg)));
      // Record the derating select_algorithm applies (the capped one): a
      // later calibrate() inverts predictions through this constant.
      entry->sel_pb_efficiency =
          std::min(m.pb_efficiency, model::kPbEfficiencyCap);
      entry->sel_column_latency_penalty = m.column_latency_penalty;
      // The model's expand-mask gate is the threshold the pb path runs
      // under, so it credits exactly the skips that will happen.
      m.expand_mask_density_max = pbcfg.expand_mask_max_density;
      model::MaskModel mm;
      if (op.mask != nullptr) {
        mm.present = true;
        mm.complement = op.complement;
        mm.mask_nnz = op.mask->nnz();
        const double cells = static_cast<double>(p.a_csr.nrows) *
                             static_cast<double>(p.b_csr.ncols);
        if (cells > 0) {
          const double density =
              static_cast<double>(op.mask->nnz()) / cells;
          mm.kept_density = op.complement ? 1.0 - density : density;
        }
        if (!op.complement) {
          // The sampled count of product entries the mask keeps is a
          // sharper output bound than nnz(mask).
          mm.mask_nnz = std::min(mm.mask_nnz, est.masked);
          if (fp.flop > 0) {
            nnz_t covered = 0;
            for (index_t r = 0; r < p.a_csr.nrows; ++r) {
              if (op.mask->row_nnz(r) > 0) covered += row_flops[r];
            }
            mm.coverage = static_cast<double>(covered) /
                          static_cast<double>(fp.flop);
          }
        }
      }
      entry->choice =
          model::select_algorithm(cf, fp.flop, hash_available, m, mm);
      resolved = entry->choice.algo;
      entry->predicted_mflops = resolved == "pb"
                                    ? entry->choice.pb_mflops
                                    : entry->choice.column_mflops;
    }

    // Unknown names and unsupported (algo, semiring) pairs fail here, at
    // plan time.  A pb entry runs pb_execute itself and needs only the
    // pair check; every other entry resolves its row-wise kernel.
    entry->use_pb = resolved == "pb";
    if (!entry->use_pb) {
      entry->fn = semiring_algorithm(resolved, op.semiring, op.mask,
                                     op.complement, op.post_op);
    }
    entry->resolved = std::move(resolved);
    if (entry->use_pb) {
      check_algorithm_semiring(entry->resolved, op.semiring);
      const auto cap = static_cast<double>(opts.mem_budget_bytes);
      bool over_budget = false;
      // Cheap bound before paying the symbolic build: no stream format is
      // narrower than 8 B/tuple, so flop tuples that cannot fit even at
      // that width cannot fit at all.
      if (cap > 0 && static_cast<double>(fp.flop) * 8.0 > cap) {
        over_budget = true;
      } else {
        entry->pb_plan = pb::pb_plan_build(p.a_csc, p.b_csr, pbcfg);
        if (cap > 0) {
          // Exact requirement of the built plan: the full tuple stream
          // plus one max-bin sort scratch per thread, at the chosen
          // format's width.
          const pb::SymbolicResult& sym = entry->pb_plan.sym;
          const auto bpt = static_cast<double>(
              pb::bytes_per_tuple(sym.format));
          nnz_t max_bin = 0;
          for (const nnz_t f : sym.bin_fill) max_bin = std::max(max_bin, f);
          const double need =
              bpt * (static_cast<double>(sym.bin_offsets.back()) +
                     static_cast<double>(max_threads()) *
                         static_cast<double>(max_bin));
          over_budget = need > cap;
        }
      }
      if (over_budget) {
        // Graceful degradation: this (structure, op) serves through the
        // low-memory row-wise hash kernel, registered over every
        // semiring, instead of failing.  The downgrade
        // is a property of the cached plan — re-raising the budget means
        // a new executor (or larger cache pressure evicting the entry).
        entry->fn = semiring_algorithm("hash", op.semiring, op.mask,
                                       op.complement, op.post_op);
        entry->resolved = "hash";
        entry->use_pb = false;
        entry->degraded = true;
        entry->degrade_reason = "budget";
        entry->pb_plan = pb::PbPlan{};
        const std::lock_guard<std::mutex> lock(mu);
        ++stats.degraded_plans;
      }
    }
    entry->plan_seconds = timer.elapsed_s();
    entry->bytes = entry_bytes(*entry);
    return entry;
  }

  /// A fresh analysis of (p, op) in place of `stale`, whose plan the
  /// operands no longer fit.  It skips the cache lookup: a fingerprint
  /// collision would find the same stale entry.
  EntryPtr replan(const SpGemmProblem& p, const SpGemmOp& op,
                  const EntryPtr& stale) {
    EntryPtr fresh = analyze(p, op, stale->key,
                             pb::StructureFingerprint::of(p.a_csc, p.b_csr));
    {
      const std::lock_guard<std::mutex> lock(mu);
      ++stats.stale_replans;
      const auto it = std::find(lru.begin(), lru.end(), stale);
      if (it != lru.end()) drop(it);
    }
    insert(fresh);
    return fresh;
  }

  // ---- execution -----------------------------------------------------------

  mtx::CsrMatrix execute_entry(const EntryPtr& entry, const SpGemmProblem& p,
                               RunInfo* info,
                               const CancelToken* cancel = nullptr,
                               const mtx::CsrMatrix* accumulate = nullptr) {
    Timer timer;
    mtx::CsrMatrix c;
    pb::PbTelemetry pb_stats;
    bool oom_fallback = false;
    {
      // Runtime-registered semirings indirect through the process-global
      // DynSemiring bridge; serialize those executions.  Built-ins (and
      // every kernel compiled against them) run fully concurrent.
      std::unique_lock<std::mutex> dyn_lock;
      if (!is_semiring_name(entry->op.semiring)) {
        dyn_lock = std::unique_lock<std::mutex>(dyn_semiring_mutex());
      }
      if (entry->use_pb) {
        try {
          const pb::WorkspacePool::Lease lease = pool.acquire();
          const pb::MaskSpec mask{entry->op.mask, entry->op.complement};
          // The epilogue rides INTO the kernels: an accumulation target
          // merges during CSR conversion (pb/output_accum.hpp) and the
          // post-op applies in the per-bin filter stage — neither the
          // plain product nor the unpruned C is ever materialized.
          const pb::PbEpilogue epi{accumulate, entry->op.post_op};
          pb::PbResult r = pb::pb_execute_named(
              entry->op.semiring, p.a_csc, p.b_csr, entry->pb_plan,
              lease.workspace(), /*check_fingerprint=*/false, mask, cancel,
              epi);
          pb_stats = r.stats;
          c = std::move(r.c);
        } catch (const std::bad_alloc&) {
          // Budget rejection, injected allocation fault, or the real
          // thing.  The lease already returned (RAII above); degrade THIS
          // run to the row-wise fallback and keep the cached pb plan — a
          // later, perhaps less contended, run retries pb and stays
          // bit-identical to a fresh executor's.
          throw_if_stopped(cancel);
          {
            const std::lock_guard<std::mutex> lock(mu);
            ++stats.oom_fallbacks;
            ++stats.degraded_runs;
          }
          const SpGemmOp& op = entry->op;
          c = semiring_algorithm("hash", op.semiring, op.mask, op.complement,
                                 op.post_op)(p);
          oom_fallback = true;
        }
      } else {
        throw_if_stopped(cancel);
        c = entry->fn(p);
      }
      // The registry's kernels return the finished product, mask and
      // post-op included; only an accumulation target is left, merged
      // here as pb merges it during conversion.  Inside the dyn scope:
      // semiring_ewise_add over a runtime semiring rides the same
      // process-global bridge.
      if (accumulate != nullptr && (!entry->use_pb || oom_fallback)) {
        throw_if_stopped(cancel);
        c = semiring_ewise_add(entry->op.semiring, *accumulate, c);
      }
    }
    // Row-wise kernels have no internal poll points: honor a deadline
    // that expired while one ran (pb enforces its own inside the phases).
    if (!entry->use_pb || oom_fallback) throw_if_stopped(cancel);
    const double seconds = timer.elapsed_s();
    const double achieved =
        seconds > 0
            ? static_cast<double>(entry->fp.flop) / seconds / 1e6
            : 0.0;

    // Close the telemetry loop: unmasked "auto" executes feed the sample
    // window (a mask changes both roofline bounds, so masked pairs would
    // fold the mask term into a refit's derating constants).
    if (entry->auto_requested && entry->op.mask == nullptr && !oom_fallback &&
        entry->predicted_mflops > 0 && achieved > 0) {
      const std::lock_guard<std::mutex> lock(mu);
      samples.push_back({entry->resolved, entry->choice.cf,
                         entry->predicted_mflops, achieved,
                         entry->sel_pb_efficiency,
                         entry->sel_column_latency_penalty});
      if (samples.size() > kMaxSamples) samples.erase(samples.begin());
    }

    if (info != nullptr) {
      fill_info(*info, *entry);
      info->achieved_mflops = achieved;
      if (entry->use_pb && !oom_fallback) info->pb_stats = pb_stats;
      if (oom_fallback) {
        info->algo = "hash";
        info->used_pb = false;
        info->degraded = true;
        info->degrade_reason = "oom";
      }
    }
    return c;
  }

  static void fill_info(RunInfo& info, const CachedPlanEntry& entry) {
    info.algo = entry.resolved;
    info.used_pb = entry.use_pb;
    info.degraded = entry.degraded;
    info.degrade_reason = entry.degrade_reason;
    info.flop = entry.fp.flop;
    info.plan_seconds = entry.plan_seconds;
    info.predicted_mflops = entry.predicted_mflops;
    info.choice = entry.choice;
  }

  /// The entry a call runs through, and how it was found.
  struct Resolved {
    EntryPtr entry;
    bool hit = false;         ///< came from the cache
    bool value_only = false;  ///< matched on dims + nnz alone
  };

  /// Finds or builds the entry for (p, op).  A fixed non-pb op resolves
  /// its kernel into a fresh entry that is never cached: there is no
  /// analysis to reuse and no fingerprint to verify.  Any other op is
  /// looked up by (structure, op) — first by dims + nnz alone for a
  /// value-only call — and analyzed and cached on a miss, which counts
  /// the hit or miss.
  Resolved resolve(const SpGemmProblem& p, const SpGemmOp& op,
                   bool values_only) {
    Resolved r;
    if (is_passthrough(op)) {
      check_mask_shape(op, p);
      auto entry = std::make_shared<CachedPlanEntry>();
      entry->op = op;
      entry->resolved = op.algo;
      entry->fn = semiring_algorithm(op.algo, op.semiring, op.mask,
                                     op.complement, op.post_op);
      r.entry = std::move(entry);
      return r;
    }
    const std::string key = op_cache_key(op);
    if (values_only) r.entry = find_values_only(p, key);
    r.value_only = r.hit = r.entry != nullptr;
    if (!r.hit) {
      // No structure on file for a value-only call: the full path.
      const pb::StructureFingerprint fp =
          pb::StructureFingerprint::of(p.a_csc, p.b_csr);
      r.entry = find(fp, key);
      r.hit = r.entry != nullptr;
      if (!r.hit) {
        r.entry = analyze(p, op, key, fp);
        insert(r.entry);
      }
    }
    const std::lock_guard<std::mutex> lock(mu);
    r.hit ? ++stats.cache_hits : ++stats.cache_misses;
    if (r.value_only) ++stats.value_only_hits;
    return r;
  }
};

SpGemmExecutor::SpGemmExecutor(ExecutorOptions opts)
    : impl_(std::make_unique<Impl>(opts)) {}

SpGemmExecutor::~SpGemmExecutor() = default;

mtx::CsrMatrix SpGemmExecutor::run_product(const SpGemmProblem& p,
                                           const SpGemmOp& op, RunInfo* info,
                                           bool values_only,
                                           const RunOptions& ropts,
                                           const mtx::CsrMatrix* accumulate) {
  Impl& im = *impl_;
  if (info != nullptr) *info = RunInfo{};  // no stale fields across reuses
  check_post_op(op, op.accumulate || accumulate != nullptr);
  if (im.opts.validate_inputs) im.validate_problem(p, op);

  // This run's token: RunOptions deadline/cancel + the executor's
  // cancel() epoch, all polled through one stack token.
  CancelToken token;
  std::shared_ptr<CancelToken> epoch_snapshot;
  im.arm_token(token, ropts, epoch_snapshot);

  try {
    Impl::Resolved r = im.resolve(p, op, values_only);
    const bool passthrough = is_passthrough(op);
    {
      const std::lock_guard<std::mutex> lock(im.mu);
      ++im.stats.executes;
      if (passthrough) ++im.stats.passthrough;
    }
    mtx::CsrMatrix c;
    try {
      c = im.execute_entry(r.entry, p, info, &token, accumulate);
    } catch (const StaleLayoutError&) {
      // The plan does not fit these operands: a value-only call on changed
      // structure, a fingerprint collision, or stored zeros under a
      // key-only plan.  Replan once and rerun; a second miss propagates.
      r = Impl::Resolved{im.replan(p, op, r.entry)};
      c = im.execute_entry(r.entry, p, info, &token, accumulate);
    }
    if (info != nullptr) {
      info->cache_hit = r.hit;
      info->value_only = r.value_only;
      info->passthrough = passthrough;
    }
    return c;
  } catch (const CancelledError&) {
    im.count_cancelled();
    throw;
  }
}

mtx::CsrMatrix SpGemmExecutor::run(const SpGemmProblem& p, const SpGemmOp& op,
                                   RunInfo* info) {
  return run(p, op, RunOptions{}, info);
}

mtx::CsrMatrix SpGemmExecutor::run(const SpGemmProblem& p, const SpGemmOp& op,
                                   const RunOptions& ropts, RunInfo* info) {
  if (op.accumulate) {
    throw std::logic_error(
        "SpGemmExecutor::run: the op declared accumulate — pass the matrix "
        "to accumulate into (run(problem, op, c))");
  }
  return run_product(p, op, info, /*values_only=*/false, ropts);
}

mtx::CsrMatrix SpGemmExecutor::run(const SpGemmProblem& p, const SpGemmOp& op,
                                   const mtx::CsrMatrix& accumulate_into,
                                   RunInfo* info) {
  // The target threads into the execution itself: the pb path merges it
  // during CSR conversion (fused accumulate), the row-wise paths post-pass
  // through semiring_ewise_add — bit-identical by construction.
  return run_product(p, op, info, /*values_only=*/false, RunOptions{},
                     &accumulate_into);
}

mtx::CsrMatrix SpGemmExecutor::run_values_updated(const SpGemmProblem& p,
                                                  const SpGemmOp& op,
                                                  RunInfo* info) {
  return run_values_updated(p, op, RunOptions{}, info);
}

mtx::CsrMatrix SpGemmExecutor::run_values_updated(const SpGemmProblem& p,
                                                  const SpGemmOp& op,
                                                  const RunOptions& ropts,
                                                  RunInfo* info) {
  if (op.accumulate) {
    throw std::logic_error(
        "SpGemmExecutor::run_values_updated: accumulating ops use "
        "run(problem, op, c)");
  }
  return run_product(p, op, info, /*values_only=*/true, ropts);
}

void SpGemmExecutor::cancel() {
  Impl& im = *impl_;
  std::shared_ptr<CancelToken> old;
  {
    const std::lock_guard<std::mutex> lock(im.mu);
    old = std::move(im.epoch);
    im.epoch = std::make_shared<CancelToken>();
  }
  old->request_cancel();
}

void SpGemmExecutor::prepare(const SpGemmProblem& p, const SpGemmOp& op,
                             RunInfo* info) {
  Impl& im = *impl_;
  check_post_op(op, op.accumulate);
  if (im.opts.validate_inputs) im.validate_problem(p, op);
  const Impl::Resolved r = im.resolve(p, op, /*values_only=*/false);
  if (info != nullptr) {
    *info = RunInfo{};
    Impl::fill_info(*info, *r.entry);
    info->cache_hit = r.hit;
    info->passthrough = is_passthrough(op);
    // A fixed algorithm's entry never fingerprints the structure; prepare
    // still reports the problem's flop.
    if (info->passthrough) {
      info->flop = pb::StructureFingerprint::of(p.a_csc, p.b_csr).flop;
    }
  }
}

ExecutorStats SpGemmExecutor::stats() const {
  const std::lock_guard<std::mutex> lock(impl_->mu);
  return impl_->stats;
}

pb::WorkspacePool::Stats SpGemmExecutor::pool_stats() const {
  return impl_->pool.stats();
}

pb::PbWorkspace::Stats SpGemmExecutor::workspace_stats() const {
  return impl_->pool.workspace_stats();
}

std::vector<model::PerfSample> SpGemmExecutor::samples() const {
  const std::lock_guard<std::mutex> lock(impl_->mu);
  return impl_->samples;
}

}  // namespace pbs
