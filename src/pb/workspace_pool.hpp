// Thread-safe pool of PbWorkspace (pb_spgemm.hpp) — the memory every
// SpGemmExecutor runs its PB products in.
//
// PbWorkspace deliberately serves ONE pipeline execution at a time (its
// tuple pool is a single buffer every acquire returns).  A serving layer
// that lets N threads multiply through one cached plan simultaneously
// therefore needs N workspaces — but exactly N, warm, and reused, not one
// fresh allocation per request.  WorkspacePool leases a workspace per
// in-flight execution: acquire() hands out the most recently returned idle
// workspace (LIFO, so the warmest pages are reused first) or constructs a
// new one when every workspace is leased, and the RAII Lease returns it on
// destruction.  Steady-state serving at concurrency N settles on exactly N
// workspaces, each behaving like the single-pipeline pool (no allocation
// once sized).  Members are held by unique_ptr, so a workspace never moves
// while it is leased.
//
// The pool's own bookkeeping is mutex-guarded and cheap (two vector ops
// per lease); the leased workspace itself is touched only by its holder.
// workspace_stats() aggregates the members' reuse counters the way
// PbWorkspace::stats() reports them — call it (and stats()) from quiescent
// code: the counters are written lock-free by in-flight executions.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <utility>
#include <vector>

#include "pb/pb_spgemm.hpp"

namespace pbs::pb {

class WorkspacePool {
 public:
  struct Stats {
    std::uint64_t leases = 0;   ///< total acquire() calls
    std::uint64_t created = 0;  ///< leases that constructed a new workspace
    std::uint64_t reused = 0;   ///< leases served by an idle workspace
    std::size_t workspaces = 0;      ///< workspaces currently owned
    std::size_t peak_in_flight = 0;  ///< max simultaneous leases observed
    std::size_t in_flight = 0;       ///< leases outstanding right now
    std::size_t mem_used = 0;        ///< bytes charged to the pool budget
    std::size_t mem_budget = 0;      ///< budget cap (0 = unlimited)
  };

  /// Exclusive use of one pooled workspace; returns it on destruction.
  /// Move-only; the workspace reference stays valid for the lease's
  /// lifetime (the pool never destroys members while it lives).
  class Lease {
   public:
    Lease(Lease&& o) noexcept
        : pool_(std::exchange(o.pool_, nullptr)),
          ws_(std::exchange(o.ws_, nullptr)) {}
    Lease& operator=(Lease&&) = delete;
    Lease(const Lease&) = delete;
    Lease& operator=(const Lease&) = delete;
    ~Lease() {
      if (pool_ != nullptr) pool_->release(ws_);
    }

    [[nodiscard]] PbWorkspace& workspace() const { return *ws_; }

   private:
    friend class WorkspacePool;
    Lease(WorkspacePool* pool, PbWorkspace* ws) : pool_(pool), ws_(ws) {}
    WorkspacePool* pool_;
    PbWorkspace* ws_;
  };

  WorkspacePool() = default;
  WorkspacePool(const WorkspacePool&) = delete;
  WorkspacePool& operator=(const WorkspacePool&) = delete;

  /// Caps the pool-wide workspace footprint (tuple pools + sort scratch
  /// across all members) at `bytes`; 0 means unlimited.  Growth past the
  /// cap throws MemoryBudgetError from the leased workspace.  Call before
  /// the first acquire (the executor does, at construction).
  void set_budget_bytes(std::size_t bytes) {
    const std::lock_guard<std::mutex> lock(mu_);
    budget_.cap = bytes;
    for (const auto& ws : all_) ws->set_budget(&budget_);
  }

  [[nodiscard]] Lease acquire() {
    const std::lock_guard<std::mutex> lock(mu_);
    ++stats_.leases;
    PbWorkspace* ws = nullptr;
    if (!idle_.empty()) {
      ws = idle_.back();
      idle_.pop_back();
      ++stats_.reused;
    } else {
      all_.push_back(std::make_unique<PbWorkspace>());
      ws = all_.back().get();
      ws->set_budget(&budget_);
      ++stats_.created;
    }
    ++in_flight_;
    stats_.peak_in_flight = std::max(stats_.peak_in_flight, in_flight_);
    return Lease(this, ws);
  }

  [[nodiscard]] Stats stats() const {
    const std::lock_guard<std::mutex> lock(mu_);
    Stats s = stats_;
    s.workspaces = all_.size();
    s.in_flight = in_flight_;
    s.mem_used = budget_.used.load(std::memory_order_relaxed);
    s.mem_budget = budget_.cap;
    return s;
  }

  /// Members' allocator counters summed (peak_request is the max) — the
  /// same contract as PbWorkspace::stats() over the whole pool.
  [[nodiscard]] PbWorkspace::Stats workspace_stats() const {
    const std::lock_guard<std::mutex> lock(mu_);
    PbWorkspace::Stats agg;
    for (const auto& ws : all_) {
      const PbWorkspace::Stats s = ws->stats();
      agg.acquires += s.acquires;
      agg.allocations += s.allocations;
      agg.reuses += s.reuses;
      agg.scratch_allocations += s.scratch_allocations;
      agg.scratch_reuses += s.scratch_reuses;
      agg.peak_request = std::max(agg.peak_request, s.peak_request);
      agg.budget_rejections += s.budget_rejections;
    }
    return agg;
  }

 private:
  void release(PbWorkspace* ws) {
    const std::lock_guard<std::mutex> lock(mu_);
    idle_.push_back(ws);
    --in_flight_;
  }

  mutable std::mutex mu_;
  std::vector<std::unique_ptr<PbWorkspace>> all_;
  std::vector<PbWorkspace*> idle_;  ///< LIFO: warmest first
  std::size_t in_flight_ = 0;
  Stats stats_;
  MemoryBudget budget_;  ///< shared by all members; outlives them
};

}  // namespace pbs::pb
