#include "fault.hpp"

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <mutex>
#include <string>
#include <thread>

#include "errors.hpp"

namespace pbs {

namespace {

// -1 = env not yet consulted, 0 = idle, 1 = at least one fault armed.
std::atomic<int> g_state{-1};
std::once_flag g_env_once;

std::atomic<std::int64_t> g_alloc_countdown{-1};        // -1 = unarmed
std::atomic<std::int64_t> g_point_countdown[kNumFaultPoints] = {
    {-1}, {-1}, {-1}, {-1}};
std::atomic<std::uint32_t> g_slow_bin_ms{0};

bool any_armed() noexcept {
  if (g_alloc_countdown.load(std::memory_order_relaxed) >= 0) return true;
  for (const auto& c : g_point_countdown)
    if (c.load(std::memory_order_relaxed) >= 0) return true;
  return g_slow_bin_ms.load(std::memory_order_relaxed) > 0;
}

void refresh_state() noexcept {
  g_state.store(any_armed() ? 1 : 0, std::memory_order_release);
}

FaultPoint parse_point(const std::string& name, bool& ok) noexcept {
  for (int i = 0; i < kNumFaultPoints; ++i) {
    const auto p = static_cast<FaultPoint>(i);
    if (name == fault_point_name(p)) {
      ok = true;
      return p;
    }
  }
  ok = false;
  return FaultPoint::kPlanBuild;
}

void init_from_env() noexcept {
  if (const char* s = std::getenv("PBS_FAULT_ALLOC_AFTER")) {
    g_alloc_countdown.store(std::strtoll(s, nullptr, 10),
                            std::memory_order_relaxed);
  }
  if (const char* s = std::getenv("PBS_FAULT_THROW_AT")) {
    std::string spec(s);
    std::int64_t skip = 0;
    if (auto colon = spec.find(':'); colon != std::string::npos) {
      skip = std::strtoll(spec.c_str() + colon + 1, nullptr, 10);
      spec.resize(colon);
    }
    bool ok = false;
    FaultPoint p = parse_point(spec, ok);
    if (ok) {
      g_point_countdown[static_cast<int>(p)].store(skip,
                                                   std::memory_order_relaxed);
    } else {
      // A retired or mistyped point must not pass for a fault that never
      // fired.
      std::string valid;
      for (int i = 0; i < kNumFaultPoints; ++i) {
        valid += (i > 0 ? ", " : "");
        valid += fault_point_name(static_cast<FaultPoint>(i));
      }
      std::fprintf(stderr,
                   "PBS_FAULT_THROW_AT: unknown fault point '%s' (valid: "
                   "%s); nothing armed\n",
                   spec.c_str(), valid.c_str());
    }
  }
  if (const char* s = std::getenv("PBS_FAULT_SLOW_BIN_MS")) {
    g_slow_bin_ms.store(static_cast<std::uint32_t>(std::strtoul(s, nullptr, 10)),
                        std::memory_order_relaxed);
  }
  refresh_state();
}

void ensure_env() noexcept {
  std::call_once(g_env_once, init_from_env);
}

}  // namespace

const char* fault_point_name(FaultPoint p) noexcept {
  switch (p) {
    case FaultPoint::kPlanBuild: return "plan_build";
    case FaultPoint::kExpand: return "expand";
    case FaultPoint::kSortCompress: return "sort_compress";
    case FaultPoint::kConvert: return "convert";
  }
  return "?";
}

bool FaultInjector::enabled() noexcept {
  int st = g_state.load(std::memory_order_relaxed);
  if (st >= 0) return st != 0;
  ensure_env();
  return g_state.load(std::memory_order_acquire) != 0;
}

void FaultInjector::fail_alloc_after(std::int64_t n) noexcept {
  ensure_env();
  g_alloc_countdown.store(n, std::memory_order_relaxed);
  refresh_state();
}

void FaultInjector::throw_at(FaultPoint p, std::int64_t skip) noexcept {
  ensure_env();
  g_point_countdown[static_cast<int>(p)].store(skip, std::memory_order_relaxed);
  refresh_state();
}

void FaultInjector::slow_bin(std::uint32_t ms) noexcept {
  ensure_env();
  g_slow_bin_ms.store(ms, std::memory_order_relaxed);
  refresh_state();
}

void FaultInjector::reset() noexcept {
  ensure_env();
  g_alloc_countdown.store(-1, std::memory_order_relaxed);
  for (auto& c : g_point_countdown) c.store(-1, std::memory_order_relaxed);
  g_slow_bin_ms.store(0, std::memory_order_relaxed);
  refresh_state();
}

void FaultInjector::on_alloc_slow(std::size_t) {
  // fetch_sub walks the countdown; exactly one thread observes 0 and
  // throws.  The injector then disarms (one-shot) so a subsequent
  // retry on the same process succeeds.
  if (g_alloc_countdown.load(std::memory_order_relaxed) < 0) return;
  if (g_alloc_countdown.fetch_sub(1, std::memory_order_relaxed) == 0) {
    g_alloc_countdown.store(-1, std::memory_order_relaxed);
    refresh_state();
    throw FaultInjectedAllocError();
  }
}

void FaultInjector::at_slow(FaultPoint p) {
  auto& countdown = g_point_countdown[static_cast<int>(p)];
  if (countdown.load(std::memory_order_relaxed) < 0) return;
  if (countdown.fetch_sub(1, std::memory_order_relaxed) == 0) {
    countdown.store(-1, std::memory_order_relaxed);
    refresh_state();
    throw FaultInjectedError(std::string("fault injection: throw at ") +
                             fault_point_name(p));
  }
}

void FaultInjector::on_bin_slow() {
  std::uint32_t ms = g_slow_bin_ms.load(std::memory_order_relaxed);
  if (ms > 0) std::this_thread::sleep_for(std::chrono::milliseconds(ms));
}

}  // namespace pbs
