#include "common/lock_rank.h"

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <vector>

namespace taurus {

namespace {

struct HeldLock {
  LockRank rank = LockRank::kUnranked;
  const char* name = "";
  const void* id = nullptr;
};

// Per-thread stack of held instrumented locks, in acquisition order. The
// stacks are small (the deepest legitimate chain is pool_gate ->
// thread_pool), so linear scans are fine.
std::vector<HeldLock>& HeldStack() {
  thread_local std::vector<HeldLock> stack;
  return stack;
}

std::atomic<bool> g_enabled{kLockRankChecksDefault};
std::atomic<std::int64_t> g_checks{0};
std::atomic<std::int64_t> g_violations{0};
std::atomic<LockRankRegistry::Handler> g_handler{nullptr};

void Report(const char* rule, const char* rule_text, LockRank acquiring_rank,
            const char* acquiring_name, const HeldLock& held) {
  LockRankViolation v;
  v.rule = rule;
  v.acquiring = acquiring_name;
  v.holding = held.name;
  v.acquiring_rank = RankValue(acquiring_rank);
  v.holding_rank = RankValue(held.rank);
  v.message = "lock-rank violation [";
  v.message += rule;
  v.message += "]: acquiring \"" + v.acquiring + "\" (rank " +
               std::to_string(v.acquiring_rank) + ") while holding \"" +
               v.holding + "\" (rank " + std::to_string(v.holding_rank) +
               ") — DESIGN.md §12 ";
  v.message += rule;
  v.message += ": ";
  v.message += rule_text;

  g_violations.fetch_add(1, std::memory_order_relaxed);
  if (LockRankRegistry::Handler handler =
          g_handler.load(std::memory_order_acquire)) {
    handler(v);
    return;
  }
  std::fprintf(stderr, "%s\n", v.message.c_str());
  std::abort();
}

}  // namespace

void LockRankRegistry::SetEnabled(bool enabled) {
  g_enabled.store(enabled, std::memory_order_release);
}

bool LockRankRegistry::enabled() {
  return g_enabled.load(std::memory_order_acquire);
}

void LockRankRegistry::CheckAcquire(LockRank rank, const char* name,
                                    const void* id) {
  if (!enabled()) return;
  g_checks.fetch_add(1, std::memory_order_relaxed);
  std::vector<HeldLock>& stack = HeldStack();
  if (stack.empty()) return;

  // Recursive acquisition of the same lock object is always LR2, whatever
  // its rank: none of the wrapped std:: mutexes are recursive.
  for (const HeldLock& held : stack) {
    if (held.id == id) {
      Report("LR2", "recursive acquisition of a non-recursive lock", rank,
             name, held);
      return;
    }
  }
  if (rank == LockRank::kUnranked) return;

  // Compare against the highest-ranked held lock, which is the binding
  // constraint for every rule.
  const HeldLock* top = nullptr;
  for (const HeldLock& held : stack) {
    if (held.rank == LockRank::kUnranked) continue;
    if (top == nullptr || RankValue(held.rank) > RankValue(top->rank)) {
      top = &held;
    }
  }
  if (top == nullptr) return;

  if (RankValue(top->rank) >= kLeafRankFloor) {
    Report("LR3", "no lock may be acquired while holding a leaf-band lock",
           rank, name, *top);
    return;
  }
  if (RankValue(rank) < RankValue(top->rank)) {
    Report("LR1", "locks must be acquired in ascending rank order", rank,
           name, *top);
    return;
  }
  if (rank == top->rank) {
    Report("LR2", "no two locks of the same rank may be held at once", rank,
           name, *top);
  }
}

void LockRankRegistry::NoteAcquired(LockRank rank, const char* name,
                                    const void* id) {
  if (!enabled()) return;
  HeldStack().push_back(HeldLock{rank, name, id});
}

void LockRankRegistry::NoteReleased(const void* id) {
  std::vector<HeldLock>& stack = HeldStack();
  // Scan from the top so out-of-order releases (std::unique_lock juggling)
  // unwind correctly. A miss is fine: the lock was acquired while the
  // registry was disabled.
  for (auto it = stack.rbegin(); it != stack.rend(); ++it) {
    if (it->id == id) {
      stack.erase(std::next(it).base());
      return;
    }
  }
}

LockRankRegistry::Handler LockRankRegistry::SetViolationHandler(
    Handler handler) {
  return g_handler.exchange(handler, std::memory_order_acq_rel);
}

std::int64_t LockRankRegistry::checks() {
  return g_checks.load(std::memory_order_relaxed);
}

std::int64_t LockRankRegistry::violations() {
  return g_violations.load(std::memory_order_relaxed);
}

void LockRankRegistry::ResetCountersForTest() {
  g_checks.store(0, std::memory_order_relaxed);
  g_violations.store(0, std::memory_order_relaxed);
}

int LockRankRegistry::HeldDepthForTest() {
  return static_cast<int>(HeldStack().size());
}

}  // namespace taurus
