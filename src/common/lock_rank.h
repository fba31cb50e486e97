#ifndef TAURUS_COMMON_LOCK_RANK_H_
#define TAURUS_COMMON_LOCK_RANK_H_

#include <cstdint>
#include <string>

namespace taurus {

// Runtime lock-order analyzer for the orderings Clang Thread Safety
// Analysis cannot express (DESIGN.md section 14): nesting across classes,
// which the per-class annotations never see together. Every
// Mutex/SharedMutex (common/mutex.h) registers a rank from the DESIGN.md
// section 12 rank table; acquisitions push onto a thread-local held-lock
// stack and a rank inversion fails fast with both lock names and the rule
// it violates.
//
// The checks are always on in Debug and sanitizer builds and off in
// release builds, mirroring kVerifyPlansDefault (verify/diagnostics.h);
// LockRankRegistry::SetEnabled overrides the default either way at
// runtime. Counters surface as taurus.verify.lock_rank.* gauges next to
// the plan-verifier counters.

#if !defined(NDEBUG) || defined(TAURUS_VERIFY_PLANS_DEFAULT_ON)
inline constexpr bool kLockRankChecksDefault = true;
#else
inline constexpr bool kLockRankChecksDefault = false;
#endif

// The numbered lock hierarchy of DESIGN.md section 12, one enumerator per
// rank-table row. Lower ranks must be acquired before higher ranks.
// Ranks at or above kLeafRankFloor are leaves: no lock of any rank may be
// acquired while one is held.
enum class LockRank : int {
  // Rank 0 opts a lock out of ordering checks entirely (still tracked for
  // recursive-acquisition detection). No lock in src/ uses it; it exists
  // for scratch locks in tests and examples.
  kUnranked = 0,

  kServerAdmission = 10,   // AdmissionController::mu_      "server.admission"
  kPlanCache = 20,         // PlanCache::mu_                 "engine.plan_cache"
  kQuarantine = 30,        // QuarantineTable::mu_           "engine.quarantine"
  kMdpRelationCache = 50,  // MetadataProvider::cache_mu_    "mdp.relation_cache"
  kPoolGate = 60,          // Database::pool_mu_             "engine.pool_gate"
  kThreadPool = 70,        // ThreadPool::mu_                "common.thread_pool"

  // Leaf band: only trivial, lock-free work happens under these.
  kMetricsRegistry = 110,  // MetricsRegistry::mu_           "obs.metrics_registry"
  kFaultInjector = 130,    // FaultInjector::Impl::mu        "common.fault_injector"
  kDigestStore = 140,      // DigestStore::mu_               "obs.digest_store"
  kFlightRecorder = 150,   // FlightRecorder::mu_            "obs.flight_recorder"
};

inline constexpr int kLeafRankFloor = 100;

constexpr int RankValue(LockRank rank) { return static_cast<int>(rank); }

// A detected violation of the DESIGN.md section 12 ordering rules.
//   LR1: acquiring a lock whose rank is below a held lock's rank.
//   LR2: recursive acquisition, or acquiring a lock of the same rank as a
//        held lock.
//   LR3: acquiring any lock while holding a leaf-band lock (rank >= 100).
struct LockRankViolation {
  const char* rule = "";       // "LR1" | "LR2" | "LR3"
  std::string acquiring;       // name of the lock being acquired
  std::string holding;         // name of the held lock that conflicts
  int acquiring_rank = 0;
  int holding_rank = 0;
  std::string message;         // full diagnostic, names + rule + DESIGN.md ref
};

class LockRankRegistry {
 public:
  // Runtime arm/disarm; the initial state is kLockRankChecksDefault.
  // Enabling mid-run only checks acquisitions made after the call.
  static void SetEnabled(bool enabled);
  static bool enabled();

  // Called by the Mutex/SharedMutex wrappers. `id` is the lock's address
  // (identity for recursion/release matching). CheckAcquire runs before
  // blocking so an inversion is reported even when the acquisition would
  // deadlock.
  static void CheckAcquire(LockRank rank, const char* name, const void* id);
  static void NoteAcquired(LockRank rank, const char* name, const void* id);
  static void NoteReleased(const void* id);

  // Violation sink. The default handler prints the diagnostic to stderr
  // and aborts ("fail fast"); tests install a capturing handler. Returns
  // the previous handler. Passing nullptr restores the default.
  using Handler = void (*)(const LockRankViolation&);
  static Handler SetViolationHandler(Handler handler);

  // Process-wide counters (relaxed; for taurus.verify.lock_rank.*).
  static std::int64_t checks();
  static std::int64_t violations();
  static void ResetCountersForTest();

  // Depth of the calling thread's held-lock stack (test introspection).
  static int HeldDepthForTest();
};

}  // namespace taurus

#endif  // TAURUS_COMMON_LOCK_RANK_H_
