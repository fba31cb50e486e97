#ifndef TAURUS_ENGINE_PLAN_CACHE_H_
#define TAURUS_ENGINE_PLAN_CACHE_H_

#include <cstdint>
#include <functional>
#include <list>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/mutex.h"
#include "common/result.h"
#include "common/thread_annotations.h"
#include "frontend/binder.h"
#include "myopt/skeleton.h"

namespace taurus {

/// A skeleton plan in portable form. A live BlockSkeleton holds raw
/// TableRef* pointers into one specific bound AST, so it dies with its
/// statement; the frozen form identifies leaves by ref_id and expression
/// subqueries by deterministic traversal ordinal, which are stable across
/// re-parses of the same (fingerprint-identical) statement. Freeze turns a
/// live skeleton into this form for caching; Thaw re-attaches it to a
/// freshly bound statement.
struct FrozenSkeletonNode {
  bool is_join = false;

  // Leaf.
  int leaf_ref_id = -1;
  AccessMethod access = AccessMethod::kTableScan;
  int index_id = -1;

  // Join.
  JoinMethod method = JoinMethod::kNestedLoop;
  JoinType join_type = JoinType::kInner;
  std::unique_ptr<FrozenSkeletonNode> left;
  std::unique_ptr<FrozenSkeletonNode> right;

  double est_rows = 0.0;
  double est_cost = 0.0;
};

struct FrozenBlockSkeleton {
  std::unique_ptr<FrozenSkeletonNode> root;  ///< null when block has no FROM
  double out_rows = 1.0;
  double cost = 0.0;
  bool stream_agg = false;

  /// Sub-skeletons of derived-table leaves, keyed by the leaf's ref_id.
  std::vector<std::pair<int, FrozenBlockSkeleton>> derived;
  /// Sub-skeletons of expression subqueries (EXISTS / IN / scalar), in the
  /// canonical block traversal order.
  std::vector<FrozenBlockSkeleton> subqueries;
  std::vector<FrozenBlockSkeleton> union_arms;
};

/// Converts a live skeleton into portable form. Fails (making the plan
/// uncacheable, never wrong) if the skeleton references structure that
/// cannot be identified positionally.
Result<FrozenBlockSkeleton> FreezeSkeleton(const BlockSkeleton& skel);

/// Reconstructs a live skeleton over `stmt` (whose root block must be
/// structurally identical to the statement the frozen skeleton was compiled
/// from — guaranteed by fingerprint-equality plus replayed rewrites).
/// Validates leaf kinds, ref ranges and index ids; any mismatch returns an
/// error, which the caller treats as a cache miss.
Result<std::unique_ptr<BlockSkeleton>> ThawSkeleton(
    const FrozenBlockSkeleton& frozen, const BoundStatement& stmt);

struct PlanCacheConfig {
  bool enable = true;
  /// Max cached skeletons (LRU evicted beyond). The cache applies a change
  /// on its next insert, the only operation that evicts.
  size_t capacity = 64;
};

struct PlanCacheStats {
  int64_t hits = 0;
  int64_t misses = 0;
  int64_t insertions = 0;
  int64_t evictions = 0;
  /// Entries dropped on lookup because catalog schema/stats versions moved.
  int64_t invalidations = 0;
};

/// One cached compilation: the frozen skeleton plus routing metadata and
/// the catalog versions it was compiled against.
struct PlanCacheEntry {
  uint64_t fingerprint = 0;
  FrozenBlockSkeleton skeleton;

  /// Routing metadata: which optimizer produced the skeleton, and whether
  /// the Orca detour's AST rewrites (decorrelation, general OR factoring)
  /// must be replayed before thawing.
  bool used_orca = false;
  bool via_orca_route = false;

  double est_cost = 0.0;   ///< skeleton cost estimate
  double est_rows = 0.0;   ///< estimated output cardinality
  double cold_optimize_ms = 0.0;  ///< optimize wall time of the cold compile

  uint64_t schema_version = 0;
  uint64_t stats_version = 0;
};

/// LRU cache of frozen skeleton plans keyed by statement fingerprint (plus
/// routing tag). Invalidation is version-based: a lookup whose entry was
/// compiled against older catalog schema/stats versions drops the entry
/// and reports a miss, so DDL and ANALYZE never serve a stale plan.
///
/// Concurrency contract: one mutex guards the whole cache. A lookup is a
/// hash probe plus a list splice, so the lock is held for well under a
/// microsecond per statement. Entries are handed out as shared_ptr so a
/// thaw proceeding after the lock is released cannot race an eviction.
/// Every member, `set_capacity` and `Clear` included, takes the one mutex.
///
/// Eviction is exact LRU: a hit moves its entry to the front of the
/// recency list and an insert over capacity drops the back, both O(1).
class PlanCache {
 public:
  explicit PlanCache(size_t capacity = 64) : capacity_(capacity) {}
  PlanCache(const PlanCache&) = delete;
  PlanCache& operator=(const PlanCache&) = delete;

  /// Returns the entry for `key` if present and compiled against the given
  /// catalog versions; bumps it to most-recently-used. Returns nullptr on
  /// miss (and erases the entry when it was stale). The returned entry
  /// stays valid for the caller's lifetime even if concurrently evicted.
  std::shared_ptr<const PlanCacheEntry> Lookup(const std::string& key,
                                               uint64_t schema_version,
                                               uint64_t stats_version)
      TAURUS_EXCLUDES(mu_);

  /// Inserts (or replaces) the entry for `key` as most-recently-used,
  /// evicting least recently used entries while over capacity. A given
  /// `capacity` replaces the current one first: the engine passes its knob
  /// here, so a change needs no lock acquisition of its own.
  void Insert(const std::string& key, PlanCacheEntry entry,
              std::optional<size_t> capacity = std::nullopt)
      TAURUS_EXCLUDES(mu_);

  void Clear() TAURUS_EXCLUDES(mu_);
  /// Shrinking below the current size evicts least-recently-used entries.
  void set_capacity(size_t capacity) TAURUS_EXCLUDES(mu_);
  size_t capacity() const TAURUS_EXCLUDES(mu_);
  size_t size() const TAURUS_EXCLUDES(mu_);

  PlanCacheStats stats() const TAURUS_EXCLUDES(mu_);
  void ResetStats() TAURUS_EXCLUDES(mu_);

  /// Invalidation-hook causes, by which version stamp moved.
  ///   "ddl"     — catalog schema version (CREATE TABLE / CREATE INDEX)
  ///   "analyze" — catalog stats version (ANALYZE)
  using InvalidationHook =
      std::function<void(uint64_t fingerprint, const char* cause)>;

  /// Installs a hook called after a lookup dropped a stale entry — the
  /// digest store's plan-epoch signal (DESIGN.md section 15). Invoked
  /// outside the cache lock. Must be set before concurrent queries start
  /// (engine construction), like the config knobs.
  void SetInvalidationHook(InvalidationHook hook) {
    invalidation_hook_ = std::move(hook);
  }

 private:
  /// Recency list node: most recently used at the front.
  using Slot = std::pair<std::string, std::shared_ptr<const PlanCacheEntry>>;

  void EvictOverCapacityLocked() TAURUS_REQUIRES(mu_);

  mutable Mutex mu_{LockRank::kPlanCache, "engine.plan_cache"};
  std::list<Slot> lru_ TAURUS_GUARDED_BY(mu_);
  std::unordered_map<std::string, std::list<Slot>::iterator> index_
      TAURUS_GUARDED_BY(mu_);
  size_t capacity_ TAURUS_GUARDED_BY(mu_);
  PlanCacheStats stats_ TAURUS_GUARDED_BY(mu_);
  InvalidationHook invalidation_hook_;  ///< set once before concurrency
};

}  // namespace taurus

#endif  // TAURUS_ENGINE_PLAN_CACHE_H_
