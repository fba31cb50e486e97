#ifndef TAURUS_OBS_DIGEST_STORE_H_
#define TAURUS_OBS_DIGEST_STORE_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/latency_histogram.h"
#include "common/lock_rank.h"
#include "common/mutex.h"
#include "common/thread_annotations.h"
#include "obs/query_event.h"

namespace taurus {

/// Statement-digest store knobs. Read live, so knob changes apply to the
/// next recorded query; changing them must be quiesced relative to
/// in-flight queries (the engine config contract).
struct DigestStoreConfig {
  bool enable = true;
  /// Max distinct digests kept; least-recently-executed evicted beyond.
  size_t capacity = 1024;
};

/// Aggregate latency summary small enough to keep two per epoch split
/// (count/sum/max, no buckets — the full log-bucketed histogram covers the
/// digest's lifetime).
struct LatencySummary {
  int64_t count = 0;
  double sum_ms = 0.0;
  double max_ms = 0.0;

  void Add(double ms) {
    ++count;
    sum_ms += ms;
    if (ms > max_ms) max_ms = ms;
  }
  void Merge(const LatencySummary& other) {
    count += other.count;
    sum_ms += other.sum_ms;
    if (other.max_ms > max_ms) max_ms = other.max_ms;
  }
  double mean_ms() const { return count > 0 ? sum_ms / count : 0.0; }
};

/// Point-in-time copy of one digest row (SHOW DIGESTS / DigestsJson).
struct DigestSnapshot {
  uint64_t fingerprint = 0;
  std::string statement;  ///< canonical text of the first-seen execution
  int64_t calls = 0;
  int64_t errors = 0;
  int64_t orca_calls = 0;
  int64_t mysql_calls = 0;
  int64_t shed = 0;
  int64_t fallbacks = 0;
  int64_t quarantine_hits = 0;
  int64_t verifier_violations = 0;
  int64_t plan_cache_hits = 0;
  int64_t rows_returned = 0;
  /// Lifetime log-bucketed latency distribution.
  int64_t latency_count = 0;
  double latency_sum_ms = 0.0;
  double latency_p50 = 0.0;
  double latency_p95 = 0.0;
  double latency_p99 = 0.0;
  double latency_max_ms = 0.0;
  /// Per-path splits (Orca detour vs MySQL path).
  LatencySummary orca_latency;
  LatencySummary mysql_latency;
  /// Plan-epoch split: `epoch` counts from 1 and increments whenever the
  /// digest's cached skeleton changed (DDL / ANALYZE / quarantine
  /// transition); `epoch_latency` covers executions since the last bump,
  /// `prev_epoch_latency` the epoch before it — the two-sided comparison
  /// that makes a plan regression visible from SQL.
  int64_t plan_epoch = 1;
  std::string epoch_cause;  ///< what bumped into the current epoch ("" = none)
  LatencySummary epoch_latency;
  LatencySummary prev_epoch_latency;
};

/// Thread-safe LRU-bounded aggregation table keyed by statement
/// fingerprint — the same fingerprint that keys the plan cache and
/// quarantine, so every surface talks about the same statement identity.
/// Record is one short leaf-ranked critical section (rank 140: nothing is
/// acquired under it) plus atomic histogram updates; Snapshot copies rows
/// out so renderers never hold the lock.
class DigestStore {
 public:
  explicit DigestStore(const DigestStoreConfig& config) : config_(config) {}
  DigestStore(const DigestStore&) = delete;
  DigestStore& operator=(const DigestStore&) = delete;

  /// Folds one finished execution into its digest (creating/evicting as
  /// needed); `latency_ms` is its end-to-end wall time. The canonical text
  /// is copied only when the digest is first seen. No-op when the store is
  /// disabled.
  void Record(const QueryEvent& event, bool error, double latency_ms);

  /// Bumps `fingerprint`'s plan epoch: folds the current epoch's latency
  /// into the previous-epoch summary and starts a fresh one. Idempotent
  /// until the next execution — a bump is only applied when the current
  /// epoch has recorded at least one call, so the multiple invalidation
  /// hooks a single DDL can fire collapse into one visible epoch change.
  /// Returns true when the epoch actually advanced. Unknown fingerprints
  /// are ignored (their entry starts at epoch 1 anyway).
  bool BumpEpoch(uint64_t fingerprint, const char* cause);

  /// All digests, most-executed first.
  std::vector<DigestSnapshot> Snapshot() const;

  size_t Size() const;
  void Clear();

  int64_t records() const {
    return records_.load(std::memory_order_relaxed);
  }
  int64_t lru_evictions() const {
    return evictions_.load(std::memory_order_relaxed);
  }
  int64_t epoch_bumps() const {
    return epoch_bumps_.load(std::memory_order_relaxed);
  }

 private:
  struct Entry {
    std::string statement;
    int64_t calls = 0;
    int64_t errors = 0;
    int64_t orca_calls = 0;
    int64_t mysql_calls = 0;
    int64_t shed = 0;
    int64_t fallbacks = 0;
    int64_t quarantine_hits = 0;
    int64_t verifier_violations = 0;
    int64_t plan_cache_hits = 0;
    int64_t rows_returned = 0;
    LatencyHistogram latency;
    LatencySummary orca_latency;
    LatencySummary mysql_latency;
    int64_t plan_epoch = 1;
    std::string epoch_cause;
    LatencySummary epoch_latency;
    LatencySummary prev_epoch_latency;
    /// Recency stamp for LRU eviction (executions, not epoch bumps).
    uint64_t last_used = 0;
  };

  /// Requires mu_: evicts least-recently-executed entries over capacity.
  void EvictOverCapacityLocked(size_t capacity) TAURUS_REQUIRES(mu_);

  const DigestStoreConfig& config_;
  mutable Mutex mu_{LockRank::kDigestStore, "obs.digest_store"};
  std::unordered_map<uint64_t, std::unique_ptr<Entry>> map_
      TAURUS_GUARDED_BY(mu_);
  uint64_t tick_ TAURUS_GUARDED_BY(mu_) = 0;

  std::atomic<int64_t> records_{0};
  std::atomic<int64_t> evictions_{0};
  std::atomic<int64_t> epoch_bumps_{0};
};

}  // namespace taurus

#endif  // TAURUS_OBS_DIGEST_STORE_H_
