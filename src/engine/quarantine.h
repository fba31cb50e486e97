#ifndef TAURUS_ENGINE_QUARANTINE_H_
#define TAURUS_ENGINE_QUARANTINE_H_

#include <cstdint>
#include <unordered_map>

#include "common/mutex.h"
#include "common/thread_annotations.h"

namespace taurus {

/// Per-fingerprint quarantine registry for statements that repeatedly fail
/// the Orca detour (DESIGN.md section 7). Every fingerprinted compile asks
/// IsQuarantined; one mutex guards the table, held for a single hash
/// probe. Writes (recording a detour failure) are rare by construction:
/// each one means an optimizer bug or budget kill already happened.
class QuarantineTable {
 public:
  QuarantineTable() = default;
  QuarantineTable(const QuarantineTable&) = delete;
  QuarantineTable& operator=(const QuarantineTable&) = delete;

  /// True when `fingerprint` has at least `failure_threshold` recorded
  /// failures and the catalog versions have not moved since (a DDL/ANALYZE
  /// version bump makes the entry stale, lifting the quarantine).
  bool IsQuarantined(uint64_t fingerprint, uint64_t schema_version,
                     uint64_t stats_version, int failure_threshold) const
      TAURUS_EXCLUDES(mu_);

  /// Counts one detour failure; an entry recorded under older catalog
  /// versions restarts from zero. Returns true when this failure is the
  /// one that crossed `failure_threshold` — the statement just entered
  /// quarantine (the digest store's plan-epoch signal).
  bool RecordFailure(uint64_t fingerprint, uint64_t schema_version,
                     uint64_t stats_version, int failure_threshold)
      TAURUS_EXCLUDES(mu_);

  void Clear() TAURUS_EXCLUDES(mu_);
  size_t Size() const TAURUS_EXCLUDES(mu_);

 private:
  struct Entry {
    int failures = 0;
    uint64_t schema_version = 0;
    uint64_t stats_version = 0;
  };

  mutable Mutex mu_{LockRank::kQuarantine, "engine.quarantine"};
  std::unordered_map<uint64_t, Entry> map_ TAURUS_GUARDED_BY(mu_);
};

}  // namespace taurus

#endif  // TAURUS_ENGINE_QUARANTINE_H_
