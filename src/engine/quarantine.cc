#include "engine/quarantine.h"

namespace taurus {

bool QuarantineTable::IsQuarantined(uint64_t fingerprint,
                                    uint64_t schema_version,
                                    uint64_t stats_version,
                                    int failure_threshold) const {
  MutexLock lock(&mu_);
  auto it = map_.find(fingerprint);
  if (it == map_.end()) return false;
  const Entry& e = it->second;
  if (e.schema_version != schema_version || e.stats_version != stats_version) {
    // Versions moved (DDL/ANALYZE): the quarantine is lifted. The stale
    // entry stays until the next RecordFailure resets it, so a lookup
    // never writes.
    return false;
  }
  return e.failures >= failure_threshold;
}

bool QuarantineTable::RecordFailure(uint64_t fingerprint,
                                    uint64_t schema_version,
                                    uint64_t stats_version,
                                    int failure_threshold) {
  MutexLock lock(&mu_);
  Entry& e = map_[fingerprint];
  if (e.schema_version != schema_version || e.stats_version != stats_version) {
    e = Entry{};
    e.schema_version = schema_version;
    e.stats_version = stats_version;
  }
  ++e.failures;
  return e.failures == failure_threshold;
}

void QuarantineTable::Clear() {
  MutexLock lock(&mu_);
  map_.clear();
}

size_t QuarantineTable::Size() const {
  MutexLock lock(&mu_);
  return map_.size();
}

}  // namespace taurus
