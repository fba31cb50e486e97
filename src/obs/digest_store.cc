#include "obs/digest_store.h"

#include <algorithm>

namespace taurus {

void DigestStore::Record(const QueryEvent& event, bool error,
                         double latency_ms) {
  if (!config_.enable || config_.capacity == 0) return;
  records_.fetch_add(1, std::memory_order_relaxed);
  MutexLock lock(&mu_);
  std::unique_ptr<Entry>& slot = map_[event.fingerprint];
  bool created = slot == nullptr;
  if (created) slot = std::make_unique<Entry>();
  // A digest first seen without canonical text (an error before
  // fingerprinting) adopts the first text that arrives.
  if (slot->statement.empty()) slot->statement = event.canonical;
  Entry& e = *slot;
  e.last_used = ++tick_;  // stamped before eviction: never its own victim
  if (created) EvictOverCapacityLocked(config_.capacity);
  ++e.calls;
  if (error) ++e.errors;
  if (event.shed) ++e.shed;
  if (event.fell_back) ++e.fallbacks;
  if (event.quarantine_hit) ++e.quarantine_hits;
  if (event.plan_cache_hit) ++e.plan_cache_hits;
  e.verifier_violations += event.verifier_violations;
  e.rows_returned += event.rows_returned;
  e.latency.Record(latency_ms);
  (event.used_orca ? e.orca_latency : e.mysql_latency).Add(latency_ms);
  if (event.used_orca) {
    ++e.orca_calls;
  } else {
    ++e.mysql_calls;
  }
  e.epoch_latency.Add(latency_ms);
}

bool DigestStore::BumpEpoch(uint64_t fingerprint, const char* cause) {
  if (!config_.enable) return false;
  MutexLock lock(&mu_);
  auto it = map_.find(fingerprint);
  if (it == map_.end()) return false;
  Entry& e = *it->second;
  // A bump with no executions since the last one is collapsed: the cached
  // skeleton changed again before anyone ran under it, so there is no
  // "before" sample set worth splitting on. This also dedups the several
  // hooks one DDL can fire (cache invalidation per path key, quarantine).
  if (e.epoch_latency.count == 0) {
    e.epoch_cause = cause;
    return false;
  }
  ++e.plan_epoch;
  e.epoch_cause = cause;
  e.prev_epoch_latency = e.epoch_latency;
  e.epoch_latency = LatencySummary{};
  epoch_bumps_.fetch_add(1, std::memory_order_relaxed);
  return true;
}

std::vector<DigestSnapshot> DigestStore::Snapshot() const {
  std::vector<DigestSnapshot> out;
  {
    MutexLock lock(&mu_);
    out.reserve(map_.size());
    for (const auto& [fingerprint, entry] : map_) {
      const Entry& e = *entry;
      DigestSnapshot s;
      s.fingerprint = fingerprint;
      s.statement = e.statement;
      s.calls = e.calls;
      s.errors = e.errors;
      s.orca_calls = e.orca_calls;
      s.mysql_calls = e.mysql_calls;
      s.shed = e.shed;
      s.fallbacks = e.fallbacks;
      s.quarantine_hits = e.quarantine_hits;
      s.verifier_violations = e.verifier_violations;
      s.plan_cache_hits = e.plan_cache_hits;
      s.rows_returned = e.rows_returned;
      s.latency_count = e.latency.Count();
      s.latency_sum_ms = e.latency.SumMs();
      s.latency_p50 = e.latency.PercentileMs(50);
      s.latency_p95 = e.latency.PercentileMs(95);
      s.latency_p99 = e.latency.PercentileMs(99);
      s.latency_max_ms = e.latency.MaxMs();
      s.orca_latency = e.orca_latency;
      s.mysql_latency = e.mysql_latency;
      s.plan_epoch = e.plan_epoch;
      s.epoch_cause = e.epoch_cause;
      s.epoch_latency = e.epoch_latency;
      s.prev_epoch_latency = e.prev_epoch_latency;
      out.push_back(std::move(s));
    }
  }
  std::sort(out.begin(), out.end(),
            [](const DigestSnapshot& a, const DigestSnapshot& b) {
              if (a.calls != b.calls) return a.calls > b.calls;
              return a.fingerprint < b.fingerprint;  // deterministic tie-break
            });
  return out;
}

size_t DigestStore::Size() const {
  MutexLock lock(&mu_);
  return map_.size();
}

void DigestStore::Clear() {
  MutexLock lock(&mu_);
  map_.clear();
}

void DigestStore::EvictOverCapacityLocked(size_t capacity) {
  while (map_.size() > capacity) {
    auto victim = map_.end();
    uint64_t victim_used = 0;
    for (auto it = map_.begin(); it != map_.end(); ++it) {
      if (victim == map_.end() || it->second->last_used < victim_used) {
        victim = it;
        victim_used = it->second->last_used;
      }
    }
    map_.erase(victim);
    evictions_.fetch_add(1, std::memory_order_relaxed);
  }
}

}  // namespace taurus
