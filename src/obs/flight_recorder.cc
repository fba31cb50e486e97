#include "obs/flight_recorder.h"

#include <algorithm>
#include <utility>

namespace taurus {

uint64_t FlightRecorder::Record(FlightRecord record) {
  if (!config_.enable || config_.capacity == 0) return 0;
  records_.fetch_add(1, std::memory_order_relaxed);
  const QueryEvent& e = record.event;
  if (!(record.error() || e.shed || e.fell_back || e.quarantine_hit)) {
    record.event.trace.reset();
  }
  MutexLock lock(&mu_);
  if (ring_.size() != config_.capacity) ApplyCapacityLocked();
  const uint64_t seq = ++seq_;
  record.event.flight_seq = seq;
  ring_[next_] = std::move(record);  // drops the evicted slot's pin, if any
  next_ = (next_ + 1) % ring_.size();
  return seq;
}

std::vector<FlightRecord> FlightRecorder::Snapshot() const {
  std::vector<FlightRecord> out;
  {
    MutexLock lock(&mu_);
    out.reserve(ring_.size());
    for (const FlightRecord& r : ring_) {
      if (r.event.flight_seq != 0) out.push_back(r);
    }
  }
  std::sort(out.begin(), out.end(),
            [](const FlightRecord& a, const FlightRecord& b) {
              return a.event.flight_seq < b.event.flight_seq;
            });
  return out;
}

bool FlightRecorder::Find(uint64_t seq, FlightRecord* out) const {
  if (seq == 0) return false;
  MutexLock lock(&mu_);
  for (const FlightRecord& r : ring_) {
    if (r.event.flight_seq == seq) {
      *out = r;
      return true;
    }
  }
  return false;
}

size_t FlightRecorder::Size() const {
  MutexLock lock(&mu_);
  size_t n = 0;
  for (const FlightRecord& r : ring_) {
    if (r.event.flight_seq != 0) ++n;
  }
  return n;
}

void FlightRecorder::Clear() {
  MutexLock lock(&mu_);
  ring_.clear();
  next_ = 0;
}

int64_t FlightRecorder::pinned() const {
  MutexLock lock(&mu_);
  int64_t n = 0;
  for (const FlightRecord& r : ring_) {
    if (r.event.flight_seq != 0 && r.event.trace != nullptr) ++n;
  }
  return n;
}

void FlightRecorder::ApplyCapacityLocked() {
  std::vector<FlightRecord> kept;
  kept.reserve(ring_.size());
  for (FlightRecord& r : ring_) {
    if (r.event.flight_seq != 0) kept.push_back(std::move(r));
  }
  std::sort(kept.begin(), kept.end(),
            [](const FlightRecord& a, const FlightRecord& b) {
              return a.event.flight_seq < b.event.flight_seq;
            });
  if (kept.size() > config_.capacity) {
    kept.erase(kept.begin(),
               kept.end() - static_cast<ptrdiff_t>(config_.capacity));
  }
  ring_.assign(config_.capacity, FlightRecord{});
  for (size_t i = 0; i < kept.size(); ++i) ring_[i] = std::move(kept[i]);
  next_ = kept.size() % config_.capacity;
}

}  // namespace taurus
