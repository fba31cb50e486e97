#ifndef TAURUS_OBS_FLIGHT_RECORDER_H_
#define TAURUS_OBS_FLIGHT_RECORDER_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/lock_rank.h"
#include "common/mutex.h"
#include "common/thread_annotations.h"
#include "obs/query_event.h"

namespace taurus {

/// Flight-recorder knobs. Read live; capacity changes apply lazily on the
/// next Record and must be quiesced relative to in-flight queries (the
/// engine config contract).
struct FlightRecorderConfig {
  bool enable = true;
  /// Ring slots: the memory bound is capacity x sizeof(FlightRecord) plus
  /// whatever traces are pinned. 256 slots comfortably outlives the
  /// "post-mortem after 100 more queries" requirement.
  size_t capacity = 256;
};

/// One query event in the ring. Copyable: Snapshot/Find hand out copies so
/// readers never hold the recorder lock while rendering.
/// The event id is `event.flight_seq`: monotonic and 1-based, the <n> of
/// SHOW PROFILE FOR <n>.
struct FlightRecord {
  /// "ok", or the failure Status::ToString() with its structured origin
  /// payload (e.g. "[verify.skeleton/S004]").
  std::string status = "ok";
  /// Trace-root wall time when the query was traced (query span duration),
  /// optimize + execute otherwise.
  double total_ms = 0.0;
  /// The query's event. Record keeps `event.trace` — the full span tree —
  /// only for aborted, shed, quarantined and fallen-back queries (pinned for
  /// post-mortems), and drops it for the rest.
  QueryEvent event;

  bool error() const { return status != "ok"; }
};

/// Fixed-size lock-minimal ring buffer of recent query events. Record is a
/// single short critical section under a leaf-ranked mutex (rank 150:
/// nothing is acquired under it) — always on at near-zero cost. Slots are
/// overwritten oldest-first; a pinned trace lives exactly as long as its
/// slot.
class FlightRecorder {
 public:
  explicit FlightRecorder(const FlightRecorderConfig& config)
      : config_(config) {}
  FlightRecorder(const FlightRecorder&) = delete;
  FlightRecorder& operator=(const FlightRecorder&) = delete;

  /// Writes one event, assigning and returning its sequence number
  /// (0 when the recorder is disabled).
  uint64_t Record(FlightRecord record);

  /// Events currently in the ring, oldest first.
  std::vector<FlightRecord> Snapshot() const;

  /// Copies the event with sequence number `seq` into `out`; false when it
  /// has been overwritten (or never existed).
  bool Find(uint64_t seq, FlightRecord* out) const;

  size_t Size() const;
  void Clear();

  int64_t records() const {
    return records_.load(std::memory_order_relaxed);
  }
  /// Events currently holding a pinned trace.
  int64_t pinned() const;

 private:
  /// Requires mu_: grows/shrinks the ring to the configured capacity,
  /// keeping the newest events.
  void ApplyCapacityLocked() TAURUS_REQUIRES(mu_);

  const FlightRecorderConfig& config_;
  mutable Mutex mu_{LockRank::kFlightRecorder, "obs.flight_recorder"};
  /// Ring storage ordered oldest-to-newest starting at next_.
  std::vector<FlightRecord> ring_ TAURUS_GUARDED_BY(mu_);
  size_t next_ TAURUS_GUARDED_BY(mu_) = 0;
  uint64_t seq_ TAURUS_GUARDED_BY(mu_) = 0;

  std::atomic<int64_t> records_{0};
};

}  // namespace taurus

#endif  // TAURUS_OBS_FLIGHT_RECORDER_H_
