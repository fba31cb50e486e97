#ifndef TAURUS_OBS_QUERY_EVENT_H_
#define TAURUS_OBS_QUERY_EVENT_H_

#include <cstdint>
#include <memory>
#include <string>

#include "exec/exec_profile.h"
#include "obs/trace.h"

namespace taurus {

/// Search effort of one Orca-path optimization (the Table 1 bench and the
/// plan-stability goldens read it).
struct OrcaPathMetrics {
  int64_t partitions_evaluated = 0;
  int memo_groups = 0;
  int64_t mdp_dxl_requests = 0;
  int64_t mdp_cache_hits = 0;
  int cte_producers_reused = 0;
  int subqueries_decorrelated = 0;
};

/// Everything recorded about one query execution (DESIGN.md section 15).
/// The engine fills one event per Query as facts become known — compile,
/// the exec-budget retry, execution — and every surface derives from it:
/// QueryResult is this event plus the rows, and the digest store, the
/// flight recorder and the registry counters read it once the query ends,
/// whatever its exit path.
struct QueryEvent {
  // --- Compile (summed over both compiles of an exec-budget retry) ---
  /// Statement fingerprint hash; 0 when the statement failed before
  /// fingerprinting (parse/bind/Prepare errors).
  uint64_t fingerprint = 0;
  /// Canonical statement text behind `fingerprint` (the digest's display
  /// text).
  std::string canonical;
  /// True when the executed plan came from the Orca detour.
  bool used_orca = false;
  /// True when the executed plan's skeleton came from the plan cache.
  bool plan_cache_hit = false;
  double optimize_ms = 0.0;
  /// Optimizer time avoided by cache hits (cold compile time minus this
  /// compile's); 0 on misses.
  double optimize_saved_ms = 0.0;
  /// True when the Orca detour failed (at compile or under the executor
  /// budget), or admission shed the query, and the MySQL path served it.
  bool fell_back = false;
  /// The failure or shed behind `fell_back` ("" otherwise).
  std::string fallback_reason;
  /// True when the detour was skipped because the statement is quarantined.
  bool quarantine_hit = false;
  /// Plan-verifier rule evaluations across every boundary verifier that
  /// ran (compile passes plus the exec-budget arming check), and how many
  /// fired.
  int verifier_rules = 0;
  int verifier_violations = 0;
  /// Search effort of the detour that produced the plan (zeros when none
  /// did).
  OrcaPathMetrics orca;

  // --- Execution ---
  double execute_ms = 0.0;
  int64_t rows_returned = 0;
  int64_t rows_scanned = 0;
  int64_t index_lookups = 0;
  int64_t rebinds = 0;
  /// Widest worker count any pipeline used (1 = everything ran serial).
  int parallel_workers_used = 1;
  /// Pipelines run by the morsel-driven parallel executor.
  int parallel_pipelines = 0;
  /// Pipelines (or grafted segments) run by the batch executor
  /// (DESIGN.md section 13), and the batches / selected rows they emitted.
  int batch_pipelines = 0;
  int64_t batches = 0;
  int64_t batch_rows = 0;
  /// Per-worker morsel timing; SHOW PROFILE FOR <flight_seq> replays it.
  ExecProfile profile;
  /// This event's flight-recorder id (0 when the recorder is off).
  uint64_t flight_seq = 0;

  // --- Admission (set by the session layer, src/server/; defaults for a
  // direct Database call) ---
  uint64_t session_id = 0;
  /// Admission shed the query onto the MySQL path under overload.
  bool shed = false;
  /// Admission rejected the query before it reached the engine.
  bool rejected = false;
  bool admission_queued = false;
  double admission_wait_ms = 0.0;

  /// The query's span tree when it was traced, else null.
  std::shared_ptr<const Tracer> trace;
};

/// "direct", "queued", "shed" or "rejected".
inline const char* AdmissionOutcome(const QueryEvent& e) {
  if (e.rejected) return "rejected";
  if (e.shed) return "shed";
  return e.admission_queued ? "queued" : "direct";
}

}  // namespace taurus

#endif  // TAURUS_OBS_QUERY_EVENT_H_
