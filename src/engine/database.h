#ifndef TAURUS_ENGINE_DATABASE_H_
#define TAURUS_ENGINE_DATABASE_H_

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "bridge/orca_path.h"
#include "bridge/router.h"
#include "catalog/catalog.h"
#include "common/mutex.h"
#include "common/thread_annotations.h"
#include "common/clock.h"
#include "common/resource_budget.h"
#include "common/result.h"
#include "common/thread_pool.h"
#include "engine/plan_cache.h"
#include "engine/quarantine.h"
#include "exec/exec_context.h"
#include "exec/exec_profile.h"
#include "exec/op_actuals.h"
#include "exec/physical_plan.h"
#include "frontend/prepare.h"
#include "mdp/provider.h"
#include "obs/digest_store.h"
#include "obs/flight_recorder.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "orca/orca.h"
#include "storage/storage.h"

namespace taurus {

/// Which optimizer compiles a query.
enum class OptimizerPath {
  kAuto,   ///< route by the complex-query threshold (the integration)
  kMySql,  ///< force the native MySQL-style optimizer
  kOrca,   ///< force the Orca detour (no threshold check)
};

/// Result of one query execution, with compile/execute instrumentation.
struct QueryResult {
  std::vector<std::string> columns;
  std::vector<Row> rows;
  bool used_orca = false;
  double optimize_ms = 0.0;
  double execute_ms = 0.0;
  int64_t rows_scanned = 0;
  int64_t index_lookups = 0;
  int64_t rebinds = 0;
  /// True when the skeleton plan came from the engine's plan cache.
  bool plan_cache_hit = false;
  /// Optimizer time avoided by the cache hit (cold compile time minus this
  /// compile's); 0 on misses.
  double optimize_saved_ms = 0.0;
  /// True when the Orca detour failed (at compile or under the executor
  /// budget) and the query was served by the MySQL path instead.
  bool fell_back = false;
  /// The detour failure behind `fell_back` ("" otherwise).
  std::string fallback_reason;
  /// True when the detour was skipped because the statement is quarantined.
  bool quarantine_hit = false;
  /// Widest worker count any pipeline of this query actually used
  /// (1 = everything ran serial).
  int parallel_workers_used = 1;
  /// How many pipelines ran through the morsel-driven parallel executor.
  int parallel_pipelines = 0;
  /// How many pipelines (or grafted pipeline segments) ran vectorized
  /// through the batch executor (DESIGN.md section 13).
  int batch_pipelines = 0;
  /// Batches emitted / selected rows carried by those batches.
  int64_t batches = 0;
  int64_t batch_rows = 0;
  /// Plan-verifier summary: rule evaluations across every boundary verifier
  /// that ran for this query (compile-time passes plus the exec-budget
  /// arming check), and how many fired.
  int verifier_rules = 0;
  int verifier_violations = 0;
  /// --- Session/admission state (set by the src/server/ layer; always
  /// default for queries issued directly against the Database) ---
  /// True when the admission controller shed this query onto the cheap
  /// MySQL path under overload (DESIGN.md section 12).
  bool shed = false;
  /// True when the query waited in the admission queue before running.
  bool admission_queued = false;
  /// Wall time spent waiting for admission.
  double admission_wait_ms = 0.0;
  /// --- Workload introspection (DESIGN.md section 15) ---
  /// Per-worker morsel timing (busy/idle/morsels, batch vs Volcano rows);
  /// enabled iff ExecutorConfig::enable_profiling.
  ExecProfile profile;
  /// This query's flight-recorder event id (0 when the recorder is off);
  /// SHOW PROFILE FOR <flight_seq> replays the profile later.
  uint64_t flight_seq = 0;
};

/// Per-query overrides supplied by the session layer (src/server/). Plain
/// Database::Query calls use the defaults, which change nothing.
struct QueryOptions {
  /// Caps the worker count for this execution (the admission controller's
  /// worker-token lease). 0 = no cap (engine knob), 1 = force serial.
  int worker_cap = 0;
  /// Traces this query even when the engine-wide knob is off (per-session
  /// tracing).
  bool trace = false;
  /// When set (with tracing on), the query's tracer is also retained here —
  /// the per-session trace slot, immune to other sessions' clobbering.
  std::shared_ptr<Tracer>* trace_slot = nullptr;

  // --- Session/admission attribution (set by src/server/ so the digest
  // store and flight recorder can attribute the event; defaults = a direct
  // Database call) ---
  /// Issuing session id (0 = no session).
  uint64_t session_id = 0;
  /// The admission controller shed this query onto the MySQL path; the
  /// engine folds this into QueryResult::shed / fell_back / fallback_reason.
  bool shed = false;
  /// What tripped the shed ("" when !shed), e.g. "queue_full".
  std::string shed_cause;
  /// The query waited in the admission queue for `admission_wait_ms`.
  bool admission_queued = false;
  double admission_wait_ms = 0.0;
};

/// Morsel-driven parallel executor knobs (see DESIGN.md section 8).
struct ExecutorConfig {
  /// Worker threads for eligible pipelines; 0 = hardware_concurrency,
  /// 1 = exactly today's serial executor.
  int parallel_workers = 0;
  /// Rows per morsel carved from the driving table scan.
  int64_t morsel_rows = 2048;
  /// Pipelines whose driving table has fewer rows stay serial, so short
  /// OLTP-style queries never pay pool hand-off overhead.
  int64_t parallel_min_driver_rows = 32768;

  // Vectorized batch execution (see DESIGN.md section 13).
  /// Run batch-eligible pipelines (and grafted segments) batch-at-a-time;
  /// off = exactly the row-at-a-time Volcano executor.
  bool enable_batch = true;
  /// Target rows per batch (clamped to >= 1).
  int64_t batch_size = 1024;

  /// Per-worker morsel timing (busy/idle, morsels claimed, batch vs
  /// Volcano rows) folded into QueryResult::profile and the
  /// taurus.exec.profile.* gauges (DESIGN.md section 15). Two clock reads
  /// per morsel when on; off skips all bookkeeping.
  bool enable_profiling = true;
};

/// Policy for quarantining statements that repeatedly fail the Orca detour:
/// after `failure_threshold` failures the auto route stops attempting Orca
/// for that statement fingerprint until a schema/stats version bump (DDL or
/// ANALYZE), which also invalidates cached plans.
struct QuarantineConfig {
  bool enable = true;
  int failure_threshold = 3;
};

/// Snapshot of the fault-containment counters (degradation observability):
/// how often the detour runs, fails, gets budget-killed, or is skipped.
/// The live counters are the atomic `taurus.health.*` entries of the
/// engine's metrics registry; this struct is a point-in-time copy read via
/// Database::optimizer_health().
struct OptimizerHealth {
  int64_t detours_attempted = 0;  ///< compiles that entered the Orca detour
  int64_t detours_failed = 0;     ///< detours that errored (any cause)
  int64_t fallbacks = 0;          ///< auto-route recoveries via the MySQL path
  int64_t budget_kills = 0;       ///< detours killed by the optimize budget
  int64_t exec_budget_kills = 0;  ///< Orca plans killed mid-execution
  int64_t quarantine_hits = 0;    ///< compiles that skipped Orca (quarantine)
};

/// Per-query pipeline tracing knobs. Off by default: the tracer is only
/// allocated when enabled, and every instrumented code path carries a
/// null-check-only ScopedSpan, so disabled tracing costs nothing
/// measurable.
struct TraceConfig {
  bool enable = false;
  /// Span clock; null = the process steady clock. Tests inject a FakeClock
  /// to assert exact span trees and durations.
  const Clock* clock = nullptr;
};

/// The embedded database engine: catalog + storage + both optimizers +
/// executor, wired together exactly as Fig. 3 of the paper — SQL arrives,
/// is parsed and prepared, routed either through the MySQL optimizer or
/// through the Orca detour (parse tree converter, Orca, plan converter),
/// and the resulting skeleton is refined and executed by the MySQL-style
/// executor. A failed Orca conversion falls back to the MySQL optimizer.
///
/// Concurrency contract (DESIGN.md section 12): N threads may call
/// Query/Compile/Explain* concurrently — the plan cache and quarantine
/// each sit behind one short-held mutex, metrics are atomic, and per-query
/// state lives on the stack or in ExecContext. Everything else must be
/// quiesced while queries are in flight: DDL/INSERT/ANALYZE,
/// config-knob writes, and Clear()-style maintenance calls are
/// single-threaded operations, exactly like MySQL's LOCK TABLES barrier.
/// The `last_*` accessors are most-recent views for single-session
/// callers; concurrent sessions read their own QueryResult / Session
/// trace slot instead.
class Database {
 public:
  Database() : mdp_(catalog_) {
    BindCounters();
    // Cached-skeleton invalidations (DDL / ANALYZE) open a new plan epoch
    // in the statement's digest, so before/after latency splits survive the
    // eviction (DESIGN.md section 15).
    plan_cache_.SetInvalidationHook([this](uint64_t fp, const char* cause) {
      digest_store_.BumpEpoch(fp, cause);
    });
  }
  Database(const Database&) = delete;
  Database& operator=(const Database&) = delete;

  // --- DDL / data ---

  /// Executes a non-SELECT statement (CREATE TABLE / CREATE INDEX /
  /// INSERT / ANALYZE).
  Status ExecuteSql(const std::string& sql);

  /// Bulk-appends rows and rebuilds the table's indexes.
  Status BulkLoad(const std::string& table, std::vector<Row> rows);

  /// Recomputes statistics (row counts, NDVs, histograms) for one table.
  Status Analyze(const std::string& table);
  /// ANALYZE every table.
  Status AnalyzeAll();

  // --- Queries ---

  /// Compiles a SELECT: parse -> bind -> prepare -> optimize (per `path`,
  /// with Orca fallback) -> refine.
  Result<std::unique_ptr<CompiledQuery>> Compile(
      const std::string& sql, OptimizerPath path = OptimizerPath::kAuto);

  /// Compiles and executes a SELECT. Also accepts `SHOW STATUS [LIKE
  /// 'pattern']` (alias: SHOW METRICS), answered from the metrics registry
  /// as Variable_name/Value rows.
  Result<QueryResult> Query(const std::string& sql,
                            OptimizerPath path = OptimizerPath::kAuto);

  /// Query with per-query session overrides (worker-token cap, per-session
  /// trace slot). The src/server/ layer calls this form.
  Result<QueryResult> Query(const std::string& sql, OptimizerPath path,
                            const QueryOptions& options);

  /// MySQL-style tree EXPLAIN; the first line marks Orca-assisted plans.
  Result<std::string> Explain(const std::string& sql,
                              OptimizerPath path = OptimizerPath::kAuto);

  /// EXPLAIN ANALYZE: executes the query collecting per-node actuals, then
  /// renders the plan with actual rows / loops / wall time and q-error next
  /// to the optimizer's estimates (DESIGN.md section 10).
  Result<std::string> ExplainAnalyze(const std::string& sql,
                                     OptimizerPath path = OptimizerPath::kAuto);

  /// EXPLAIN ANALYZE as one machine-readable JSON object.
  Result<std::string> ExplainAnalyzeJsonDump(
      const std::string& sql, OptimizerPath path = OptimizerPath::kAuto);

  // --- Configuration ---
  RouterConfig& router_config() { return router_config_; }
  OrcaConfig& orca_config() { return orca_config_; }
  PrepareOptions& prepare_options() { return prepare_options_; }
  PlanCacheConfig& plan_cache_config() { return plan_cache_config_; }
  ResourceBudgetConfig& resource_budget() { return resource_budget_; }
  QuarantineConfig& quarantine_config() { return quarantine_config_; }
  ExecutorConfig& exec_config() { return exec_config_; }
  /// Cross-layer plan verifier knobs (always-on in Debug/sanitizer builds,
  /// opt-in in Release).
  PlanVerifyConfig& verify_config() { return verify_config_; }
  /// Per-query pipeline tracing knobs (off by default).
  TraceConfig& trace_config() { return trace_config_; }
  /// Statement-digest store knobs (`digest_capacity` etc.; DESIGN.md
  /// section 15). The store reads this object live.
  DigestStoreConfig& digest_config() { return digest_config_; }
  /// Flight-recorder knobs (`flight_recorder_capacity`,
  /// `pin_aborted_traces`). The recorder reads this object live.
  FlightRecorderConfig& flight_recorder_config() { return flight_config_; }

  // --- Observability ---

  /// This engine's metrics registry: every counter/gauge/histogram under
  /// `taurus.<subsystem>.<name>` naming. Per-instance (deterministic in
  /// tests); MetricsRegistry::Global() exists for process-wide consumers.
  MetricsRegistry& metrics() { return metrics_; }

  /// All registry metrics as one JSON object (gauges synced first).
  std::string MetricsJson();

  /// The trace of the most recent traced Query/Compile/ExplainAnalyze, or
  /// null when tracing is disabled. Single-session convenience: under
  /// concurrent sessions this is whichever traced query published last —
  /// sessions keep their own trace via QueryOptions::trace_slot
  /// (Session::last_trace()). The pointer stays valid until the next
  /// traced query replaces it.
  const Tracer* last_trace() const {
    MutexLock lock(&state_mu_);
    return last_tracer_.get();
  }
  /// Shared handle to the same trace (does not dangle when another session
  /// publishes a newer one).
  std::shared_ptr<const Tracer> last_trace_shared() const {
    MutexLock lock(&state_mu_);
    return last_tracer_;
  }

  /// The skeleton-plan cache (exposed for stats, Clear() and capacity
  /// tuning in tests and benches).
  PlanCache& plan_cache() { return plan_cache_; }
  const PlanCache& plan_cache() const { return plan_cache_; }

  /// The statement-digest performance-schema table (SHOW DIGESTS).
  DigestStore& digest_store() { return digest_store_; }
  const DigestStore& digest_store() const { return digest_store_; }
  /// The flight recorder's recent-query ring (SHOW FLIGHT RECORDER).
  FlightRecorder& flight_recorder() { return flight_recorder_; }
  const FlightRecorder& flight_recorder() const { return flight_recorder_; }

  /// Digest-store snapshot as one JSON object (machine-readable SHOW
  /// DIGESTS; schema validated by scripts/validate_obs_json.py).
  std::string DigestsJson();
  /// Flight-recorder snapshot as one JSON object, oldest event first.
  std::string FlightRecorderJson();

  Catalog& catalog() { return catalog_; }
  const Catalog& catalog() const { return catalog_; }
  Storage& storage() { return storage_; }
  MetadataProvider& mdp() { return mdp_; }

  /// Metrics from the most recent Orca-path compilation (most-recent view;
  /// returned by value so the copy is internally consistent even when
  /// another session compiles concurrently).
  OrcaPathMetrics last_orca_metrics() const {
    MutexLock lock(&state_mu_);
    return last_orca_metrics_;
  }
  /// True when the most recent kAuto/kOrca compile fell back to MySQL
  /// (most-recent view; concurrent sessions read QueryResult::fell_back).
  bool last_compile_fell_back() const {
    MutexLock lock(&state_mu_);
    return last_fell_back_;
  }

  /// Snapshot of the fault-containment counters since construction (or the
  /// last reset), read from the `taurus.health.*` registry counters.
  OptimizerHealth optimizer_health() const;
  void ResetOptimizerHealth();

  /// True when `fingerprint_hash` has reached the quarantine threshold and
  /// the catalog versions have not moved since.
  bool IsQuarantined(uint64_t fingerprint_hash) const;
  /// Drops all quarantine state (tests; ANALYZE/DDL clear it naturally).
  void ClearQuarantine() { quarantine_.Clear(); }
  /// The quarantine registry (exposed for the stress test's no-contention
  /// assertions and gauge sync).
  const QuarantineTable& quarantine_table() const { return quarantine_; }

 private:
  /// Compile with the cache consulted (or bypassed, for the recovery path
  /// after a thaw mismatch). `tracer` may be null (tracing disabled).
  Result<std::unique_ptr<CompiledQuery>> CompileInternal(
      const std::string& sql, OptimizerPath path, bool use_cache,
      Tracer* tracer);

  /// Replays the route's deterministic AST rewrites onto a freshly bound
  /// statement, thaws the cached skeleton and refines it.
  Result<std::unique_ptr<CompiledQuery>> CompileFromCacheEntry(
      const PlanCacheEntry& entry, BoundStatement stmt, Tracer* tracer);

  /// Observability state gathered across one query, whatever its exit path
  /// (success, compile error, budget kill). QueryPipeline fills it in as
  /// facts become known; RecordQueryObservability folds it into the digest
  /// store, flight recorder and profile gauges exactly once per query.
  struct QueryObs {
    std::shared_ptr<Tracer> tracer;  ///< pinned on aborted/shed/fallback
    uint64_t fingerprint = 0;        ///< 0 until the statement fingerprints
    std::string canonical;
    bool used_orca = false;
    bool fell_back = false;
    bool quarantine_hit = false;
    bool plan_cache_hit = false;
    double optimize_ms = 0.0;
    ExecProfile profile;  ///< armed into ExecContext when profiling is on
  };

  /// Query with optional per-node actuals collection (EXPLAIN ANALYZE) and
  /// the final compiled plan handed back through `compiled_out`.
  Result<QueryResult> QueryInternal(const std::string& sql, OptimizerPath path,
                                    const QueryOptions& options,
                                    OpActualsMap* actuals,
                                    std::unique_ptr<CompiledQuery>* compiled_out);

  /// The pre-introspection body of QueryInternal: compile + execute,
  /// depositing observability facts into `obs` on every exit path.
  Result<QueryResult> QueryPipeline(const std::string& sql, OptimizerPath path,
                                    const QueryOptions& options,
                                    OpActualsMap* actuals,
                                    std::unique_ptr<CompiledQuery>* compiled_out,
                                    QueryObs* obs);

  /// Folds one finished query (success or failure) into the digest store,
  /// flight recorder and taurus.exec.profile.* gauges. Returns the
  /// flight-recorder seq (0 when the recorder is off).
  uint64_t RecordQueryObservability(const QueryOptions& options,
                                    const Result<QueryResult>& result,
                                    QueryObs* obs);

  /// SHOW STATUS [LIKE 'pattern']: registry snapshot as result rows.
  Result<QueryResult> ShowStatus(const std::string& pattern);
  /// SHOW DIGESTS [LIKE 'pattern'] (pattern matches the canonical
  /// statement text): digest-store snapshot, hottest digests first.
  Result<QueryResult> ShowDigests(const std::string& pattern);
  /// SHOW FLIGHT RECORDER: the recent-query ring, newest event first,
  /// pinned span trees included.
  Result<QueryResult> ShowFlightRecorder();
  /// SHOW PROFILE FOR <seq>: per-worker executor profile of one recorded
  /// event (busy/idle ms, morsels, batch vs Volcano rows).
  Result<QueryResult> ShowProfile(uint64_t seq);

  /// Starts a fresh per-query trace when tracing is enabled (engine knob or
  /// options.trace); returns null (and drops the "most recent" slot)
  /// otherwise. The caller must hold the returned shared_ptr for the
  /// query's duration — the member slot can be republished by a concurrent
  /// session at any time.
  std::shared_ptr<Tracer> BeginTrace(const QueryOptions& options);

  /// Publishes the most-recent-compile fallback flag (single-session view).
  void SetLastFellBack(bool fell_back) {
    MutexLock lock(&state_mu_);
    last_fell_back_ = fell_back;
  }

  /// Resolves the engine's registry counters/histograms once (ctor).
  void BindCounters();

  /// Copies point-in-time values (plan-cache stats, quarantine size) into
  /// their registry gauges before a dump.
  void SyncGaugeMetrics();

  /// Cache key: statement fingerprint + requested path + the router/Orca
  /// configuration that steers optimization after fingerprinting.
  std::string MakeCacheKey(const std::string& canonical,
                           OptimizerPath path) const;

  /// Counts one detour failure against `fingerprint_hash`; entries reset
  /// when the catalog versions move (so ANALYZE/DDL clear quarantines).
  void RecordDetourFailure(uint64_t fingerprint_hash);

  /// Arms `ctx` for one execution attempt: the exec resource budget (Orca
  /// detour plans only) plus the parallel-executor knobs and worker pool
  /// (created lazily, resized when the knob changes). `worker_cap` > 0
  /// clamps the degree of parallelism (the admission worker-token lease).
  void ArmExecContext(ExecContext* ctx, bool used_orca, int worker_cap);

  /// The shared worker pool sized by the executor knob; creation/resize is
  /// serialized, and in-flight queries keep a retired pool alive through
  /// ExecContext::pool_owner.
  std::shared_ptr<ThreadPool> GetPool(int workers);

  /// Registry-backed engine counters, resolved once at construction so the
  /// hot paths increment atomics directly instead of re-hashing names.
  struct EngineCounters {
    Counter* detours_attempted = nullptr;
    Counter* detours_failed = nullptr;
    Counter* fallbacks = nullptr;
    Counter* budget_kills = nullptr;
    Counter* exec_budget_kills = nullptr;
    Counter* quarantine_hits = nullptr;
    Counter* cache_hits = nullptr;
    Counter* cache_misses = nullptr;
    Counter* verifier_rules = nullptr;
    Counter* verifier_violations = nullptr;
    Counter* queries = nullptr;
    Counter* query_errors = nullptr;
    Counter* parallel_queries = nullptr;
    Counter* parallel_pipelines = nullptr;
    Counter* batch_pipelines = nullptr;
    Counter* batches = nullptr;
    Counter* batch_rows = nullptr;
    Counter* exec_rows_scanned = nullptr;
    Counter* exec_index_lookups = nullptr;
    Counter* profile_pipelines = nullptr;
    Counter* profile_morsels = nullptr;
    Gauge* profile_last_busy_ms = nullptr;
    Gauge* profile_last_idle_ms = nullptr;
    Gauge* profile_last_workers = nullptr;
    LatencyHistogram* optimize_ms = nullptr;
    LatencyHistogram* execute_ms = nullptr;
  };

  Catalog catalog_;
  Storage storage_;
  MetadataProvider mdp_;
  RouterConfig router_config_;
  OrcaConfig orca_config_;
  PrepareOptions prepare_options_;
  PlanCacheConfig plan_cache_config_;
  PlanCache plan_cache_{PlanCacheConfig().capacity};
  ResourceBudgetConfig resource_budget_;
  QuarantineConfig quarantine_config_;
  ExecutorConfig exec_config_;
  PlanVerifyConfig verify_config_;
  TraceConfig trace_config_;
  MetricsRegistry metrics_;
  EngineCounters counters_;
  QuarantineTable quarantine_;
  DigestStoreConfig digest_config_;
  DigestStore digest_store_{digest_config_};
  FlightRecorderConfig flight_config_;
  FlightRecorder flight_recorder_{flight_config_};

  /// Guards the "most recent" single-session views (trace, Orca metrics,
  /// fallback flag). Leaf rank 100: nothing else is acquired under it.
  mutable Mutex state_mu_{LockRank::kDatabaseState, "engine.state"};
  std::shared_ptr<Tracer> last_tracer_ TAURUS_GUARDED_BY(state_mu_);
  OrcaPathMetrics last_orca_metrics_ TAURUS_GUARDED_BY(state_mu_);
  bool last_fell_back_ TAURUS_GUARDED_BY(state_mu_) = false;

  /// Guards pool creation/resize; queries pin the pool via shared_ptr.
  /// Rank 60, deliberately below the thread pool's rank 70: replacing the
  /// pool destroys the old ThreadPool under this lock, which acquires
  /// ThreadPool::mu_ for shutdown — the one sanctioned cross-class
  /// nesting (DESIGN.md section 12 rank table).
  Mutex pool_mu_{LockRank::kPoolGate, "engine.pool_gate"};
  std::shared_ptr<ThreadPool> pool_ TAURUS_GUARDED_BY(pool_mu_);
};

}  // namespace taurus

#endif  // TAURUS_ENGINE_DATABASE_H_
