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
#include "exec/op_actuals.h"
#include "exec/physical_plan.h"
#include "frontend/prepare.h"
#include "mdp/provider.h"
#include "obs/digest_store.h"
#include "obs/flight_recorder.h"
#include "obs/metrics.h"
#include "obs/query_event.h"
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

/// One query execution: its event (compile, execution and admission facts;
/// DESIGN.md section 15) plus the result set.
struct QueryResult : QueryEvent {
  std::vector<std::string> columns;
  std::vector<Row> rows;
};

/// Per-query overrides supplied by the session layer (src/server/). Plain
/// Database::Query calls use the defaults, which change nothing.
struct QueryOptions {
  /// Caps the worker count for this execution (the admission controller's
  /// worker-token lease). 0 = no cap (engine knob), 1 = force serial.
  int worker_cap = 0;
  /// Traces this query even when the engine-wide knob is off (per-session
  /// tracing); the trace comes back on QueryResult::trace.
  bool trace = false;
  /// The admission facts the session knows before the query runs
  /// (session_id, shed, admission_queued, admission_wait_ms; a shed query
  /// also carries fell_back and its reason). The query's event starts as
  /// a copy of this one.
  QueryEvent seed;
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
};

/// Policy for quarantining statements that repeatedly fail the Orca detour:
/// after `failure_threshold` failures the auto route stops attempting Orca
/// for that statement fingerprint until a schema/stats version bump (DDL or
/// ANALYZE), which also invalidates cached plans.
struct QuarantineConfig {
  int failure_threshold = 3;
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
/// Each query reports only on its own QueryResult (trace included).
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
  /// with Orca fallback) -> refine. The compile facts (route, cache hit,
  /// fallback, verifier counts, Orca search effort) land in `event` when
  /// given.
  Result<std::unique_ptr<CompiledQuery>> Compile(
      const std::string& sql, OptimizerPath path = OptimizerPath::kAuto,
      QueryEvent* event = nullptr);

  /// Compiles and executes a SELECT. Also accepts `SHOW STATUS [LIKE
  /// 'pattern']` (alias: SHOW METRICS), answered from the metrics registry
  /// as Variable_name/Value rows.
  Result<QueryResult> Query(const std::string& sql,
                            OptimizerPath path = OptimizerPath::kAuto);

  /// Query with per-query session overrides (worker-token cap, per-session
  /// tracing, admission facts). The src/server/ layer calls this form.
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
  /// Flight-recorder knobs (`enable`, `capacity`). The recorder reads this
  /// object live.
  FlightRecorderConfig& flight_recorder_config() { return flight_config_; }

  // --- Observability ---

  /// This engine's metrics registry: every counter/gauge/histogram under
  /// `taurus.<subsystem>.<name>` naming. Per-instance (deterministic in
  /// tests); MetricsRegistry::Global() exists for process-wide consumers.
  MetricsRegistry& metrics() { return metrics_; }

  /// All registry metrics as one JSON object (gauges synced first).
  std::string MetricsJson();

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
  /// Compile facts land in `event` as they become known, so a failed
  /// compile still reports its fingerprint; optimize time and verifier
  /// counts add up across the compiles of one execution.
  Result<std::unique_ptr<CompiledQuery>> CompileInternal(
      const std::string& sql, OptimizerPath path, bool use_cache,
      Tracer* tracer, QueryEvent* event);

  /// Replays the route's deterministic AST rewrites onto a freshly bound
  /// statement, thaws the cached skeleton and refines it.
  Result<std::unique_ptr<CompiledQuery>> CompileFromCacheEntry(
      const PlanCacheEntry& entry, BoundStatement stmt, Tracer* tracer,
      QueryEvent* event);

  /// Query with optional per-node actuals collection (EXPLAIN ANALYZE) and
  /// the final compiled plan handed back through `compiled_out`.
  Result<QueryResult> QueryInternal(const std::string& sql, OptimizerPath path,
                                    const QueryOptions& options,
                                    OpActualsMap* actuals,
                                    std::unique_ptr<CompiledQuery>* compiled_out);

  /// Compile + execute, writing facts into `out` as they become known so
  /// that every exit path (success, compile error, budget kill) leaves a
  /// complete event behind.
  Status QueryPipeline(const std::string& sql, OptimizerPath path,
                       const QueryOptions& options, OpActualsMap* actuals,
                       std::unique_ptr<CompiledQuery>* compiled_out,
                       QueryResult* out);

  /// Folds one finished query (success or failure) into the query
  /// counters, the digest store and the flight recorder, and stamps
  /// out->flight_seq.
  void RecordQueryEvent(const Status& status, QueryResult* out);

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

  /// A fresh per-query tracer when tracing is on (engine knob or
  /// per-query `trace`), else null.
  std::shared_ptr<Tracer> NewTracer(bool trace) const;

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

  /// Arms `ctx` for one execution attempt of `event`'s plan: the exec
  /// resource budget (Orca detour plans only), the parallel-executor knobs
  /// and worker pool (created lazily, resized when the knob changes), the
  /// profile into event->profile and, when given, the per-node `actuals`.
  /// `worker_cap` > 0 clamps the degree of parallelism (the admission
  /// worker-token lease). The B004 arming check counts into the event.
  void ArmExecContext(ExecContext* ctx, int worker_cap, OpActualsMap* actuals,
                      QueryEvent* event);

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
