#ifndef TAURUS_EXEC_EXEC_CONTEXT_H_
#define TAURUS_EXEC_EXEC_CONTEXT_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <vector>

#include "common/clock.h"
#include "common/status.h"
#include "exec/exec_profile.h"
#include "exec/op_actuals.h"
#include "exec/physical_plan.h"
#include "storage/storage.h"

namespace taurus {

class ThreadPool;

/// A cached expression-subquery result.
struct SubplanResult {
  std::vector<Row> rows;
  /// Non-correlated IN subqueries only, built by the first probe
  /// (`in_index_built`): the non-NULL first-column values in
  /// Value::Compare order, kept only when they all share one kind and none
  /// is NaN, so a probe of that kind binary-searches them.
  std::vector<const Value*> in_sorted;
  bool in_index_built = false;
  bool in_has_null = false;  ///< some first-column value is NULL
};

/// Per-query execution state: the storage handles, the compiled plan (for
/// expression-subquery lookup), result caches and instrumentation counters.
///
/// Under the morsel-driven parallel executor the root context is sharded:
/// each worker gets a private ExecContext whose counters accumulate locally
/// and merge back into the root at pipeline end (MergeShard). The one piece
/// of state that must stay globally exact while workers run is the Orca
/// detour's row budget, so it is enforced through a single atomic counter
/// owned by the root and shared by every shard — a kResourceExhausted kill
/// fires at the same global row count regardless of how rows were split.
///
/// Non-copyable (the shared budget counter is an atomic); the engine creates
/// one root context per execution attempt.
struct ExecContext {
  ExecContext() = default;
  ExecContext(const ExecContext&) = delete;
  ExecContext& operator=(const ExecContext&) = delete;

  const Storage* storage = nullptr;
  CompiledQuery* query = nullptr;

  /// Cache of non-correlated expression-subquery results (keyed by
  /// subplan id).
  std::map<int, SubplanResult> subplan_cache;

  /// Cache of non-correlated derived-table materializations (keyed by the
  /// derived BlockPlan). Without it, a CTE consumed inside a correlated
  /// subquery would re-materialize on every outer row.
  std::map<const BlockPlan*, std::vector<Row>> derived_cache;

  // Instrumentation (consumed by tests and cost-model calibration).
  int64_t rows_scanned = 0;    ///< rows produced by table/index scans
  int64_t index_lookups = 0;   ///< "ref" accesses performed
  int64_t rebinds = 0;         ///< correlated re-materializations

  // Resource budget, armed by the engine for Orca-detour plans only (the
  // MySQL path is never budgeted). 0 = unlimited.
  int64_t max_rows_scanned = 0;
  double exec_deadline_ms = 0.0;          ///< absolute, on clock_ms timeline
  std::function<double()> clock_ms;       ///< set iff exec_deadline_ms > 0

  // --- Morsel-driven parallelism (see DESIGN.md section 8) ---

  /// Worker pool, or null to force every pipeline serial. Worker shards
  /// never carry a pool (no nested parallelism).
  ThreadPool* pool = nullptr;
  /// Keeps the engine's shared pool alive for this execution: with
  /// concurrent sessions, a knob change can retire the engine's pool while
  /// queries armed against it are still running. The control block is
  /// created where ThreadPool is complete (database.cc), so the forward
  /// declaration suffices here.
  std::shared_ptr<ThreadPool> pool_owner;
  /// Resolved degree-of-parallelism knob (>= 1; 1 = serial).
  int parallel_workers = 1;
  /// Rows per morsel carved from the driving table scan.
  int64_t morsel_rows = 2048;
  /// Pipelines whose driving table is smaller than this stay serial, so
  /// short OLTP-style queries never pay pool hand-off overhead.
  int64_t parallel_min_driver_rows = 32768;
  /// True for per-worker shards (suppresses nested parallel attempts).
  bool is_worker_shard = false;

  // Parallel-execution stats, merged into QueryResult by the engine.
  int parallel_pipelines = 0;   ///< pipelines that ran morsel-parallel
  int max_workers_used = 1;     ///< widest DOP any pipeline actually used

  // --- Vectorized batch execution (see DESIGN.md section 13) ---

  /// Run eligible pipelines batch-at-a-time (ExecutorConfig::enable_batch).
  bool use_batch = true;
  /// Target rows per batch (clamped to >= 1 at the operators).
  int64_t batch_size = 1024;

  // Batch-execution stats, merged into QueryResult by the engine.
  int batch_pipelines = 0;   ///< pipelines (or grafted segments) run batched
  int64_t batches = 0;       ///< batches emitted to consumers
  int64_t batch_rows = 0;    ///< selected rows across those batches

  // --- EXPLAIN ANALYZE (see DESIGN.md section 10) ---

  /// When non-null, the executor wraps every iterator to record per-node
  /// actual rows / loops / wall time into this map. Null (the default)
  /// builds the plain iterator chain — the analyze machinery costs nothing
  /// when disabled.
  OpActualsMap* op_actuals = nullptr;
  /// Clock for per-node timings; required when op_actuals is set. Tests
  /// inject a FakeClock here for deterministic timings.
  const Clock* analyze_clock = nullptr;

  // --- Executor profiling (see DESIGN.md section 15) ---

  /// When non-null (root contexts only; the engine arms every query),
  /// every morsel-parallel pipeline folds its per-worker busy/idle timing
  /// and morsel counts in here. Workers time into private slots; the merge
  /// happens on the main thread after the pool joins, so profiling adds no
  /// synchronization.
  ExecProfile* exec_profile = nullptr;
  /// Clock for worker timing; set with exec_profile. Tests inject a
  /// FakeClock for deterministic morsel counts (durations collapse to 0).
  const Clock* profile_clock = nullptr;

  /// Counts one scanned row against the budget. The row cap is charged on
  /// the shared atomic so concurrent shards trip it at one deterministic
  /// global count; the deadline is polled every 256 *locally charged* rows
  /// (a per-context stride — a stride on the global counter would make
  /// sharded workers poll the clock 1/Nth as often each).
  Status ChargeScannedRow() {
    ++rows_scanned;
    if (max_rows_scanned > 0 &&
        budget_rows()->fetch_add(1, std::memory_order_relaxed) + 1 >
            max_rows_scanned) {
      return Status::ResourceExhausted("executor row budget exceeded")
          .SetOrigin("exec.budget", "max_exec_rows");
    }
    if (exec_deadline_ms > 0 && (++deadline_poll_ticker_ & 255) == 0 &&
        clock_ms && clock_ms() > exec_deadline_ms) {
      return Status::ResourceExhausted("executor deadline exceeded")
          .SetOrigin("exec.budget", "exec_deadline_ms");
    }
    return Status::OK();
  }

  /// Bulk form for the batch executor: charges `n` scanned rows in scan
  /// order. Unbudgeted pipelines take a single add (bit-identical counter
  /// state to n ChargeScannedRow calls); budgeted ones charge row by row
  /// so the kill fires at the exact same global count as the
  /// row-at-a-time path.
  Status ChargeScannedRows(int64_t n) {
    if (max_rows_scanned <= 0 && exec_deadline_ms <= 0) {
      rows_scanned += n;
      return Status::OK();
    }
    for (int64_t i = 0; i < n; ++i) {
      Status st = ChargeScannedRow();
      if (!st.ok()) return st;
    }
    return Status::OK();
  }

  /// Initializes `shard` as a worker-private view of this root context:
  /// same storage/plan/budget (shared atomic), fresh counters and caches.
  void InitShard(ExecContext* shard) const {
    shard->storage = storage;
    shard->query = query;
    shard->max_rows_scanned = max_rows_scanned;
    shard->exec_deadline_ms = exec_deadline_ms;
    shard->clock_ms = clock_ms;
    shard->shared_budget_rows_ = budget_rows();
    shard->morsel_rows = morsel_rows;
    shard->is_worker_shard = true;
    shard->use_batch = use_batch;
    shard->batch_size = batch_size;
    if (op_actuals != nullptr) {
      // Each shard records into a private map (no locking on the hot path);
      // MergeShard sums them back into the root's map.
      shard->owned_actuals_ = std::make_unique<OpActualsMap>();
      shard->op_actuals = shard->owned_actuals_.get();
      shard->analyze_clock = analyze_clock;
    }
  }

  /// Folds a finished worker shard's counters back into this root context.
  void MergeShard(const ExecContext& shard) {
    rows_scanned += shard.rows_scanned;
    index_lookups += shard.index_lookups;
    rebinds += shard.rebinds;
    batches += shard.batches;
    batch_rows += shard.batch_rows;
    if (op_actuals != nullptr && shard.op_actuals != nullptr) {
      op_actuals->Merge(*shard.op_actuals);
    }
  }

 private:
  /// The budget counter this context charges: the root's own atomic, or —
  /// for worker shards — a pointer to the root's.
  std::atomic<int64_t>* budget_rows() const {
    return shared_budget_rows_ != nullptr ? shared_budget_rows_
                                          : &owned_budget_rows_;
  }

  mutable std::atomic<int64_t> owned_budget_rows_{0};
  std::atomic<int64_t>* shared_budget_rows_ = nullptr;
  uint32_t deadline_poll_ticker_ = 0;
  std::unique_ptr<OpActualsMap> owned_actuals_;  ///< worker shards only
};

}  // namespace taurus

#endif  // TAURUS_EXEC_EXEC_CONTEXT_H_
