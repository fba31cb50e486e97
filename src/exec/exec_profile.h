#ifndef TAURUS_EXEC_EXEC_PROFILE_H_
#define TAURUS_EXEC_EXEC_PROFILE_H_

#include <algorithm>
#include <cstdint>
#include <vector>

namespace taurus {

/// One worker slot's share of a query's morsel-parallel execution
/// (DESIGN.md section 15). Workers write their own slot without
/// synchronization; the main thread folds the slots together only after
/// the pool joins.
struct WorkerProfile {
  /// Wall time spent executing morsels (Open + consume, per morsel).
  double busy_ms = 0.0;
  /// Pipeline wall time not spent executing morsels: queue hand-off plus
  /// waiting for the slowest peer after this worker drained the queue.
  double idle_ms = 0.0;
  /// Morsels this worker claimed from the shared queue.
  int64_t morsels = 0;
  /// Driver rows processed through the vectorized batch chain vs the
  /// row-at-a-time Volcano clone.
  int64_t batch_rows = 0;
  int64_t volcano_rows = 0;
};

/// Per-query executor profile: per-worker morsel timing aggregated across
/// every morsel-parallel pipeline of the query. Copyable (it is part of the
/// query's QueryEvent). No worker slots means every pipeline ran serial.
struct ExecProfile {
  /// Morsel-parallel pipelines that contributed worker slots.
  int pipelines = 0;
  /// Indexed by worker slot; sized by the widest DOP any pipeline used.
  std::vector<WorkerProfile> workers;

  double busy_ms() const {
    double total = 0.0;
    for (const WorkerProfile& w : workers) total += w.busy_ms;
    return total;
  }
  double idle_ms() const {
    double total = 0.0;
    for (const WorkerProfile& w : workers) total += w.idle_ms;
    return total;
  }
  int64_t morsels() const {
    int64_t total = 0;
    for (const WorkerProfile& w : workers) total += w.morsels;
    return total;
  }

  /// Folds one finished pipeline's worker slots into the query profile.
  void MergePipeline(const std::vector<WorkerProfile>& pipeline_workers) {
    ++pipelines;
    if (workers.size() < pipeline_workers.size()) {
      workers.resize(pipeline_workers.size());
    }
    for (size_t w = 0; w < pipeline_workers.size(); ++w) {
      workers[w].busy_ms += pipeline_workers[w].busy_ms;
      workers[w].idle_ms += pipeline_workers[w].idle_ms;
      workers[w].morsels += pipeline_workers[w].morsels;
      workers[w].batch_rows += pipeline_workers[w].batch_rows;
      workers[w].volcano_rows += pipeline_workers[w].volcano_rows;
    }
  }
};

}  // namespace taurus

#endif  // TAURUS_EXEC_EXEC_PROFILE_H_
