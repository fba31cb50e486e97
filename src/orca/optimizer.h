#ifndef TAURUS_ORCA_OPTIMIZER_H_
#define TAURUS_ORCA_OPTIMIZER_H_

#include <memory>

#include "common/resource_budget.h"
#include "common/result.h"
#include "myopt/cardinality.h"
#include "obs/trace.h"
#include "orca/logical.h"
#include "orca/orca.h"
#include "orca/physical.h"

namespace taurus {

/// The Orca-style cost-based optimizer core: memo-based join enumeration
/// over a logical operator tree, producing a physical plan with cost-based
/// join methods (hash / nested-loop / index nested-loop), cost-based
/// access paths, and — under EXHAUSTIVE2 — bushy join trees. Statistics
/// flow exclusively through the provided StatsProvider (on the integration
/// path, an MdpStatsProvider backed by the metadata provider).
class OrcaOptimizer {
 public:
  /// `governor`, when non-null, bounds the memo search (group/pair caps and
  /// the wall-clock deadline); exceeding a limit aborts with
  /// kResourceExhausted so the caller can fall back. `tracer`, when
  /// non-null, records memo.build / memo.join_search sub-spans.
  OrcaOptimizer(const OrcaConfig& config, StatsProvider* stats, int num_refs,
                ResourceGovernor* governor = nullptr, Tracer* tracer = nullptr)
      : config_(config),
        stats_(stats),
        num_refs_(num_refs),
        governor_(governor),
        tracer_(tracer) {}

  /// Optimizes one block's logical tree into a physical tree.
  Result<std::unique_ptr<OrcaPhysicalOp>> Optimize(OrcaLogicalOp* root);

  /// Number of (left, right) partition pairs costed — a proxy for
  /// optimization effort, reported by the Table 1 bench.
  int64_t partitions_evaluated() const { return partitions_evaluated_; }
  /// Number of memo groups created.
  int num_groups() const { return num_groups_; }

 private:
  const OrcaConfig& config_;
  StatsProvider* stats_;
  int num_refs_;
  ResourceGovernor* governor_;
  Tracer* tracer_;
  int64_t partitions_evaluated_ = 0;
  int num_groups_ = 0;
};

}  // namespace taurus

#endif  // TAURUS_ORCA_OPTIMIZER_H_
