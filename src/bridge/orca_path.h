#ifndef TAURUS_BRIDGE_ORCA_PATH_H_
#define TAURUS_BRIDGE_ORCA_PATH_H_

#include <map>
#include <memory>
#include <string>

#include "catalog/catalog.h"
#include "common/resource_budget.h"
#include "common/result.h"
#include "frontend/binder.h"
#include "mdp/provider.h"
#include "mdp/stats_adapter.h"
#include "myopt/skeleton.h"
#include "obs/query_event.h"
#include "obs/trace.h"
#include "orca/orca.h"
#include "verify/diagnostics.h"

namespace taurus {

/// Drives the Orca detour for a whole statement: for every query block
/// (derived tables and expression subqueries bottom-up), run the parse
/// tree converter, the Orca optimizer (statistics served through the
/// metadata provider), and the plan converter — producing the same
/// BlockSkeleton structure the MySQL optimizer produces, so plan
/// refinement stays oblivious of the detour (Section 4.3).
///
/// CTE handling (Section 4.2.3): Orca has one producer plan per CTE. The
/// binder expanded each CTE reference into its own copy (MySQL's multiple-
/// producer model), so this driver optimizes the first copy and *maps* the
/// resulting skeleton onto every further copy of the same CTE — the
/// single-producer-to-n-consumers translation.
class OrcaPathOptimizer {
 public:
  /// `governor`, when non-null, bounds every memo search this detour runs
  /// (blocks share one budget); kResourceExhausted aborts the detour.
  /// `verify`, when non-null with verify_plans set, runs the boundary
  /// verifiers (logical after the parse tree converter, physical on Orca's
  /// output, flip legality and skeleton invariants after the plan
  /// converter); with enforce set, an error-severity violation aborts the
  /// detour with kPlanInvariantViolation.
  /// `tracer`, when non-null, records the detour's pipeline sub-spans
  /// (decorrelate, parse_tree_convert, orca.optimize with its memo spans,
  /// plan_convert, verify.*) for the per-query trace.
  OrcaPathOptimizer(const Catalog& catalog, BoundStatement* stmt,
                    MetadataProvider* mdp, const OrcaConfig& config,
                    ResourceGovernor* governor = nullptr,
                    const PlanVerifyConfig* verify = nullptr,
                    Tracer* tracer = nullptr);

  Result<std::unique_ptr<BlockSkeleton>> Optimize();

  const OrcaPathMetrics& metrics() const { return metrics_; }

  /// Diagnostics accumulated by the boundary verifiers across all blocks.
  const VerifyReport& verify_report() const { return verify_report_; }

 private:
  Result<std::unique_ptr<BlockSkeleton>> OptimizeBlock(QueryBlock* block);

  bool ShouldVerify() const {
    return verify_ != nullptr && verify_->verify_plans;
  }
  /// OK unless enforcement is on and the report has a new error; then the
  /// first error as kPlanInvariantViolation with origin `subsystem`.
  Status CheckEnforce(const char* subsystem) const;

  /// Maps a CTE producer skeleton onto another bound copy of the same CTE
  /// body (clone-structured blocks).
  Result<std::unique_ptr<BlockSkeleton>> RemapSkeleton(
      const BlockSkeleton& tmpl, QueryBlock* target);

  const Catalog& catalog_;
  BoundStatement* stmt_;
  MetadataProvider* mdp_;
  const OrcaConfig& config_;
  ResourceGovernor* governor_;
  const PlanVerifyConfig* verify_;
  Tracer* tracer_;
  MdpStatsProvider stats_;
  OrcaPathMetrics metrics_;
  VerifyReport verify_report_;
  std::map<std::string, const BlockSkeleton*> cte_templates_;
};

}  // namespace taurus

#endif  // TAURUS_BRIDGE_ORCA_PATH_H_
