#ifndef TAURUS_MYOPT_MYSQL_OPTIMIZER_H_
#define TAURUS_MYOPT_MYSQL_OPTIMIZER_H_

#include <memory>

#include "catalog/catalog.h"
#include "common/result.h"
#include "frontend/binder.h"
#include "myopt/cardinality.h"
#include "myopt/cost_params.h"
#include "myopt/skeleton.h"
#include "parser/ast_util.h"

namespace taurus {

/// The MySQL-style cost-based optimizer: one SELECT block at a time,
/// greedy left-deep join ordering, nested-loop joins preferred (index
/// "ref" access when an index matches), hash join chosen only when no
/// index-based access is available for an equi-join — i.e. not cost-based,
/// exactly the behavior the paper's Section 1 lists as limitation (2) and
/// the Section 3.1 example shows.
class MySqlOptimizer {
 public:
  MySqlOptimizer(const Catalog& catalog, BoundStatement* stmt,
                 CostParams params = CostParams());

  /// Optimizes the statement's root block (recursively optimizing derived
  /// tables, expression subqueries and UNION arms) into a skeleton plan.
  Result<std::unique_ptr<BlockSkeleton>> Optimize();

  /// Optimizes one block (exposed for tests).
  Result<std::unique_ptr<BlockSkeleton>> OptimizeBlock(QueryBlock* block);

  const StatsProvider& stats() const { return stats_; }

 private:
  struct Planned {
    std::unique_ptr<SkeletonNode> node;
    double rows = 1.0;
    double cost = 0.0;
  };

  /// Greedily orders the units of a FROM subtree (used both for a block's
  /// full FROM and for composite dependent units).
  Result<Planned> PlanJoin(QueryBlock* block, TableRef* single_tree,
                           const std::vector<Expr*>* extra_conds);

  /// Plans access to a single leaf given its local conjuncts; `outer`
  /// accepts the refs outside this join graph.
  Planned PlanLeaf(TableRef* leaf, const std::vector<Expr*>& local_conds,
                   RefPredicate outer);

  const Catalog& catalog_;
  BoundStatement* stmt_;
  CostParams params_;
  StatsProvider stats_;
};

/// Convenience wrapper.
Result<std::unique_ptr<BlockSkeleton>> MySqlOptimize(const Catalog& catalog,
                                                     BoundStatement* stmt);

/// Stock MySQL's limited, index-gated OR refactoring of one block's WHERE
/// (Section 7 item 4). Applied by the optimizer before join ordering;
/// exposed so the plan cache can replay the same deterministic AST rewrite
/// when re-attaching a cached skeleton to a freshly bound statement.
void ApplyIndexGatedOrFactoring(QueryBlock* block,
                                const std::vector<TableRef*>& leaves);

}  // namespace taurus

#endif  // TAURUS_MYOPT_MYSQL_OPTIMIZER_H_
