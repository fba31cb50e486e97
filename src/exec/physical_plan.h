#ifndef TAURUS_EXEC_PHYSICAL_PLAN_H_
#define TAURUS_EXEC_PHYSICAL_PLAN_H_

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "parser/ast.h"

namespace taurus {

struct BlockPlan;

/// Frame-producing physical operator (the join/scan part of a block's plan).
/// Block-level aggregation / ordering / projection live on BlockPlan, which
/// mirrors MySQL's execution model: joins first, then grouping, HAVING,
/// ordering and row-limit (Section 2.2).
struct PhysOp {
  enum class Kind {
    kTableScan,    ///< full scan of a base table leaf
    kIndexRange,   ///< range scan over index `index_id` on the first key col
    kIndexLookup,  ///< "ref" access: key columns bound to outer expressions
    kDerivedScan,  ///< scan of a materialized derived table / CTE copy
    kNLJoin,       ///< nested-loop join; right side re-opened per left row
    kHashJoin,     ///< hash join on `hash_keys`
    kFilter,       ///< residual filter (e.g. above a left join)
  };

  Kind kind = Kind::kTableScan;

  // --- scans ---
  const TableRef* leaf = nullptr;
  int index_id = -1;
  /// Pushed-down single-leaf conjuncts (evaluated per row). May reference
  /// outer (correlated) leaves.
  std::vector<const Expr*> filters;
  // kIndexRange bounds on the index's first key column (literal-valued).
  const Expr* range_lo = nullptr;
  const Expr* range_hi = nullptr;
  bool lo_inclusive = true;
  bool hi_inclusive = true;
  /// kIndexLookup: expressions (over already-bound leaves) supplying each
  /// key column value; size <= number of index key columns.
  std::vector<const Expr*> lookup_keys;
  /// The leaf access the skeleton prescribed, as plan refinement received
  /// it. The block verifier (B005) flags a leaf whose `kind` differs.
  Kind prescribed = Kind::kTableScan;

  // kDerivedScan
  BlockPlan* derived_plan = nullptr;
  /// True when the derived table references outer leaves and must be
  /// re-materialized whenever the binding outer row changes — the paper's
  /// "Materialize (invalidate on row from ...)" (Listing 7).
  bool invalidate_on_rebind = false;

  // --- joins / filter ---
  JoinType join_type = JoinType::kInner;
  std::unique_ptr<PhysOp> child;   ///< left child / filter input
  std::unique_ptr<PhysOp> right;   ///< right child (joins)
  /// Equi-join key pairs for kHashJoin: left expr == right expr.
  std::vector<std::pair<const Expr*, const Expr*>> hash_keys;
  /// Join condition conjuncts evaluated at the join (kNLJoin: full ON;
  /// kHashJoin: residual after hash keys; kFilter: the filter condition).
  std::vector<const Expr*> conds;

  // Optimizer estimates, surfaced in EXPLAIN (copied from Orca when the
  // plan took the Orca detour — Section 4.2.2).
  double est_rows = 0.0;
  double est_cost = 0.0;

  /// True when this operator has a vectorized (batch-at-a-time)
  /// implementation: table scans, filters, hash-join probes of batchable
  /// shape (see HashJoinBatchNative), and index nested-loop joins with
  /// their index-lookup inner side (see IndexNLJoinBatchNative). Set by
  /// refine-time AnalyzeBatchSafety; surfaced in EXPLAIN.
  bool batch_native = false;
  /// Why the operator stays row-at-a-time ("" when batch_native).
  std::string batch_serial_reason;

  /// Pre-order leaf list (the "best-position array" view of this subtree).
  void CollectLeaves(std::vector<const PhysOp*>* out) const {
    if (kind == Kind::kNLJoin || kind == Kind::kHashJoin) {
      child->CollectLeaves(out);
      right->CollectLeaves(out);
    } else if (kind == Kind::kFilter) {
      child->CollectLeaves(out);
    } else {
      out->push_back(this);
    }
  }
};

/// Stable snake_case name of an operator kind ("table_scan", "hash_join"),
/// used by EXPLAIN's JSON form and plan-verifier diagnostics.
inline const char* PhysOpKindName(PhysOp::Kind kind) {
  switch (kind) {
    case PhysOp::Kind::kTableScan: return "table_scan";
    case PhysOp::Kind::kIndexRange: return "index_range";
    case PhysOp::Kind::kIndexLookup: return "index_lookup";
    case PhysOp::Kind::kDerivedScan: return "derived_scan";
    case PhysOp::Kind::kFilter: return "filter";
    case PhysOp::Kind::kNLJoin: return "nested_loop_join";
    case PhysOp::Kind::kHashJoin: return "hash_join";
  }
  return "unknown";
}

/// Aggregate computation mode chosen during plan refinement.
enum class AggMode { kNone, kHash, kStream };

/// Executable plan for one query block (plus UNION continuations).
struct BlockPlan {
  const QueryBlock* block = nullptr;

  /// Frame-producing tree; null when the block has no FROM clause.
  std::unique_ptr<PhysOp> join_root;

  // Aggregation.
  AggMode agg_mode = AggMode::kNone;
  std::vector<const Expr*> group_exprs;
  /// All aggregate Expr nodes appearing in SELECT/HAVING/ORDER BY, in
  /// discovery order, deduplicated structurally. Refinement binds every
  /// post-aggregation reference to one of these, or to a group key, as a
  /// column of the group's output row (Expr::group_col).
  std::vector<const Expr*> agg_exprs;
  /// Frame slot holding a group's output row while HAVING, ORDER BY and the
  /// projections run (one past the statement's leaves); -1 without
  /// aggregation.
  int group_slot = -1;
  /// True when a post-aggregation expression reads a column of the block's
  /// own rows that is neither grouped nor aggregated, or runs a correlated
  /// subquery: each group then keeps a representative input frame.
  bool group_needs_rep = false;

  const Expr* having = nullptr;

  std::vector<std::pair<const Expr*, bool>> order_keys;  ///< (expr, asc)
  /// True when the join tree already delivers rows in ORDER BY order (an
  /// ascending index range scan drives a pure nested-loop left spine), so
  /// the sort is elided — the paper's "an index scan can also supply a
  /// required row order" Orca enhancement (Section 7 Orca-change item 4).
  bool order_satisfied = false;
  int64_t limit = -1;
  int64_t offset = 0;
  bool distinct = false;

  std::vector<const Expr*> projections;
  std::vector<std::string> column_names;

  /// True when refinement proved the block's driving pipeline safe for the
  /// morsel-driven parallel executor: a TableScan-driven probe chain with
  /// no correlation, no expression subqueries in worker-evaluated
  /// expressions, and mergeable output (see DESIGN.md section 8). The
  /// executor still applies runtime gates (worker pool present, driver
  /// table large enough).
  bool parallel_eligible = false;
  /// Why the pipeline must stay serial ("" when parallel_eligible);
  /// surfaced in EXPLAIN.
  std::string serial_reason;

  /// True when the block's whole driving chain (join_root down its probe
  /// path to the driving TableScan) is batch-native end to end, so the
  /// executor can run it vectorized — including under morsel-driven
  /// workers. The executor may still run partial batch segments behind
  /// adapters when this is false; the flag drives EXPLAIN surfacing and
  /// the worker-chain fast path.
  bool batch_eligible = false;
  /// Why the driving chain stays row-at-a-time ("" when batch_eligible).
  std::string batch_serial_reason;

  // UNION [ALL] arms (each compiled independently; the head block's
  // order/limit apply to the union result).
  std::vector<std::unique_ptr<BlockPlan>> union_arms;
  bool union_all = false;
  /// For unions, ORDER BY keys resolved to output column positions
  /// (position, ascending); filled during refinement.
  std::vector<std::pair<int, bool>> union_order_positions;

  double est_rows = 0.0;
  double est_cost = 0.0;
};

/// A compiled expression-level subquery (EXISTS / IN / scalar). The plan is
/// re-run per outer row when correlated; non-correlated results are cached
/// by the evaluator.
struct Subplan {
  std::unique_ptr<BlockPlan> plan;
  bool correlated = false;
};

/// A fully compiled statement: the bound AST (owning all Expr/TableRef
/// nodes), the root block plan, expression-subquery plans, and any
/// expressions synthesized during optimization/refinement. How the plan was
/// obtained (route, cache hit, fallback, verifier counts) is recorded in the
/// compile's QueryEvent, not here.
struct CompiledQuery {
  std::unique_ptr<QueryBlock> ast;  ///< bound & prepared AST (owns exprs)
  int num_refs = 0;

  std::unique_ptr<BlockPlan> root;
  std::vector<std::unique_ptr<Subplan>> subplans;
  /// Plans for derived tables / CTE copies, referenced from kDerivedScan
  /// nodes (which hold raw pointers).
  std::vector<std::unique_ptr<BlockPlan>> owned_blocks;
  /// Owner for expressions created after binding (predicate rewrites,
  /// synthesized equality conjuncts, ...).
  std::vector<std::unique_ptr<Expr>> owned_exprs;
};

}  // namespace taurus

#endif  // TAURUS_EXEC_PHYSICAL_PLAN_H_
