#ifndef TAURUS_MYOPT_ACCESS_PATH_H_
#define TAURUS_MYOPT_ACCESS_PATH_H_

#include <optional>
#include <vector>

#include "myopt/cardinality.h"
#include "myopt/cost_params.h"
#include "myopt/skeleton.h"
#include "parser/ast_util.h"

namespace taurus {

// Index access, defined once. Both optimizers choose a leaf's access here
// and plan refinement binds it with the same predicates, so an optimizer
// can prescribe only an access the refiner binds (DESIGN.md section 4).

/// The bounds one conjunct puts on one column of a leaf. `col = const`
/// bounds both ends with the same constant and sets `point`.
struct ColumnBounds {
  int column_idx = -1;
  const Expr* lo = nullptr;  ///< lower bound, or null
  const Expr* hi = nullptr;  ///< upper bound, or null
  bool lo_inclusive = true;
  bool hi_inclusive = true;
  bool point = false;
};

/// The bounds of `conjunct` when it is `col <op> const` with <op> one of
/// = < <= > >=, the mirrored `const <op> col`, or a non-negated
/// `col BETWEEN const AND const`, where `col` is a column of `leaf` and
/// constant means IsConstExpr. Nothing for any other conjunct.
std::optional<ColumnBounds> RangeBound(const Expr& conjunct,
                                       const TableRef& leaf);

/// The other side of `eq` when `eq` equates column `column_idx` of `leaf`
/// with an expression that reads neither `leaf` nor any ref `available`
/// rejects: the key an index lookup binds. Nullptr otherwise. Never
/// allocates (the Orca join search calls it once per partition pair).
const Expr* KeyBinding(const Expr& eq, const TableRef& leaf, int column_idx,
                       RefPredicate available);

/// Cost of one index probe on column `column_idx` of leaf `ref_id` with
/// `base_rows` rows: one descent plus the rows a key matches.
double IndexProbeCost(const StatsProvider& stats, const CostParams& params,
                      int ref_id, int column_idx, double base_rows);

/// A leaf's chosen access method and its cost.
struct LeafAccess {
  AccessMethod method = AccessMethod::kTableScan;
  int index_id = -1;
  double cost = 0.0;
};

/// Cheapest access to `leaf` (with `base_rows` rows) under its local
/// conjuncts: a table scan, an index range on a RangeBound conjunct over
/// an index's first key column, or a correlated ref access on a KeyBinding
/// conjunct whose key reads only refs `outer` accepts.
LeafAccess ChooseLeafAccess(const TableRef& leaf,
                            const std::vector<Expr*>& local_conds,
                            double base_rows, const StatsProvider& stats,
                            const CostParams& params, RefPredicate outer);

}  // namespace taurus

#endif  // TAURUS_MYOPT_ACCESS_PATH_H_
