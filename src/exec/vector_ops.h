#ifndef TAURUS_EXEC_VECTOR_OPS_H_
#define TAURUS_EXEC_VECTOR_OPS_H_

#include <vector>

#include "common/result.h"
#include "exec/batch.h"
#include "exec/exec_context.h"
#include "parser/ast.h"

namespace taurus {

/// Evaluates `expr` once per selected row of `batch`, writing one value per
/// selection entry into `out` (resized to batch.sel.size(), parallel to it).
/// Bit-identical to calling EvalExpr row by row: AND/OR/CASE/IN evaluate
/// sub-expressions only for the rows the scalar interpreter would have
/// reached (short-circuit via row-index sublists), so error and subquery
/// side-effect behavior is preserved. Expressions the vector path cannot
/// split (aggregates, EXISTS/IN/scalar subqueries) fall back to the scalar
/// interpreter per row through the batch's base frame.
Status EvalExprBatch(const Expr& expr, const Batch& batch, ExecContext* ctx,
                     std::vector<Value>* out);

/// Applies each conjunct over the batch, shrinking `batch->sel` in place to
/// the rows where the conjunct is non-NULL true before evaluating the next
/// one — the vectorized form of short-circuit AND. Column-vs-literal and
/// column-vs-column comparisons (and BETWEEN) take a copy-free compare
/// kernel.
Status FilterBatch(const std::vector<const Expr*>& conds, Batch* batch,
                   ExecContext* ctx);

}  // namespace taurus

#endif  // TAURUS_EXEC_VECTOR_OPS_H_
