#ifndef TAURUS_EXEC_EXPR_EVAL_H_
#define TAURUS_EXEC_EXPR_EVAL_H_

#include <vector>

#include "common/result.h"
#include "exec/exec_context.h"
#include "exec/frame.h"
#include "parser/ast.h"

namespace taurus {

/// Evaluates `expr` against the current frame. A column reference whose
/// slot is unoccupied evaluates to SQL NULL (this is how NULL-extended
/// rows of outer joins and semi-join outputs work). A node bound to a
/// group's output row (Expr::group_col) reads it from its frame slot.
/// Expression subqueries are executed through their compiled subplans in
/// `ctx->query`.
Result<Value> EvalExpr(const Expr& expr, const Frame& frame, ExecContext* ctx);

/// Evaluates a predicate with SQL three-valued semantics reduced to a
/// boolean: true iff the value is non-NULL and truthy.
Result<bool> EvalPredicate(const Expr& expr, const Frame& frame,
                           ExecContext* ctx);

/// Evaluates each conjunct; false as soon as one fails.
Result<bool> EvalConjuncts(const std::vector<const Expr*>& conds,
                           const Frame& frame, ExecContext* ctx);

// --- Scalar kernels -------------------------------------------------------
// The per-value pieces of the interpreter, shared with the vectorized
// evaluator (vector_ops.cc) so both paths produce bit-identical values.

/// +,-,*,/,% with MySQL numeric semantics (int stays int; /0 and %0 -> NULL).
Result<Value> EvalArithmetic(BinaryOp op, const Value& l, const Value& r);

/// EvalArithmetic for the ops that cannot fail (+, -, *), given as a
/// functor over int64_t and double; inline so vector kernels pay no call
/// or Result per row.
template <typename Op>
Value EvalTotalArithmetic(const Value& l, const Value& r, Op op) {
  if (l.is_null() || r.is_null()) return Value::Null();
  if (l.kind() == Value::Kind::kInt && r.kind() == Value::Kind::kInt) {
    return Value::Int(op(l.AsInt(), r.AsInt()));
  }
  return Value::Double(op(l.AsDouble(), r.AsDouble()));
}

/// =,<>,<,<=,>,>= with NULL propagation.
Value EvalComparison(BinaryOp op, const Value& l, const Value& r);

/// [NOT] LIKE with NULL propagation. String operands are matched in place;
/// other kinds through their ToString() rendering.
Value EvalLike(const Value& v, const Value& pattern, bool negated);

/// NOT / negation / IS [NOT] NULL.
Result<Value> EvalUnary(UnaryOp op, const Value& v);

/// CAST to `target` with MySQL coercion rules.
Result<Value> EvalCast(const Value& v, TypeId target);

/// Scalar function dispatch over already-evaluated arguments.
Result<Value> EvalFunction(const Expr& expr, std::vector<Value> args);

/// date/datetime + INTERVAL (unit and amount taken from `expr`).
Value EvalIntervalAdd(const Expr& expr, const Value& v);

/// Folds an expression with no column references, subqueries or aggregates
/// to a literal value. Returns NotSupported for non-constant expressions.
Result<Value> EvalConstExpr(const Expr& expr);

/// True when `expr` contains no column references, subqueries or aggregates.
bool IsConstExpr(const Expr& expr);

}  // namespace taurus

#endif  // TAURUS_EXEC_EXPR_EVAL_H_
