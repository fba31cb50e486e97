#include "parser/ast_util.h"

namespace taurus {

bool ExprEquals(const Expr& a, const Expr& b) {
  if (a.kind != b.kind) return false;
  if (a.children.size() != b.children.size()) return false;
  switch (a.kind) {
    case Expr::Kind::kLiteral:
      if (a.literal.is_null() != b.literal.is_null()) return false;
      if (Value::Compare(a.literal, b.literal) != 0) return false;
      break;
    case Expr::Kind::kColumnRef:
      if (a.ref_id != b.ref_id || a.column_idx != b.column_idx) return false;
      break;
    case Expr::Kind::kBinary:
      if (a.bop != b.bop) return false;
      break;
    case Expr::Kind::kUnary:
      if (a.uop != b.uop) return false;
      break;
    case Expr::Kind::kFuncCall:
      if (a.func_name != b.func_name) return false;
      break;
    case Expr::Kind::kAgg:
      if (a.agg_func != b.agg_func || a.agg_distinct != b.agg_distinct) {
        return false;
      }
      break;
    case Expr::Kind::kCast:
      if (a.cast_type != b.cast_type) return false;
      break;
    case Expr::Kind::kIntervalAdd:
      if (a.interval_unit != b.interval_unit ||
          a.interval_amount != b.interval_amount) {
        return false;
      }
      break;
    case Expr::Kind::kCase:
      if (a.case_has_else != b.case_has_else) return false;
      break;
    case Expr::Kind::kInList:
    case Expr::Kind::kBetween:
    case Expr::Kind::kLike:
      if (a.negated != b.negated) return false;
      break;
    case Expr::Kind::kExists:
    case Expr::Kind::kInSubquery:
    case Expr::Kind::kScalarSubquery:
      // Two textually identical subqueries bind to distinct leaves, so
      // structural equality would be misleading; compare by identity via
      // the compiled subplan id instead.
      return a.subplan_id >= 0 && a.subplan_id == b.subplan_id;
  }
  for (size_t i = 0; i < a.children.size(); ++i) {
    if (!ExprEquals(*a.children[i], *b.children[i])) return false;
  }
  return true;
}

namespace {

bool AllFromBlock(const QueryBlock& block, RefPredicate pred);

bool AllFromTableRef(const TableRef& ref, RefPredicate pred) {
  if (ref.kind == TableRef::Kind::kJoin) {
    return (!ref.on || AllReferencedRefs(*ref.on, pred)) &&
           AllFromTableRef(*ref.left, pred) &&
           AllFromTableRef(*ref.right, pred);
  }
  return ref.kind != TableRef::Kind::kDerived ||
         AllFromBlock(*ref.derived, pred);
}

bool AllFromBlock(const QueryBlock& block, RefPredicate pred) {
  for (const auto& item : block.select_items) {
    if (!AllReferencedRefs(*item.expr, pred)) return false;
  }
  if (block.where && !AllReferencedRefs(*block.where, pred)) return false;
  if (block.having && !AllReferencedRefs(*block.having, pred)) return false;
  for (const auto& g : block.group_by) {
    if (!AllReferencedRefs(*g, pred)) return false;
  }
  for (const auto& o : block.order_by) {
    if (!AllReferencedRefs(*o.expr, pred)) return false;
  }
  for (const auto& t : block.from) {
    if (!AllFromTableRef(*t, pred)) return false;
  }
  return !block.union_next || AllFromBlock(*block.union_next, pred);
}

}  // namespace

bool AllReferencedRefs(const Expr& expr, RefPredicate pred) {
  if (expr.kind == Expr::Kind::kColumnRef && expr.ref_id >= 0 &&
      !pred(expr.ref_id)) {
    return false;
  }
  for (const auto& child : expr.children) {
    if (!AllReferencedRefs(*child, pred)) return false;
  }
  return !expr.subquery || AllFromBlock(*expr.subquery, pred);
}

void CollectReferencedRefs(const Expr& expr, std::vector<bool>* refs) {
  AllReferencedRefs(expr, [refs](int ref) {
    if (static_cast<size_t>(ref) < refs->size()) {
      (*refs)[static_cast<size_t>(ref)] = true;
    }
    return true;
  });
}

bool ContainsAggregate(const Expr& expr) {
  if (expr.kind == Expr::Kind::kAgg) return true;
  for (const auto& child : expr.children) {
    if (ContainsAggregate(*child)) return true;
  }
  return false;
}

bool ContainsSubquery(const Expr& expr) {
  if (expr.subquery) return true;
  for (const auto& child : expr.children) {
    if (ContainsSubquery(*child)) return true;
  }
  return false;
}

void SplitConjuncts(const Expr* pred, std::vector<const Expr*>* out) {
  if (pred == nullptr) return;
  if (pred->kind == Expr::Kind::kBinary && pred->bop == BinaryOp::kAnd) {
    SplitConjuncts(pred->children[0].get(), out);
    SplitConjuncts(pred->children[1].get(), out);
    return;
  }
  out->push_back(pred);
}

void SplitConjunctsMutable(Expr* pred, std::vector<Expr*>* out) {
  if (pred == nullptr) return;
  if (pred->kind == Expr::Kind::kBinary && pred->bop == BinaryOp::kAnd) {
    SplitConjunctsMutable(pred->children[0].get(), out);
    SplitConjunctsMutable(pred->children[1].get(), out);
    return;
  }
  out->push_back(pred);
}

}  // namespace taurus
