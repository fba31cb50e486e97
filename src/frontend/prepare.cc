#include "frontend/prepare.h"

#include <functional>
#include <utility>

#include "exec/expr_eval.h"
#include "parser/ast_util.h"
#include "types/datetime.h"

namespace taurus {

namespace {

// ---------------------------------------------------------------------------
// Constant folding
// ---------------------------------------------------------------------------

Status FoldExpr(std::unique_ptr<Expr>* expr);

Status FoldChildren(Expr* e) {
  for (auto& child : e->children) {
    TAURUS_RETURN_IF_ERROR(FoldExpr(&child));
  }
  return Status::OK();
}

Status FoldExpr(std::unique_ptr<Expr>* expr) {
  Expr* e = expr->get();
  TAURUS_RETURN_IF_ERROR(FoldChildren(e));
  if (e->kind == Expr::Kind::kLiteral) return Status::OK();
  // Do not fold away boolean connectives wholesale — only scalar leaves of
  // predicates matter, and folding AND/OR trees would lose structure the
  // optimizers use. Everything else that is constant folds.
  if (e->kind == Expr::Kind::kBinary &&
      (e->bop == BinaryOp::kAnd || e->bop == BinaryOp::kOr)) {
    return Status::OK();
  }
  if (!IsConstExpr(*e)) return Status::OK();
  auto folded = EvalConstExpr(*e);
  if (!folded.ok()) return Status::OK();  // leave non-foldable intact
  TypeId ty = e->result_type;
  *expr = MakeLiteral(std::move(folded).value());
  (*expr)->result_type = ty;
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Temporal coercion of string constants
// ---------------------------------------------------------------------------

/// True when `e` is a DATE or DATETIME-family column reference; `*cat` is
/// then its category (kDte or kDtm).
bool IsTemporalColumn(const Expr& e, TypeCategory* cat) {
  if (e.kind != Expr::Kind::kColumnRef || !IsTemporalType(e.result_type)) {
    return false;
  }
  *cat = CategoryOf(e.result_type);
  return *cat == TypeCategory::kDte || *cat == TypeCategory::kDtm;
}

/// Turns a string literal into the DATE or DATETIME value it spells, as
/// INSERT coerces a string into a temporal column. A string that is not
/// exactly a date ('YYYY-MM-DD') or, for DATETIME, a date with an optional
/// 'hh:mm:ss' stays a string.
void CoerceTemporalLiteral(TypeCategory cat, Expr* lit) {
  if (lit->kind != Expr::Kind::kLiteral ||
      lit->literal.kind() != Value::Kind::kString) {
    return;
  }
  const std::string_view text = lit->literal.AsString();
  if (cat == TypeCategory::kDte) {
    auto days = ParseDate(text);
    if (text.size() != 10 || !days.ok()) return;
    lit->literal = Value::Date(*days);
    lit->result_type = TypeId::kDate;
    return;
  }
  auto secs = ParseDatetime(text);
  if ((text.size() != 10 && text.size() != 19) || !secs.ok()) return;
  lit->literal = Value::Datetime(*secs);
  lit->result_type = TypeId::kDatetime;
}

/// MySQL compares a DATE or DATETIME column with a string constant by
/// converting the constant to the column's type; otherwise the string
/// would compare as a number ('1995-09-01' as 1995). Covers = <> < <= > >=,
/// BETWEEN and IN lists whose tested operand is such a column.
Status CoerceTemporalComparisons(std::unique_ptr<Expr>* slot) {
  Expr* e = slot->get();
  for (auto& child : e->children) {
    TAURUS_RETURN_IF_ERROR(CoerceTemporalComparisons(&child));
  }
  TypeCategory cat;
  if (e->kind == Expr::Kind::kBinary && IsComparisonOp(e->bop)) {
    if (IsTemporalColumn(*e->children[0], &cat)) {
      CoerceTemporalLiteral(cat, e->children[1].get());
    }
    if (IsTemporalColumn(*e->children[1], &cat)) {
      CoerceTemporalLiteral(cat, e->children[0].get());
    }
  } else if ((e->kind == Expr::Kind::kBetween ||
              e->kind == Expr::Kind::kInList) &&
             IsTemporalColumn(*e->children[0], &cat)) {
    for (size_t i = 1; i < e->children.size(); ++i) {
      CoerceTemporalLiteral(cat, e->children[i].get());
    }
  }
  return Status::OK();
}

// ---------------------------------------------------------------------------
// NOT pushdown (normalization)
// ---------------------------------------------------------------------------

/// Rewrites NOT over predicates into negated forms: NOT EXISTS ->
/// EXISTS(negated), NOT (a < b) -> a >= b, NOT NOT x -> x, NOT (x IS NULL)
/// -> x IS NOT NULL. This mirrors MySQL's Prepare-phase condition
/// normalization and is what lets the semi-join conversion see NOT EXISTS
/// conjuncts.
Status NormalizeNot(std::unique_ptr<Expr>* slot) {
  Expr* e = slot->get();
  for (auto& child : e->children) {
    TAURUS_RETURN_IF_ERROR(NormalizeNot(&child));
  }
  if (e->kind != Expr::Kind::kUnary || e->uop != UnaryOp::kNot) {
    return Status::OK();
  }
  Expr* c = e->children[0].get();
  switch (c->kind) {
    case Expr::Kind::kExists:
    case Expr::Kind::kInSubquery:
    case Expr::Kind::kInList:
    case Expr::Kind::kLike:
    case Expr::Kind::kBetween:
      c->negated = !c->negated;
      *slot = std::move(e->children[0]);
      return Status::OK();
    case Expr::Kind::kUnary:
      if (c->uop == UnaryOp::kNot) {
        *slot = std::move(c->children[0]);
        return NormalizeNot(slot);
      }
      if (c->uop == UnaryOp::kIsNull) {
        c->uop = UnaryOp::kIsNotNull;
        *slot = std::move(e->children[0]);
        return Status::OK();
      }
      if (c->uop == UnaryOp::kIsNotNull) {
        c->uop = UnaryOp::kIsNull;
        *slot = std::move(e->children[0]);
        return Status::OK();
      }
      return Status::OK();
    case Expr::Kind::kBinary:
      if (IsComparisonOp(c->bop)) {
        c->bop = InverseComparison(c->bop);
        *slot = std::move(e->children[0]);
      }
      return Status::OK();
    default:
      return Status::OK();
  }
}

// ---------------------------------------------------------------------------
// Block traversal helpers
// ---------------------------------------------------------------------------

/// Applies `fn` to every expression slot of a block (not recursing into
/// nested blocks — the caller drives block recursion).
Status ForEachExprSlot(QueryBlock* block,
                       const std::function<Status(std::unique_ptr<Expr>*)>& fn);

Status ForEachJoinOn(TableRef* ref,
                     const std::function<Status(std::unique_ptr<Expr>*)>& fn) {
  if (ref->kind != TableRef::Kind::kJoin) return Status::OK();
  if (ref->on) TAURUS_RETURN_IF_ERROR(fn(&ref->on));
  TAURUS_RETURN_IF_ERROR(ForEachJoinOn(ref->left.get(), fn));
  return ForEachJoinOn(ref->right.get(), fn);
}

Status ForEachExprSlot(
    QueryBlock* block,
    const std::function<Status(std::unique_ptr<Expr>*)>& fn) {
  for (auto& item : block->select_items) {
    TAURUS_RETURN_IF_ERROR(fn(&item.expr));
  }
  if (block->where) TAURUS_RETURN_IF_ERROR(fn(&block->where));
  for (auto& g : block->group_by) TAURUS_RETURN_IF_ERROR(fn(&g));
  if (block->having) TAURUS_RETURN_IF_ERROR(fn(&block->having));
  for (auto& o : block->order_by) TAURUS_RETURN_IF_ERROR(fn(&o.expr));
  for (auto& t : block->from) {
    TAURUS_RETURN_IF_ERROR(ForEachJoinOn(t.get(), fn));
  }
  return Status::OK();
}

// ---------------------------------------------------------------------------
// EXISTS / IN  ->  semi / anti-semi join
// ---------------------------------------------------------------------------

/// True when the subquery block has a shape convertible to a semi-join:
/// plain SELECT over tables with a WHERE, nothing else.
bool SubqueryConvertible(const QueryBlock& sub) {
  if (sub.from.empty()) return false;
  if (!sub.group_by.empty() || sub.having != nullptr) return false;
  if (sub.limit >= 0 || sub.offset > 0) return false;
  if (sub.union_next != nullptr) return false;
  if (!sub.ctes.empty()) return false;
  for (const auto& item : sub.select_items) {
    if (ContainsAggregate(*item.expr)) return false;
  }
  // Derived tables inside the subquery are fine; windowed/ordered
  // subqueries in EXISTS are meaningless and simply dropped by MySQL, but
  // we keep them on the subplan path for safety.
  if (!sub.order_by.empty()) return false;
  return true;
}

/// For NOT IN, anti-semi conversion is only legal when neither side can be
/// NULL (MySQL checks column nullability; Section 4.1).
bool ExprNonNullable(const Expr& e) {
  switch (e.kind) {
    case Expr::Kind::kLiteral:
      return !e.literal.is_null();
    case Expr::Kind::kColumnRef: {
      // Binding stored only type info; treat columns as non-nullable when
      // the owning table declares them NOT NULL. We can't reach the
      // ColumnDef from here without the leaf, so be permissive for base
      // table refs resolved through the binder: the binder rewired
      // result_type but nullability travels via `column_nullable`.
      return e.column_nullable == false;
    }
    default:
      return false;
  }
}

/// Combines a FROM list into a single join tree (comma list = inner join
/// with no condition, i.e. cross product constrained by WHERE).
std::unique_ptr<TableRef> CombineFromList(
    std::vector<std::unique_ptr<TableRef>> list) {
  std::unique_ptr<TableRef> acc = std::move(list[0]);
  for (size_t i = 1; i < list.size(); ++i) {
    auto join = std::make_unique<TableRef>();
    join->kind = TableRef::Kind::kJoin;
    join->join_type = JoinType::kInner;
    join->left = std::move(acc);
    join->right = std::move(list[i]);
    acc = std::move(join);
  }
  return acc;
}

void ReownLeaves(TableRef* ref, QueryBlock* new_owner) {
  if (ref->kind == TableRef::Kind::kJoin) {
    ReownLeaves(ref->left.get(), new_owner);
    ReownLeaves(ref->right.get(), new_owner);
  } else {
    ref->owner = new_owner;
  }
}

std::unique_ptr<Expr> AndExprs(std::unique_ptr<Expr> a,
                               std::unique_ptr<Expr> b) {
  if (!a) return b;
  if (!b) return a;
  auto e = MakeBinary(BinaryOp::kAnd, std::move(a), std::move(b));
  e->result_type = TypeId::kTiny;
  return e;
}

/// Attempts to convert one WHERE conjunct (EXISTS / IN subquery) into a
/// semi/anti-semi join appended to `block`'s FROM tree. Returns true when
/// converted.
bool TryConvertSubqueryConjunct(QueryBlock* block,
                                std::unique_ptr<Expr>* conjunct) {
  Expr* e = conjunct->get();
  JoinType jt;
  std::unique_ptr<Expr> extra_on;
  if (e->kind == Expr::Kind::kExists) {
    jt = e->negated ? JoinType::kAntiSemi : JoinType::kSemi;
  } else if (e->kind == Expr::Kind::kInSubquery) {
    jt = e->negated ? JoinType::kAntiSemi : JoinType::kSemi;
    if (e->negated) {
      // NOT IN: NULL on either side changes semantics; require provably
      // non-nullable operands.
      if (!ExprNonNullable(*e->children[0]) ||
          !ExprNonNullable(*e->subquery->select_items[0].expr)) {
        return false;
      }
    }
  } else {
    return false;
  }
  QueryBlock* sub = e->subquery.get();
  if (!SubqueryConvertible(*sub)) return false;

  if (e->kind == Expr::Kind::kInSubquery) {
    extra_on = MakeBinary(BinaryOp::kEq, std::move(e->children[0]),
                          sub->select_items[0].expr->Clone());
    extra_on->result_type = TypeId::kTiny;
  }

  // Assemble: (current FROM) SEMI JOIN (subquery FROM) ON (sub WHERE [+ eq]).
  std::unique_ptr<TableRef> left = CombineFromList(std::move(block->from));
  block->from.clear();
  std::unique_ptr<TableRef> right = CombineFromList(std::move(sub->from));
  ReownLeaves(right.get(), block);

  auto join = std::make_unique<TableRef>();
  join->kind = TableRef::Kind::kJoin;
  join->join_type = jt;
  join->left = std::move(left);
  join->right = std::move(right);
  join->on = AndExprs(std::move(sub->where), std::move(extra_on));
  block->from.push_back(std::move(join));

  conjunct->reset();  // conjunct consumed
  return true;
}

Status ConvertSubqueries(QueryBlock* block) {
  if (block->where == nullptr) return Status::OK();
  // Pull the WHERE apart into owned conjuncts.
  std::vector<std::unique_ptr<Expr>> conjuncts;
  {
    std::vector<Expr*> flat;
    SplitConjunctsMutable(block->where.get(), &flat);
    if (flat.size() == 1) {
      conjuncts.push_back(std::move(block->where));
    } else {
      // Reconstruct ownership of each conjunct by detaching from the AND
      // tree. Simplest correct approach: clone each conjunct, then drop
      // the original tree (bound state is copied by Clone).
      for (Expr* c : flat) conjuncts.push_back(c->Clone());
      block->where.reset();
    }
  }
  for (auto& c : conjuncts) {
    if (c == nullptr) continue;
    TryConvertSubqueryConjunct(block, &c);
  }
  // Rebuild WHERE from surviving conjuncts.
  std::unique_ptr<Expr> where;
  for (auto& c : conjuncts) {
    if (c != nullptr) where = AndExprs(std::move(where), std::move(c));
  }
  block->where = std::move(where);
  return Status::OK();
}

// ---------------------------------------------------------------------------
// LEFT JOIN -> INNER JOIN simplification
// ---------------------------------------------------------------------------

/// True when the conjunct rejects NULL-extended rows of leaf `ref_id`
/// (i.e. it cannot evaluate to TRUE when every column of that leaf is
/// NULL).
bool NullRejecting(const Expr& e, int ref_id, int num_refs) {
  switch (e.kind) {
    case Expr::Kind::kBinary:
      if (!IsComparisonOp(e.bop)) return false;
      break;
    case Expr::Kind::kLike:
    case Expr::Kind::kBetween:
      break;
    case Expr::Kind::kInList:
      if (e.negated) break;  // NOT IN over NULL is NULL -> rejected
      break;
    default:
      return false;
  }
  if (ContainsSubquery(e)) return false;
  std::vector<bool> refs(static_cast<size_t>(num_refs), false);
  CollectReferencedRefs(e, &refs);
  return ref_id >= 0 && static_cast<size_t>(ref_id) < refs.size() &&
         refs[static_cast<size_t>(ref_id)];
}

void CollectLeafIds(const TableRef& ref, std::vector<int>* out) {
  if (ref.kind == TableRef::Kind::kJoin) {
    CollectLeafIds(*ref.left, out);
    CollectLeafIds(*ref.right, out);
  } else {
    out->push_back(ref.ref_id);
  }
}

void SimplifyOuterJoins(TableRef* ref, const std::vector<bool>& rejected) {
  if (ref->kind != TableRef::Kind::kJoin) return;
  if (ref->join_type == JoinType::kLeft) {
    std::vector<int> inner_leaves;
    CollectLeafIds(*ref->right, &inner_leaves);
    for (int id : inner_leaves) {
      if (id >= 0 && static_cast<size_t>(id) < rejected.size() &&
          rejected[static_cast<size_t>(id)]) {
        ref->join_type = JoinType::kInner;
        break;
      }
    }
  }
  SimplifyOuterJoins(ref->left.get(), rejected);
  SimplifyOuterJoins(ref->right.get(), rejected);
}

Status SimplifyBlockOuterJoins(QueryBlock* block, int num_refs) {
  if (block->where == nullptr) return Status::OK();
  std::vector<const Expr*> conjuncts;
  SplitConjuncts(block->where.get(), &conjuncts);
  std::vector<bool> rejected(static_cast<size_t>(num_refs), false);
  for (const Expr* c : conjuncts) {
    for (int id = 0; id < num_refs; ++id) {
      if (!rejected[static_cast<size_t>(id)] &&
          NullRejecting(*c, id, num_refs)) {
        rejected[static_cast<size_t>(id)] = true;
      }
    }
  }
  for (auto& t : block->from) SimplifyOuterJoins(t.get(), rejected);
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Driver
// ---------------------------------------------------------------------------

Status PrepareBlock(QueryBlock* block, const PrepareOptions& opts,
                    int num_refs) {
  // Bottom-up: nested blocks first (derived tables and expression
  // subqueries), so that conversions see already-prepared children.
  for (TableRef* leaf : block->Leaves()) {
    if (leaf->kind == TableRef::Kind::kDerived) {
      TAURUS_RETURN_IF_ERROR(PrepareBlock(leaf->derived.get(), opts, num_refs));
    }
  }
  std::function<Status(Expr*)> prep_subqueries = [&](Expr* e) -> Status {
    for (auto& c : e->children) TAURUS_RETURN_IF_ERROR(prep_subqueries(c.get()));
    if (e->subquery) {
      TAURUS_RETURN_IF_ERROR(PrepareBlock(e->subquery.get(), opts, num_refs));
    }
    return Status::OK();
  };
  TAURUS_RETURN_IF_ERROR(ForEachExprSlot(
      block, [&](std::unique_ptr<Expr>* slot) -> Status {
        return prep_subqueries(slot->get());
      }));

  TAURUS_RETURN_IF_ERROR(ForEachExprSlot(block, NormalizeNot));
  TAURUS_RETURN_IF_ERROR(ForEachExprSlot(block, CoerceTemporalComparisons));
  if (opts.fold_constants) {
    TAURUS_RETURN_IF_ERROR(ForEachExprSlot(block, FoldExpr));
  }
  if (opts.subquery_to_semijoin) {
    TAURUS_RETURN_IF_ERROR(ConvertSubqueries(block));
  }
  if (opts.simplify_outer_joins) {
    TAURUS_RETURN_IF_ERROR(SimplifyBlockOuterJoins(block, num_refs));
  }
  if (block->union_next) {
    TAURUS_RETURN_IF_ERROR(PrepareBlock(block->union_next.get(), opts,
                                        num_refs));
  }
  return Status::OK();
}

}  // namespace

Status PrepareStatement(BoundStatement* stmt, const PrepareOptions& opts) {
  TAURUS_RETURN_IF_ERROR(PrepareBlock(stmt->block.get(), opts,
                                      stmt->num_refs));
  // Re-collect leaves: subquery-to-semijoin moved leaves between blocks and
  // conjunct cloning re-created subquery leaf objects.
  RecollectLeaves(stmt);
  return Status::OK();
}

void RecollectLeaves(BoundStatement* stmt) {
  stmt->leaves.assign(static_cast<size_t>(stmt->num_refs), nullptr);
  std::vector<QueryBlock*> blocks{stmt->block.get()};
  while (!blocks.empty()) {
    QueryBlock* b = blocks.back();
    blocks.pop_back();
    for (TableRef* leaf : b->Leaves()) {
      if (leaf->ref_id >= 0) {
        stmt->leaves[static_cast<size_t>(leaf->ref_id)] = leaf;
      }
      leaf->owner = b;  // re-establish TABLE_LIST links on cloned leaves
      if (leaf->kind == TableRef::Kind::kDerived) {
        blocks.push_back(leaf->derived.get());
      }
    }
    if (b->union_next) blocks.push_back(b->union_next.get());
    // Subquery blocks cloned during conjunct surgery also need re-owning.
    std::function<void(const Expr&)> visit_expr = [&](const Expr& e) {
      if (e.subquery) blocks.push_back(e.subquery.get());
      for (const auto& c : e.children) visit_expr(*c);
    };
    for (const auto& item : b->select_items) visit_expr(*item.expr);
    if (b->where) visit_expr(*b->where);
    if (b->having) visit_expr(*b->having);
    for (const auto& g : b->group_by) visit_expr(*g);
    for (const auto& o : b->order_by) visit_expr(*o.expr);
    {
      std::vector<const TableRef*> st;
      for (const auto& t : b->from) st.push_back(t.get());
      while (!st.empty()) {
        const TableRef* r = st.back();
        st.pop_back();
        if (r->kind == TableRef::Kind::kJoin) {
          if (r->on) visit_expr(*r->on);
          st.push_back(r->left.get());
          st.push_back(r->right.get());
        }
      }
    }
  }
}

}  // namespace taurus
