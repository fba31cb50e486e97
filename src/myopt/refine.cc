#include "myopt/refine.h"

#include <algorithm>
#include <map>
#include <set>
#include <utility>

#include "common/fault_injector.h"
#include "exec/batch_executor.h"
#include "exec/exec_internal.h"
#include "exec/expr_eval.h"
#include "parser/ast_util.h"

namespace taurus {

namespace {

using RefSet = std::vector<uint8_t>;

bool Subset(const RefSet& a, const RefSet& b) {
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i] && !b[i]) return false;
  }
  return true;
}

bool Intersects(const RefSet& a, const RefSet& b) {
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i] && b[i]) return true;
  }
  return false;
}

bool Empty(const RefSet& a) {
  for (uint8_t v : a) {
    if (v) return false;
  }
  return true;
}

RefSet Union(const RefSet& a, const RefSet& b) {
  RefSet out = a;
  for (size_t i = 0; i < b.size(); ++i) out[i] |= b[i];
  return out;
}

/// Block-local reference set of an expression (refs restricted to
/// `block_leaves`).
RefSet LocalRefs(const Expr& e, const RefSet& block_leaves, int num_refs) {
  std::vector<bool> refs(static_cast<size_t>(num_refs), false);
  CollectReferencedRefs(e, &refs);
  RefSet out(static_cast<size_t>(num_refs), 0);
  for (int i = 0; i < num_refs; ++i) {
    if (refs[static_cast<size_t>(i)] && block_leaves[static_cast<size_t>(i)]) {
      out[static_cast<size_t>(i)] = 1;
    }
  }
  return out;
}

/// Collects every ref_id defined inside a block, recursing into derived
/// tables and expression subqueries (used for correlation detection).
void CollectOwnedRefs(const QueryBlock& block, RefSet* out);

void CollectOwnedRefsFromExpr(const Expr& e, RefSet* out) {
  if (e.subquery) CollectOwnedRefs(*e.subquery, out);
  for (const auto& c : e.children) CollectOwnedRefsFromExpr(*c, out);
}

void CollectOwnedRefs(const QueryBlock& block, RefSet* out) {
  for (const TableRef* leaf : block.Leaves()) {
    if (leaf->ref_id >= 0 &&
        static_cast<size_t>(leaf->ref_id) < out->size()) {
      (*out)[static_cast<size_t>(leaf->ref_id)] = 1;
    }
    if (leaf->kind == TableRef::Kind::kDerived) {
      CollectOwnedRefs(*leaf->derived, out);
    }
  }
  for (const auto& item : block.select_items) {
    CollectOwnedRefsFromExpr(*item.expr, out);
  }
  if (block.where) CollectOwnedRefsFromExpr(*block.where, out);
  if (block.having) CollectOwnedRefsFromExpr(*block.having, out);
  for (const auto& g : block.group_by) CollectOwnedRefsFromExpr(*g, out);
  for (const auto& o : block.order_by) CollectOwnedRefsFromExpr(*o.expr, out);
  std::vector<const TableRef*> stack;
  for (const auto& t : block.from) stack.push_back(t.get());
  while (!stack.empty()) {
    const TableRef* r = stack.back();
    stack.pop_back();
    if (r->kind == TableRef::Kind::kJoin) {
      if (r->on) CollectOwnedRefsFromExpr(*r->on, out);
      stack.push_back(r->left.get());
      stack.push_back(r->right.get());
    }
  }
  if (block.union_next) CollectOwnedRefs(*block.union_next, out);
}

/// True when the (sub)query block references any leaf it does not own —
/// i.e. it is correlated and must be re-evaluated per outer row.
// ---------------------------------------------------------------------------
// Morsel-driven parallel eligibility (see DESIGN.md section 8)
// ---------------------------------------------------------------------------

/// Collects every expression evaluated anywhere in `op`'s subtree and
/// whether the subtree contains a derived-table scan.
void CollectOpExprs(const PhysOp& op, bool* has_derived,
                    std::vector<const Expr*>* out) {
  for (const Expr* e : op.filters) out->push_back(e);
  if (op.range_lo != nullptr) out->push_back(op.range_lo);
  if (op.range_hi != nullptr) out->push_back(op.range_hi);
  for (const Expr* e : op.lookup_keys) out->push_back(e);
  for (const Expr* e : op.conds) out->push_back(e);
  for (const auto& [l, r] : op.hash_keys) {
    out->push_back(l);
    out->push_back(r);
  }
  if (op.kind == PhysOp::Kind::kDerivedScan) *has_derived = true;
  if (op.child != nullptr) CollectOpExprs(*op.child, has_derived, out);
  if (op.right != nullptr) CollectOpExprs(*op.right, has_derived, out);
}

/// Decides whether the block's driving pipeline is safe for the
/// morsel-driven parallel executor and records the verdict (or the reason
/// it must stay serial) on the plan. The walk mirrors the executor's
/// driving-path descent: Filter -> child, hash join -> probe child,
/// NL join -> left; the driver must be a full TableScan (index-range
/// drivers deliver rows in index order, which splitting would destroy).
void AnalyzeParallelSafety(BlockPlan* plan, int num_refs) {
  plan->parallel_eligible = false;
  if (plan->join_root == nullptr) {
    plan->serial_reason = "no driving table";
    return;
  }

  // Expressions evaluated on worker threads (driving path + NL inner
  // sides + per-row block-level work) vs. anywhere (adds hash-join build
  // sides, which the main thread materializes once before fan-out).
  std::vector<const Expr*> worker_exprs;
  std::vector<const Expr*> all_exprs;
  bool worker_derived = false;
  bool build_derived = false;

  const PhysOp* cur = plan->join_root.get();
  const PhysOp* driver = nullptr;
  while (cur != nullptr && driver == nullptr) {
    switch (cur->kind) {
      case PhysOp::Kind::kTableScan:
        for (const Expr* e : cur->filters) worker_exprs.push_back(e);
        driver = cur;
        break;
      case PhysOp::Kind::kFilter:
        for (const Expr* e : cur->conds) worker_exprs.push_back(e);
        cur = cur->child.get();
        break;
      case PhysOp::Kind::kHashJoin: {
        if (cur->join_type == JoinType::kSemi ||
            cur->join_type == JoinType::kAntiSemi) {
          plan->serial_reason = "semi/anti-join probe pipeline";
          return;
        }
        for (const Expr* e : cur->conds) worker_exprs.push_back(e);
        for (const auto& [l, r] : cur->hash_keys) {
          worker_exprs.push_back(l);
          worker_exprs.push_back(r);
        }
        bool build_is_left = (cur->join_type == JoinType::kInner ||
                              cur->join_type == JoinType::kCross);
        const PhysOp* build =
            build_is_left ? cur->child.get() : cur->right.get();
        CollectOpExprs(*build, &build_derived, &all_exprs);
        cur = build_is_left ? cur->right.get() : cur->child.get();
        break;
      }
      case PhysOp::Kind::kNLJoin: {
        if (cur->join_type == JoinType::kSemi ||
            cur->join_type == JoinType::kAntiSemi) {
          plan->serial_reason = "semi/anti-join probe pipeline";
          return;
        }
        for (const Expr* e : cur->conds) worker_exprs.push_back(e);
        // The inner side re-opens per driver row on the worker.
        CollectOpExprs(*cur->right, &worker_derived, &worker_exprs);
        cur = cur->child.get();
        break;
      }
      case PhysOp::Kind::kIndexRange:
        plan->serial_reason = "ordered index-range driver";
        return;
      case PhysOp::Kind::kIndexLookup:
        plan->serial_reason = "index-lookup driver";
        return;
      case PhysOp::Kind::kDerivedScan:
        plan->serial_reason = "derived-table driver";
        return;
    }
  }
  if (driver == nullptr) {
    plan->serial_reason = "no table-scan driver";
    return;
  }
  if (worker_derived) {
    plan->serial_reason = "derived table on a worker-side inner loop";
    return;
  }

  // Block-level expressions: group keys and aggregate arguments run per
  // pipeline row on workers; sort keys and projections may too, depending
  // on the pipeline shape. Treat them all as worker-evaluated.
  for (const Expr* g : plan->group_exprs) worker_exprs.push_back(g);
  for (const Expr* a : plan->agg_exprs) worker_exprs.push_back(a);
  for (const auto& [e, asc] : plan->order_keys) worker_exprs.push_back(e);
  for (const Expr* p : plan->projections) worker_exprs.push_back(p);
  if (plan->having != nullptr) worker_exprs.push_back(plan->having);

  // Expression subqueries re-enter the executor and mutate the context's
  // subplan cache — only the main thread may do that.
  for (const Expr* e : worker_exprs) {
    if (ContainsSubquery(*e)) {
      plan->serial_reason = "expression subquery in pipeline";
      return;
    }
  }

  // Correlation: any reference to a leaf outside this block's join tree
  // means the pipeline's results depend on outer bindings; it runs (and
  // possibly re-runs per outer row) serially.
  std::vector<bool> owned(static_cast<size_t>(num_refs), false);
  std::vector<const PhysOp*> leaves;
  plan->join_root->CollectLeaves(&leaves);
  for (const PhysOp* leaf : leaves) {
    if (leaf->leaf != nullptr && leaf->leaf->ref_id >= 0 &&
        leaf->leaf->ref_id < num_refs) {
      owned[static_cast<size_t>(leaf->leaf->ref_id)] = true;
    }
  }
  std::vector<bool> used(static_cast<size_t>(num_refs), false);
  for (const Expr* e : worker_exprs) CollectReferencedRefs(*e, &used);
  for (const Expr* e : all_exprs) CollectReferencedRefs(*e, &used);
  for (int r = 0; r < num_refs; ++r) {
    if (used[static_cast<size_t>(r)] && !owned[static_cast<size_t>(r)]) {
      plan->serial_reason = "correlated pipeline";
      return;
    }
  }

  // A plain streaming pipeline with a row limit short-circuits the scan;
  // splitting it would trade the early exit for wasted whole-table work.
  if (plan->limit >= 0 && plan->agg_mode == AggMode::kNone &&
      (plan->order_keys.empty() || plan->order_satisfied) &&
      !plan->distinct) {
    plan->serial_reason = "row-limit early exit";
    return;
  }

  plan->parallel_eligible = true;
  plan->serial_reason.clear();
}

// ---------------------------------------------------------------------------
// Vectorized batch-execution eligibility (see DESIGN.md section 13)
// ---------------------------------------------------------------------------

/// Marks every operator in the subtree with whether it has a batch-at-a-time
/// implementation, recording why not otherwise. Purely per-operator — block
/// chain eligibility is decided separately in AnalyzeBatchSafety.
void MarkBatchNative(PhysOp* op) {
  if (op == nullptr) return;
  if (op->child != nullptr) MarkBatchNative(op->child.get());
  if (op->right != nullptr) MarkBatchNative(op->right.get());
  op->batch_native = false;
  op->batch_serial_reason.clear();
  switch (op->kind) {
    case PhysOp::Kind::kTableScan:
    case PhysOp::Kind::kFilter:
      op->batch_native = true;
      break;
    case PhysOp::Kind::kHashJoin:
      if (HashJoinBatchNative(*op)) {
        op->batch_native = true;
      } else if (op->join_type == JoinType::kSemi ||
                 op->join_type == JoinType::kAntiSemi) {
        op->batch_serial_reason = "semi/anti hash probe";
      } else {
        op->batch_serial_reason = "left hash join with residual condition";
      }
      break;
    case PhysOp::Kind::kNLJoin:
      op->batch_serial_reason = "nested-loop join";
      break;
    case PhysOp::Kind::kIndexRange:
      op->batch_serial_reason = "index-range scan (ordered)";
      break;
    case PhysOp::Kind::kIndexLookup:
      op->batch_serial_reason = "index-lookup scan";
      break;
    case PhysOp::Kind::kDerivedScan:
      op->batch_serial_reason = "derived-table scan";
      break;
  }
}

/// Decides whether the block's driving chain (join_root down the probe path
/// to the driving TableScan) is batch-native end to end. Mirrors the
/// executor's BuildBatchChain strict-mode descent; the executor may still
/// run partial segments behind Frame adapters when this says no.
void AnalyzeBatchSafety(BlockPlan* plan) {
  plan->batch_eligible = false;
  plan->batch_serial_reason.clear();
  if (plan->join_root == nullptr) {
    plan->batch_serial_reason = "no driving table";
    return;
  }
  MarkBatchNative(plan->join_root.get());
  for (auto& arm : plan->union_arms) AnalyzeBatchSafety(arm.get());

  // A plain streaming pipeline with a row limit stops mid-scan; batching
  // would overcharge the scan budget past the early exit, so the executor
  // keeps it row-at-a-time.
  if (plan->limit >= 0 && plan->agg_mode == AggMode::kNone &&
      (plan->order_keys.empty() || plan->order_satisfied) &&
      !plan->distinct) {
    plan->batch_serial_reason = "row-limit early exit";
    return;
  }

  const PhysOp* cur = plan->join_root.get();
  while (cur != nullptr) {
    if (!cur->batch_native) {
      plan->batch_serial_reason = cur->batch_serial_reason.empty()
                                      ? "row-at-a-time operator in chain"
                                      : cur->batch_serial_reason;
      return;
    }
    if (cur->kind == PhysOp::Kind::kTableScan) {
      plan->batch_eligible = true;
      return;
    }
    cur = DrivingChild(*cur);
  }
  plan->batch_serial_reason = "no driving table scan";
}

bool BlockIsCorrelated(const QueryBlock& block, int num_refs) {
  RefSet owned(static_cast<size_t>(num_refs), 0);
  CollectOwnedRefs(block, &owned);
  std::vector<bool> used(static_cast<size_t>(num_refs), false);
  for (const auto& item : block.select_items) {
    CollectReferencedRefs(*item.expr, &used);
  }
  if (block.where) CollectReferencedRefs(*block.where, &used);
  if (block.having) CollectReferencedRefs(*block.having, &used);
  for (const auto& g : block.group_by) CollectReferencedRefs(*g, &used);
  for (const auto& o : block.order_by) CollectReferencedRefs(*o.expr, &used);
  std::vector<const TableRef*> stack;
  for (const auto& t : block.from) stack.push_back(t.get());
  while (!stack.empty()) {
    const TableRef* r = stack.back();
    stack.pop_back();
    if (r->kind == TableRef::Kind::kJoin) {
      if (r->on) CollectReferencedRefs(*r->on, &used);
      stack.push_back(r->left.get());
      stack.push_back(r->right.get());
    }
  }
  // Also references made inside derived bodies and subqueries count.
  // CollectReferencedRefs already descends into subqueries; derived bodies
  // are reached through nothing here, so walk them explicitly.
  std::vector<const QueryBlock*> blocks;
  for (const TableRef* leaf : block.Leaves()) {
    if (leaf->kind == TableRef::Kind::kDerived) {
      blocks.push_back(leaf->derived.get());
    }
  }
  while (!blocks.empty()) {
    const QueryBlock* b = blocks.back();
    blocks.pop_back();
    for (const auto& item : b->select_items) {
      CollectReferencedRefs(*item.expr, &used);
    }
    if (b->where) CollectReferencedRefs(*b->where, &used);
    if (b->having) CollectReferencedRefs(*b->having, &used);
    for (const auto& g : b->group_by) CollectReferencedRefs(*g, &used);
    for (const auto& o : b->order_by) CollectReferencedRefs(*o.expr, &used);
    std::vector<const TableRef*> st;
    for (const auto& t : b->from) st.push_back(t.get());
    while (!st.empty()) {
      const TableRef* r = st.back();
      st.pop_back();
      if (r->kind == TableRef::Kind::kJoin) {
        if (r->on) CollectReferencedRefs(*r->on, &used);
        st.push_back(r->left.get());
        st.push_back(r->right.get());
      } else if (r->kind == TableRef::Kind::kDerived) {
        blocks.push_back(r->derived.get());
      }
    }
    if (b->union_next) blocks.push_back(b->union_next.get());
  }
  for (int i = 0; i < num_refs; ++i) {
    if (used[static_cast<size_t>(i)] && !owned[static_cast<size_t>(i)]) {
      return true;
    }
  }
  return false;
}

/// One pooled predicate conjunct with its placement metadata.
struct PooledConjunct {
  Expr* expr = nullptr;
  RefSet local_refs;          ///< block-local leaves referenced
  bool is_on = false;         ///< ON conjunct of an outer/semi/anti join
  JoinType on_type = JoinType::kInner;
  std::set<int> on_right_set; ///< right-side leaf set identifying the join
  bool consumed = false;
};

/// Collects aggregates appearing in an expression (skipping subqueries),
/// deduplicated structurally.
void CollectAggs(const Expr* e, std::vector<const Expr*>* out) {
  if (e->kind == Expr::Kind::kAgg) {
    for (const Expr* a : *out) {
      if (ExprEquals(*a, *e)) return;
    }
    out->push_back(e);
    return;  // aggregates do not nest
  }
  if (e->subquery) return;
  for (const auto& c : e->children) CollectAggs(c.get(), out);
}

void CollectSubqueryExprsMut(Expr* e, std::vector<Expr*>* out) {
  if (e->subquery) out->push_back(e);
  for (auto& c : e->children) CollectSubqueryExprsMut(c.get(), out);
}

class Refiner {
 public:
  Refiner(CompiledQuery* out, const Catalog& catalog, int num_refs)
      : out_(out), catalog_(catalog), num_refs_(num_refs) {}

  Result<std::unique_ptr<BlockPlan>> RefineBlock(const BlockSkeleton& skel);

 private:
  struct Attach {
    std::vector<Expr*> at_node;
    std::vector<Expr*> above_node;
  };

  Result<std::unique_ptr<PhysOp>> BuildPhys(
      const BlockSkeleton& skel, const SkeletonNode* node, const RefSet& avail,
      std::map<const SkeletonNode*, Attach>* attach);

  Status CompileSubqueries(const BlockSkeleton& skel, QueryBlock* block,
                           BlockPlan* plan);

  RefSet LeafSetOf(const SkeletonNode* node) {
    RefSet out(static_cast<size_t>(num_refs_), 0);
    std::vector<const SkeletonNode*> leaves;
    node->BestPositionArray(&leaves);
    for (const SkeletonNode* l : leaves) {
      out[static_cast<size_t>(l->leaf->ref_id)] = 1;
    }
    return out;
  }

  CompiledQuery* out_;
  const Catalog& catalog_;
  int num_refs_;
};

Result<std::unique_ptr<PhysOp>> Refiner::BuildPhys(
    const BlockSkeleton& skel, const SkeletonNode* node, const RefSet& avail,
    std::map<const SkeletonNode*, Attach>* attach) {
  auto op = std::make_unique<PhysOp>();
  op->est_rows = node->est_rows;
  op->est_cost = node->est_cost;
  op->card_source = node->card_source;
  Attach& att = (*attach)[node];

  if (!node->is_join) {
    TableRef* leaf = node->leaf;
    op->leaf = leaf;
    if (leaf->kind == TableRef::Kind::kDerived) {
      op->kind = PhysOp::Kind::kDerivedScan;
      auto it = skel.derived.find(leaf);
      if (it == skel.derived.end()) {
        return Status::Internal("missing derived skeleton for " + leaf->alias);
      }
      TAURUS_ASSIGN_OR_RETURN(auto derived_plan, RefineBlock(*it->second));
      op->derived_plan = derived_plan.get();
      op->invalidate_on_rebind =
          BlockIsCorrelated(*leaf->derived, num_refs_);
      out_->owned_blocks.push_back(std::move(derived_plan));
      for (Expr* c : att.at_node) {
        if (!c) continue;
        op->filters.push_back(c);
      }
    } else {
      AccessMethod access = node->access;
      op->index_id = node->index_id;
      if (access == AccessMethod::kIndexLookup) {
        // Bind index key columns, in order, to equalities whose other side
        // is available (already-placed tables or outer blocks).
        const IndexDef& idx =
            leaf->table->indexes[static_cast<size_t>(node->index_id)];
        for (int key_col : idx.column_idx) {
          Expr* found = nullptr;
          for (Expr*& c : att.at_node) {
            if (c == nullptr) continue;
            if (c->kind != Expr::Kind::kBinary || c->bop != BinaryOp::kEq) {
              continue;
            }
            for (int side = 0; side < 2; ++side) {
              Expr* col = c->children[static_cast<size_t>(side)].get();
              Expr* other = c->children[static_cast<size_t>(1 - side)].get();
              if (col->kind != Expr::Kind::kColumnRef ||
                  col->ref_id != leaf->ref_id || col->column_idx != key_col) {
                continue;
              }
              RefSet other_refs =
                  LocalRefs(*other, RefSet(static_cast<size_t>(num_refs_), 1),
                            num_refs_);
              other_refs[static_cast<size_t>(leaf->ref_id)] = 0;
              // All block-local refs of the other side must be available,
              // and it must not reference this leaf.
              std::vector<bool> oref(static_cast<size_t>(num_refs_), false);
              CollectReferencedRefs(*other, &oref);
              bool ok = !oref[static_cast<size_t>(leaf->ref_id)];
              for (int r = 0; ok && r < num_refs_; ++r) {
                if (oref[static_cast<size_t>(r)] &&
                    !avail[static_cast<size_t>(r)]) {
                  ok = false;
                }
              }
              if (!ok) continue;
              found = other;
              c = nullptr;  // consumed
              break;
            }
            if (found) break;
          }
          if (!found) break;
          op->lookup_keys.push_back(found);
        }
        if (op->lookup_keys.empty()) {
          access = AccessMethod::kTableScan;  // downgrade
          op->index_id = -1;
        }
      }
      if (access == AccessMethod::kIndexRange) {
        const IndexDef& idx =
            leaf->table->indexes[static_cast<size_t>(node->index_id)];
        int first_col = idx.column_idx.empty() ? -1 : idx.column_idx[0];
        // `first_col = const` binds a point range, but only when no other
        // conjunct bounds the range; otherwise it stays a filter.
        Expr** point = nullptr;
        Expr* point_value = nullptr;
        for (Expr*& c : att.at_node) {
          if (c == nullptr || first_col < 0) continue;
          if (c->kind == Expr::Kind::kBetween && !c->negated &&
              c->children[0]->kind == Expr::Kind::kColumnRef &&
              c->children[0]->ref_id == leaf->ref_id &&
              c->children[0]->column_idx == first_col &&
              IsConstExpr(*c->children[1]) && IsConstExpr(*c->children[2]) &&
              op->range_lo == nullptr && op->range_hi == nullptr) {
            op->range_lo = c->children[1].get();
            op->range_hi = c->children[2].get();
            c = nullptr;
            continue;
          }
          if (c->kind != Expr::Kind::kBinary || !IsComparisonOp(c->bop) ||
              c->bop == BinaryOp::kNe) {
            continue;
          }
          Expr* col = c->children[0].get();
          Expr* other = c->children[1].get();
          BinaryOp cmp = c->bop;
          if (!(col->kind == Expr::Kind::kColumnRef &&
                col->ref_id == leaf->ref_id &&
                col->column_idx == first_col && IsConstExpr(*other))) {
            std::swap(col, other);
            cmp = CommuteComparison(cmp);
            if (!(col->kind == Expr::Kind::kColumnRef &&
                  col->ref_id == leaf->ref_id &&
                  col->column_idx == first_col && IsConstExpr(*other))) {
              continue;
            }
          }
          switch (cmp) {
            case BinaryOp::kEq:
              if (point == nullptr) {
                point = &c;
                point_value = other;
              }
              break;
            case BinaryOp::kLt:
              if (op->range_hi == nullptr) {
                op->range_hi = other;
                op->hi_inclusive = false;
                c = nullptr;
              }
              break;
            case BinaryOp::kLe:
              if (op->range_hi == nullptr) {
                op->range_hi = other;
                op->hi_inclusive = true;
                c = nullptr;
              }
              break;
            case BinaryOp::kGt:
              if (op->range_lo == nullptr) {
                op->range_lo = other;
                op->lo_inclusive = false;
                c = nullptr;
              }
              break;
            case BinaryOp::kGe:
              if (op->range_lo == nullptr) {
                op->range_lo = other;
                op->lo_inclusive = true;
                c = nullptr;
              }
              break;
            default:
              break;
          }
        }
        if (op->range_lo == nullptr && op->range_hi == nullptr &&
            point != nullptr) {
          op->range_lo = op->range_hi = point_value;
          op->lo_inclusive = op->hi_inclusive = true;
          *point = nullptr;
        }
        if (op->range_lo == nullptr && op->range_hi == nullptr) {
          access = AccessMethod::kTableScan;
          op->index_id = -1;
        }
      }
      op->kind = access == AccessMethod::kTableScan
                     ? PhysOp::Kind::kTableScan
                     : access == AccessMethod::kIndexRange
                           ? PhysOp::Kind::kIndexRange
                           : PhysOp::Kind::kIndexLookup;
      for (Expr* c : att.at_node) {
        if (c != nullptr) op->filters.push_back(c);
      }
    }
  } else {
    // Join node.
    RefSet left_set = LeafSetOf(node->left.get());
    RefSet right_set = LeafSetOf(node->right.get());
    RefSet right_avail = Union(avail, left_set);
    TAURUS_ASSIGN_OR_RETURN(auto left_op,
                            BuildPhys(skel, node->left.get(), avail, attach));

    // For a right-leaf index lookup, join-level equalities binding its
    // index keys are consumed by the lookup: stage them onto the leaf.
    if (!node->right->is_join &&
        node->right->access == AccessMethod::kIndexLookup &&
        node->right->leaf->kind == TableRef::Kind::kBase) {
      Attach& ratt = (*attach)[node->right.get()];
      for (Expr*& c : att.at_node) {
        if (c == nullptr) continue;
        if (c->kind == Expr::Kind::kBinary && c->bop == BinaryOp::kEq) {
          // Move every equality touching the lookup leaf down to the leaf;
          // the leaf binder consumes what fits and keeps the rest as
          // filters (equivalent placement).
          std::vector<bool> refs(static_cast<size_t>(num_refs_), false);
          CollectReferencedRefs(*c, &refs);
          if (refs[static_cast<size_t>(node->right->leaf->ref_id)]) {
            ratt.at_node.push_back(c);
            c = nullptr;
          }
        }
      }
    }

    TAURUS_ASSIGN_OR_RETURN(
        auto right_op, BuildPhys(skel, node->right.get(), right_avail, attach));

    op->join_type = node->join_type == JoinType::kCross ? JoinType::kInner
                                                        : node->join_type;
    op->child = std::move(left_op);
    op->right = std::move(right_op);

    std::vector<Expr*> conds;
    for (Expr* c : att.at_node) {
      if (c != nullptr) conds.push_back(c);
    }

    if (node->method == JoinMethod::kHash) {
      for (Expr*& c : conds) {
        if (c->kind != Expr::Kind::kBinary || c->bop != BinaryOp::kEq) {
          continue;
        }
        RefSet l = LocalRefs(*c->children[0],
                             Union(left_set, right_set), num_refs_);
        RefSet r = LocalRefs(*c->children[1],
                             Union(left_set, right_set), num_refs_);
        if (Empty(l) && Empty(r)) continue;
        if (Subset(l, left_set) && Subset(r, right_set)) {
          op->hash_keys.emplace_back(c->children[0].get(),
                                     c->children[1].get());
          c = nullptr;
        } else if (Subset(r, left_set) && Subset(l, right_set)) {
          op->hash_keys.emplace_back(c->children[1].get(),
                                     c->children[0].get());
          c = nullptr;
        }
      }
      op->kind = op->hash_keys.empty() ? PhysOp::Kind::kNLJoin
                                       : PhysOp::Kind::kHashJoin;
    } else {
      op->kind = PhysOp::Kind::kNLJoin;
    }
    for (Expr* c : conds) {
      if (c != nullptr) op->conds.push_back(c);
    }
  }

  if (!att.above_node.empty()) {
    auto filter = std::make_unique<PhysOp>();
    filter->kind = PhysOp::Kind::kFilter;
    filter->est_rows = op->est_rows;
    filter->est_cost = op->est_cost;
    filter->card_source = op->card_source;
    filter->conds.assign(att.above_node.begin(), att.above_node.end());
    filter->child = std::move(op);
    op = std::move(filter);
  }
  return op;
}

Status Refiner::CompileSubqueries(const BlockSkeleton& skel,
                                  QueryBlock* block, BlockPlan* plan) {
  (void)plan;
  std::vector<Expr*> sub_exprs;
  for (auto& item : block->select_items) {
    CollectSubqueryExprsMut(item.expr.get(), &sub_exprs);
  }
  if (block->where) CollectSubqueryExprsMut(block->where.get(), &sub_exprs);
  for (auto& g : block->group_by) CollectSubqueryExprsMut(g.get(), &sub_exprs);
  if (block->having) CollectSubqueryExprsMut(block->having.get(), &sub_exprs);
  for (auto& o : block->order_by) {
    CollectSubqueryExprsMut(o.expr.get(), &sub_exprs);
  }
  std::vector<TableRef*> stack;
  for (auto& t : block->from) stack.push_back(t.get());
  while (!stack.empty()) {
    TableRef* r = stack.back();
    stack.pop_back();
    if (r->kind == TableRef::Kind::kJoin) {
      if (r->on) CollectSubqueryExprsMut(r->on.get(), &sub_exprs);
      stack.push_back(r->left.get());
      stack.push_back(r->right.get());
    }
  }
  for (Expr* e : sub_exprs) {
    auto it = skel.subqueries.find(e);
    if (it == skel.subqueries.end()) {
      return Status::Internal("subquery was not optimized");
    }
    TAURUS_ASSIGN_OR_RETURN(auto sub_plan, RefineBlock(*it->second));
    if (e->kind == Expr::Kind::kExists &&
        sub_plan->agg_mode == AggMode::kNone && !sub_plan->distinct &&
        sub_plan->union_arms.empty() && sub_plan->limit < 0) {
      sub_plan->limit = 1;  // EXISTS needs at most one row
    }
    auto sub = std::make_unique<Subplan>();
    sub->correlated = BlockIsCorrelated(*e->subquery, num_refs_);
    sub->plan = std::move(sub_plan);
    e->subplan_id = static_cast<int>(out_->subplans.size());
    out_->subplans.push_back(std::move(sub));
  }
  return Status::OK();
}

Result<std::unique_ptr<BlockPlan>> Refiner::RefineBlock(
    const BlockSkeleton& skel) {
  QueryBlock* block = skel.block;
  auto plan = std::make_unique<BlockPlan>();
  plan->block = block;
  plan->est_rows = skel.out_rows;
  plan->est_cost = skel.cost;

  TAURUS_RETURN_IF_ERROR(CompileSubqueries(skel, block, plan.get()));

  RefSet block_leaves(static_cast<size_t>(num_refs_), 0);
  for (const TableRef* leaf : block->Leaves()) {
    block_leaves[static_cast<size_t>(leaf->ref_id)] = 1;
  }

  if (skel.root != nullptr) {
    // ---- Gather the conjunct pool. ----
    std::vector<PooledConjunct> pool;
    auto add_where = [&](Expr* e) {
      std::vector<Expr*> conjs;
      SplitConjunctsMutable(e, &conjs);
      for (Expr* c : conjs) {
        PooledConjunct pc;
        pc.expr = c;
        pc.local_refs = LocalRefs(*c, block_leaves, num_refs_);
        pool.push_back(std::move(pc));
      }
    };
    if (block->where) add_where(block->where.get());
    {
      std::vector<TableRef*> stack;
      for (auto& t : block->from) stack.push_back(t.get());
      while (!stack.empty()) {
        TableRef* r = stack.back();
        stack.pop_back();
        if (r->kind != TableRef::Kind::kJoin) continue;
        if (r->on != nullptr) {
          if (r->join_type == JoinType::kInner ||
              r->join_type == JoinType::kCross) {
            add_where(r->on.get());
          } else {
            std::set<int> right_set;
            std::vector<TableRef*> leaves;
            std::vector<TableRef*> st2{r->right.get()};
            while (!st2.empty()) {
              TableRef* x = st2.back();
              st2.pop_back();
              if (x->kind == TableRef::Kind::kJoin) {
                st2.push_back(x->left.get());
                st2.push_back(x->right.get());
              } else {
                right_set.insert(x->ref_id);
              }
            }
            std::vector<Expr*> conjs;
            SplitConjunctsMutable(r->on.get(), &conjs);
            for (Expr* c : conjs) {
              PooledConjunct pc;
              pc.expr = c;
              pc.local_refs = LocalRefs(*c, block_leaves, num_refs_);
              pc.is_on = true;
              pc.on_type = r->join_type;
              pc.on_right_set = right_set;
              pool.push_back(std::move(pc));
            }
          }
        }
        stack.push_back(r->left.get());
        stack.push_back(r->right.get());
      }
    }

    // ---- Index the skeleton tree. ----
    struct NodeInfo {
      const SkeletonNode* node;
      const SkeletonNode* parent;
      RefSet leaves;
      std::set<int> leaf_set;
    };
    std::vector<NodeInfo> nodes;
    {
      std::vector<std::pair<const SkeletonNode*, const SkeletonNode*>> stack{
          {skel.root.get(), nullptr}};
      while (!stack.empty()) {
        auto [n, parent] = stack.back();
        stack.pop_back();
        NodeInfo info;
        info.node = n;
        info.parent = parent;
        info.leaves = LeafSetOf(n);
        for (int i = 0; i < num_refs_; ++i) {
          if (info.leaves[static_cast<size_t>(i)]) info.leaf_set.insert(i);
        }
        nodes.push_back(std::move(info));
        if (n->is_join) {
          stack.push_back({n->left.get(), n});
          stack.push_back({n->right.get(), n});
        }
      }
    }
    auto info_of = [&](const SkeletonNode* n) -> const NodeInfo* {
      for (const NodeInfo& i : nodes) {
        if (i.node == n) return &i;
      }
      return nullptr;
    };
    auto is_ancestor = [&](const SkeletonNode* a,
                           const SkeletonNode* b) {  // a ancestor-or-self of b
      const SkeletonNode* cur = b;
      while (cur != nullptr) {
        if (cur == a) return true;
        const NodeInfo* i = info_of(cur);
        cur = i == nullptr ? nullptr : i->parent;
      }
      return false;
    };

    // Lowest node covering a ref set.
    auto lowest_covering = [&](const RefSet& refs) -> const SkeletonNode* {
      const SkeletonNode* cur = skel.root.get();
      if (Empty(refs)) {
        // Constant / purely-correlated conjunct: evaluate at the first leaf.
        while (cur->is_join) cur = cur->left.get();
        return cur;
      }
      while (cur->is_join) {
        RefSet lset = LeafSetOf(cur->left.get());
        RefSet rset = LeafSetOf(cur->right.get());
        if (Subset(refs, lset)) {
          cur = cur->left.get();
        } else if (Subset(refs, rset)) {
          cur = cur->right.get();
        } else {
          break;
        }
      }
      return cur;
    };

    // ---- Assign conjuncts to skeleton nodes. ----
    std::map<const SkeletonNode*, Attach> attach;
    for (PooledConjunct& pc : pool) {
      if (pc.is_on) {
        // Locate the matching dependent join node by type + right leaf set.
        const SkeletonNode* join = nullptr;
        for (const NodeInfo& i : nodes) {
          if (!i.node->is_join) continue;
          if (i.node->join_type != pc.on_type) continue;
          const NodeInfo* r = info_of(i.node->right.get());
          if (r != nullptr && r->leaf_set == pc.on_right_set) {
            join = i.node;
            break;
          }
        }
        if (join == nullptr) {
          return Status::Internal("no skeleton join for ON condition: " +
                                  pc.expr->ToString());
        }
        // Only-right ON conjuncts may push into the right subtree.
        RefSet rset = LeafSetOf(join->right.get());
        if (!Empty(pc.local_refs) && Subset(pc.local_refs, rset)) {
          const SkeletonNode* cur = join->right.get();
          while (cur->is_join) {
            RefSet l = LeafSetOf(cur->left.get());
            RefSet r = LeafSetOf(cur->right.get());
            if (Subset(pc.local_refs, l)) {
              cur = cur->left.get();
            } else if (Subset(pc.local_refs, r)) {
              cur = cur->right.get();
            } else {
              break;
            }
          }
          attach[cur].at_node.push_back(pc.expr);
        } else {
          attach[join].at_node.push_back(pc.expr);
        }
        continue;
      }
      // WHERE-tagged conjunct: lowest covering node, hoisted above any
      // LEFT join whose NULL-extended (inner) side it references — filtering
      // such predicates below the join would change outer-join semantics.
      const SkeletonNode* target = lowest_covering(pc.local_refs);
      bool above = target->is_join && target->join_type != JoinType::kInner;
      bool changed = true;
      while (changed) {
        changed = false;
        for (const NodeInfo& i : nodes) {
          if (!i.node->is_join || i.node->join_type != JoinType::kLeft) {
            continue;
          }
          RefSet rset = LeafSetOf(i.node->right.get());
          if (!Intersects(pc.local_refs, rset)) continue;
          // The conjunct must evaluate at or above this left join.
          if (target != i.node && !is_ancestor(target, i.node)) {
            target = i.node;
            above = true;
            changed = true;
          } else if (target == i.node) {
            above = true;
          }
        }
      }
      if (above) {
        attach[target].above_node.push_back(pc.expr);
      } else {
        attach[target].at_node.push_back(pc.expr);
      }
    }

    RefSet avail(static_cast<size_t>(num_refs_), 1);
    for (int i = 0; i < num_refs_; ++i) {
      if (block_leaves[static_cast<size_t>(i)]) {
        avail[static_cast<size_t>(i)] = 0;  // own leaves start unavailable
      }
    }
    TAURUS_ASSIGN_OR_RETURN(plan->join_root,
                            BuildPhys(skel, skel.root.get(), avail, &attach));
  } else if (block->where != nullptr) {
    return Status::NotSupported("WHERE without FROM is not supported");
  }

  // ---- Aggregation. ----
  for (auto& item : block->select_items) {
    CollectAggs(item.expr.get(), &plan->agg_exprs);
  }
  if (block->having) CollectAggs(block->having.get(), &plan->agg_exprs);
  for (auto& o : block->order_by) CollectAggs(o.expr.get(), &plan->agg_exprs);
  bool has_agg = !plan->agg_exprs.empty() || !block->group_by.empty();
  if (has_agg) {
    plan->agg_mode = skel.stream_agg ? AggMode::kStream : AggMode::kHash;
    for (auto& g : block->group_by) plan->group_exprs.push_back(g.get());
  }
  plan->having = block->having.get();

  for (auto& o : block->order_by) {
    plan->order_keys.emplace_back(o.expr.get(), o.ascending);
  }
  // Sort elision: a single ascending ORDER BY column already delivered in
  // order by an index range scan driving a nested-loop-only left spine.
  if (plan->agg_mode == AggMode::kNone && plan->order_keys.size() == 1 &&
      plan->order_keys[0].second &&
      plan->order_keys[0].first->kind == Expr::Kind::kColumnRef &&
      plan->join_root != nullptr) {
    const PhysOp* node = plan->join_root.get();
    bool spine_preserves_order = true;
    while (node->kind == PhysOp::Kind::kNLJoin ||
           node->kind == PhysOp::Kind::kFilter) {
      if (node->kind == PhysOp::Kind::kNLJoin &&
          node->join_type == JoinType::kAntiSemi) {
        // anti joins still preserve outer order; nothing to do.
      }
      node = node->child.get();
    }
    if (node->kind != PhysOp::Kind::kIndexRange) {
      spine_preserves_order = false;
    }
    if (spine_preserves_order && node->leaf != nullptr &&
        node->leaf->kind == TableRef::Kind::kBase && node->index_id >= 0) {
      const Expr& key = *plan->order_keys[0].first;
      const IndexDef& idx =
          node->leaf->table->indexes[static_cast<size_t>(node->index_id)];
      if (!idx.column_idx.empty() && key.ref_id == node->leaf->ref_id &&
          key.column_idx == idx.column_idx[0]) {
        plan->order_satisfied = true;
      }
    }
  }
  plan->limit = block->limit;
  plan->offset = block->offset;
  plan->distinct = block->distinct;
  for (auto& item : block->select_items) {
    plan->projections.push_back(item.expr.get());
  }
  plan->column_names = OutputColumnNames(*block);

  // ---- UNION arms (flattened). ----
  const BlockSkeleton* cur = &skel;
  while (!cur->union_arms.empty()) {
    const BlockSkeleton* arm = cur->union_arms[0].get();
    TAURUS_ASSIGN_OR_RETURN(auto arm_plan, RefineBlock(*arm));
    plan->union_arms.push_back(std::move(arm_plan));
    cur = arm;
  }
  if (!plan->union_arms.empty()) {
    plan->union_all = block->union_all;
    for (auto& [expr, asc] : plan->order_keys) {
      int pos = -1;
      for (size_t i = 0; i < block->select_items.size(); ++i) {
        if (ExprEquals(*block->select_items[i].expr, *expr)) {
          pos = static_cast<int>(i);
          break;
        }
      }
      if (pos < 0) {
        return Status::NotSupported(
            "UNION ORDER BY must match a select item");
      }
      plan->union_order_positions.emplace_back(pos, asc);
    }
  }
  AnalyzeParallelSafety(plan.get(), num_refs_);
  AnalyzeBatchSafety(plan.get());
  return plan;
}

}  // namespace

Result<std::unique_ptr<CompiledQuery>> RefinePlan(BoundStatement stmt,
                                                  const BlockSkeleton& skel,
                                                  const Catalog& catalog) {
  TAURUS_FAULT_POINT("myopt.refine");
  auto out = std::make_unique<CompiledQuery>();
  out->num_refs = stmt.num_refs;
  Refiner refiner(out.get(), catalog, stmt.num_refs);
  TAURUS_ASSIGN_OR_RETURN(out->root, refiner.RefineBlock(skel));
  out->ast = std::move(stmt.block);
  return out;
}

}  // namespace taurus
