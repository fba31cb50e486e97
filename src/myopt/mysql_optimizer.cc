#include "myopt/mysql_optimizer.h"

#include <algorithm>
#include <cmath>

#include "frontend/normalize.h"
#include "myopt/access_path.h"
#include "myopt/join_graph.h"
#include "parser/ast_util.h"

namespace taurus {

namespace {

/// Stock MySQL performs OR-refactoring "only in cases when indexes can be
/// utilized to evaluate (a = b)" (paper Section 7 item 4 — Orca's version
/// is general, and that generality is the Q41/Q19 differentiator). This
/// applies the factoring to a WHERE conjunct only when a trial run shows
/// the factored-out common conjuncts include a column equality whose
/// column leads some index.
bool CommonConjunctsEnableIndex(const Expr& factored,
                                const std::vector<TableRef*>& leaves) {
  std::vector<const Expr*> conjs;
  SplitConjuncts(&factored, &conjs);
  for (const Expr* c : conjs) {
    if (c->kind != Expr::Kind::kBinary || c->bop != BinaryOp::kEq) continue;
    for (const auto& child : c->children) {
      if (child->kind != Expr::Kind::kColumnRef) continue;
      if (child->ref_id < 0 ||
          static_cast<size_t>(child->ref_id) >= leaves.size()) {
        continue;
      }
      const TableRef* leaf = leaves[static_cast<size_t>(child->ref_id)];
      if (leaf == nullptr || leaf->kind != TableRef::Kind::kBase ||
          leaf->table == nullptr) {
        continue;
      }
      for (const IndexDef& idx : leaf->table->indexes) {
        if (!idx.column_idx.empty() &&
            idx.column_idx[0] == child->column_idx) {
          return true;
        }
      }
    }
  }
  return false;
}

}  // namespace

void ApplyIndexGatedOrFactoring(QueryBlock* block,
                                const std::vector<TableRef*>& leaves) {
  if (block->where == nullptr) return;
  std::unique_ptr<Expr> trial = block->where->Clone();
  if (!FactorOrCommonConjuncts(&trial)) return;
  // Only the conjuncts the factoring *created* (those not already at the
  // top level of the original WHERE) count towards the index test.
  std::vector<const Expr*> before;
  SplitConjuncts(block->where.get(), &before);
  std::vector<const Expr*> after;
  SplitConjuncts(trial.get(), &after);
  bool any_new = false;
  for (const Expr* c : after) {
    bool existed = false;
    for (const Expr* b : before) {
      if (ExprEquals(*b, *c)) existed = true;
    }
    if (!existed && CommonConjunctsEnableIndex(*c, leaves)) any_new = true;
  }
  if (any_new) block->where = std::move(trial);
}

namespace {

/// Walks a block's own expressions (not descending into subquery bodies)
/// and collects every subquery expression node.
void CollectSubqueryExprs(const Expr* e, std::vector<const Expr*>* out) {
  if (e->subquery) {
    out->push_back(e);
    // Children of IN (the probe operand) still belong to this block.
  }
  for (const auto& c : e->children) CollectSubqueryExprs(c.get(), out);
}

void CollectBlockSubqueries(const QueryBlock& block,
                            std::vector<const Expr*>* out) {
  for (const auto& item : block.select_items) {
    CollectSubqueryExprs(item.expr.get(), out);
  }
  if (block.where) CollectSubqueryExprs(block.where.get(), out);
  for (const auto& g : block.group_by) CollectSubqueryExprs(g.get(), out);
  if (block.having) CollectSubqueryExprs(block.having.get(), out);
  for (const auto& o : block.order_by) CollectSubqueryExprs(o.expr.get(), out);
  std::vector<const TableRef*> stack;
  for (const auto& t : block.from) stack.push_back(t.get());
  while (!stack.empty()) {
    const TableRef* r = stack.back();
    stack.pop_back();
    if (r->kind == TableRef::Kind::kJoin) {
      if (r->on) CollectSubqueryExprs(r->on.get(), out);
      stack.push_back(r->left.get());
      stack.push_back(r->right.get());
    }
  }
}

}  // namespace

MySqlOptimizer::MySqlOptimizer(const Catalog& catalog, BoundStatement* stmt,
                               CostParams params)
    : catalog_(catalog),
      stmt_(stmt),
      params_(params),
      stats_(catalog, stmt->leaves) {}

Result<std::unique_ptr<BlockSkeleton>> MySqlOptimizer::Optimize() {
  return OptimizeBlock(stmt_->block.get());
}

MySqlOptimizer::Planned MySqlOptimizer::PlanLeaf(
    TableRef* leaf, const std::vector<Expr*>& local_conds, RefPredicate outer) {
  Planned out;
  double base_rows = stats_.LeafBaseRows(*leaf);
  double sel = 1.0;
  for (const Expr* c : local_conds) sel *= stats_.ConjunctSelectivity(*c);
  sel = std::clamp(sel, 0.0, 1.0);

  LeafAccess access =
      ChooseLeafAccess(*leaf, local_conds, base_rows, stats_, params_, outer);
  auto node = std::make_unique<SkeletonNode>();
  node->is_join = false;
  node->leaf = leaf;
  node->access = access.method;
  node->index_id = access.index_id;
  out.cost = access.cost;
  out.rows = std::max(base_rows * sel, 1.0);
  node->est_rows = out.rows;
  node->est_cost = out.cost;
  out.node = std::move(node);
  return out;
}

Result<MySqlOptimizer::Planned> MySqlOptimizer::PlanJoin(
    QueryBlock* block, TableRef* single_tree,
    const std::vector<Expr*>* extra_conds) {
  JoinGraph graph;
  if (single_tree != nullptr) {
    static const std::vector<Expr*> kNone;
    TAURUS_ASSIGN_OR_RETURN(
        graph, BuildJoinGraphForTree(
                   single_tree, extra_conds ? *extra_conds : kNone,
                   stmt_->num_refs));
  } else {
    TAURUS_ASSIGN_OR_RETURN(graph, BuildJoinGraph(block, stmt_->num_refs));
  }
  const size_t n = graph.units.size();
  if (n == 0) return Status::Internal("join graph with no units");

  // Plan each unit in isolation (leaf access or recursive composite plan).
  std::vector<Planned> unit_plans(n);
  std::vector<bool> conj_applied(graph.conjuncts.size(), false);
  for (size_t i = 0; i < n; ++i) {
    JoinUnit& unit = graph.units[i];
    std::vector<Expr*> local;
    for (size_t c = 0; c < graph.conjuncts.size(); ++c) {
      if (graph.conjuncts[c].units == (1ULL << i)) {
        local.push_back(graph.conjuncts[c].expr);
        conj_applied[c] = true;
      }
    }
    if (unit.ref->kind != TableRef::Kind::kJoin) {
      unit_plans[i] = PlanLeaf(unit.ref, local, [&graph](int ref_id) {
        return graph.unit_of_ref.count(ref_id) == 0;
      });
    } else {
      // Composite: plan the subtree, folding in join_conds pieces that
      // reference only this unit.
      std::vector<Expr*> sub_conds = local;
      for (Expr* jc : unit.join_conds) {
        uint64_t m = graph.UnitMaskOf(*jc, stmt_->num_refs);
        if (m == (1ULL << i)) sub_conds.push_back(jc);
      }
      TAURUS_ASSIGN_OR_RETURN(unit_plans[i],
                              PlanJoin(nullptr, unit.ref, &sub_conds));
    }
  }

  // Greedy left-deep ordering.
  uint64_t placed = 0;
  Planned acc;
  std::vector<bool> unit_placed(n, false);
  std::vector<bool> base_applied = conj_applied;

  for (size_t step = 0; step < n; ++step) {
    int best = -1;
    double best_cost = 0, best_rows = 0;
    JoinMethod best_method = JoinMethod::kNestedLoop;
    AccessMethod best_access = AccessMethod::kTableScan;
    int best_index = -1;

    for (size_t u = 0; u < n; ++u) {
      if (unit_placed[u]) continue;
      const JoinUnit& unit = graph.units[u];
      if ((unit.dependency & ~placed) != 0) continue;
      uint64_t ubit = 1ULL << u;

      // First table.
      if (acc.node == nullptr) {
        if (unit.join_type != JoinType::kInner) continue;
        double cost = unit_plans[u].cost;
        if (best < 0 || cost < best_cost ||
            (cost == best_cost && unit_plans[u].rows < best_rows)) {
          best = static_cast<int>(u);
          best_cost = cost;
          best_rows = unit_plans[u].rows;
          best_access = unit_plans[u].node->access;
          best_index = unit_plans[u].node->index_id;
        }
        continue;
      }

      // Newly applicable conjuncts connecting this unit to the prefix.
      double join_sel = 1.0;
      bool has_equality = false;
      std::vector<const Expr*> connecting;
      for (size_t c = 0; c < graph.conjuncts.size(); ++c) {
        if (conj_applied[c]) continue;
        const JoinConjunct& jc = graph.conjuncts[c];
        if ((jc.units & ~(placed | ubit)) != 0) continue;
        if ((jc.units & ubit) == 0 && jc.units != 0) continue;
        connecting.push_back(jc.expr);
        if (StatsProvider::IsColumnEquality(*jc.expr)) {
          has_equality = true;
          join_sel *= stats_.EqJoinSelectivity(*jc.expr);
        } else {
          join_sel *= stats_.ConjunctSelectivity(*jc.expr);
        }
      }
      for (const Expr* jc : unit.join_conds) {
        uint64_t m = graph.UnitMaskOf(*jc, stmt_->num_refs);
        if (m == ubit) continue;  // already folded into the unit plan
        connecting.push_back(jc);
        if (StatsProvider::IsColumnEquality(*jc)) {
          has_equality = true;
          join_sel *= stats_.EqJoinSelectivity(*jc);
        } else {
          join_sel *= stats_.ConjunctSelectivity(*jc);
        }
      }

      // Candidate access/join methods, MySQL style: prefer index "ref"
      // nested loop; otherwise hash join when an equality exists
      // (not cost-based); otherwise scan nested loop.
      double cost;
      double rows = std::max(acc.rows * unit_plans[u].rows * join_sel, 1.0);
      JoinMethod method = JoinMethod::kNestedLoop;
      AccessMethod access = unit_plans[u].node->access;
      int index_id = unit_plans[u].node->index_id;

      int ref_index = -1;
      if (unit.ref->kind == TableRef::Kind::kBase &&
          unit.ref->table != nullptr) {
        // Look for an index whose first key column is bound by an equality
        // to already-placed tables.
        auto placed_or_outer = [&](int ref_id) {
          auto it = graph.unit_of_ref.find(ref_id);
          return it == graph.unit_of_ref.end() ||
                 (placed & (1ULL << it->second)) != 0;
        };
        const std::vector<IndexDef>& indexes = unit.ref->table->indexes;
        for (size_t i = 0; i < indexes.size() && ref_index < 0; ++i) {
          if (indexes[i].column_idx.empty()) continue;
          for (const Expr* e : connecting) {
            if (KeyBinding(*e, *unit.ref, indexes[i].column_idx[0],
                           placed_or_outer) != nullptr) {
              ref_index = static_cast<int>(i);
              break;
            }
          }
        }
      }

      if (ref_index >= 0) {
        const IndexDef& idx =
            unit.ref->table->indexes[static_cast<size_t>(ref_index)];
        cost = acc.cost +
               acc.rows * IndexProbeCost(stats_, params_, unit.ref->ref_id,
                                         idx.column_idx[0],
                                         stats_.LeafBaseRows(*unit.ref));
        access = AccessMethod::kIndexLookup;
        index_id = ref_index;
        method = JoinMethod::kNestedLoop;
      } else if (has_equality) {
        // MySQL hash join: build side is the accumulated prefix (the
        // paper's Section 7 item 2 quirk) for inner joins; for outer/semi
        // the new unit is the build side.
        method = JoinMethod::kHash;
        cost = acc.cost + unit_plans[u].cost +
               acc.rows * params_.hash_build +
               unit_plans[u].rows * params_.hash_probe;
      } else {
        // Nested loop with rescans.
        cost = acc.cost + acc.rows * std::max(unit_plans[u].cost, 1.0);
      }

      // Row estimates for the non-inner join types.
      switch (unit.join_type) {
        case JoinType::kSemi:
          rows = std::min(acc.rows, std::max(rows, 1.0));
          break;
        case JoinType::kAntiSemi:
          rows = std::max(acc.rows - std::min(acc.rows, rows), 1.0);
          break;
        case JoinType::kLeft:
          rows = std::max(rows, acc.rows);
          break;
        default:
          break;
      }

      if (best < 0 || cost < best_cost ||
          (cost == best_cost && rows < best_rows)) {
        best = static_cast<int>(u);
        best_cost = cost;
        best_rows = rows;
        best_method = method;
        best_access = access;
        best_index = index_id;
      }
    }

    if (best < 0) {
      return Status::Internal("join ordering stuck (cyclic dependencies?)");
    }

    // Commit the chosen unit.
    uint64_t bbit = 1ULL << best;
    // Mark consumed conjuncts.
    for (size_t c = 0; c < graph.conjuncts.size(); ++c) {
      if (conj_applied[c]) continue;
      const JoinConjunct& jc = graph.conjuncts[c];
      if ((jc.units & ~(placed | bbit)) == 0 &&
          ((jc.units & bbit) != 0 || jc.units == 0)) {
        conj_applied[c] = true;
      }
    }

    Planned& up = unit_plans[static_cast<size_t>(best)];
    up.node->access = best_access;
    up.node->index_id = best_index;
    if (acc.node == nullptr) {
      acc.node = std::move(up.node);
      acc.rows = best_rows;
      acc.cost = best_cost;
    } else {
      auto join = std::make_unique<SkeletonNode>();
      join->is_join = true;
      join->method = best_method;
      join->join_type = graph.units[static_cast<size_t>(best)].join_type;
      if (join->join_type == JoinType::kCross) {
        join->join_type = JoinType::kInner;
      }
      join->left = std::move(acc.node);
      join->right = std::move(up.node);
      join->est_rows = best_rows;
      join->est_cost = best_cost;
      acc.node = std::move(join);
      acc.rows = best_rows;
      acc.cost = best_cost;
    }
    unit_placed[static_cast<size_t>(best)] = true;
    placed |= bbit;
  }

  return acc;
}

Result<std::unique_ptr<BlockSkeleton>> MySqlOptimizer::OptimizeBlock(
    QueryBlock* block) {
  auto skel = std::make_unique<BlockSkeleton>();
  skel->block = block;

  // Recursively optimize derived tables first so their cardinalities feed
  // this block's join ordering.
  for (TableRef* leaf : block->Leaves()) {
    if (leaf->kind == TableRef::Kind::kDerived) {
      TAURUS_ASSIGN_OR_RETURN(auto sub, OptimizeBlock(leaf->derived.get()));
      stats_.SetDerivedRows(leaf, sub->out_rows);
      skel->derived[leaf] = std::move(sub);
    }
  }
  // Expression subqueries that survived the Prepare rewrites.
  std::vector<const Expr*> sub_exprs;
  CollectBlockSubqueries(*block, &sub_exprs);
  for (const Expr* e : sub_exprs) {
    TAURUS_ASSIGN_OR_RETURN(
        auto sub, OptimizeBlock(const_cast<Expr*>(e)->subquery.get()));
    skel->subqueries[e] = std::move(sub);
  }

  // Stock MySQL's limited, index-gated OR refactoring (Section 7 item 4).
  ApplyIndexGatedOrFactoring(block, stmt_->leaves);

  double rows = 1.0;
  double cost = 0.0;
  if (!block->from.empty()) {
    TAURUS_ASSIGN_OR_RETURN(Planned joined,
                            PlanJoin(block, nullptr, nullptr));
    rows = joined.rows;
    cost = joined.cost;
    skel->root = std::move(joined.node);
  }

  // Aggregation estimate: capped product of group-column NDVs.
  bool has_agg = !block->group_by.empty();
  if (!has_agg) {
    for (const auto& item : block->select_items) {
      if (ContainsAggregate(*item.expr)) {
        has_agg = true;
        break;
      }
    }
  }
  if (has_agg) {
    if (block->group_by.empty()) {
      rows = 1.0;
    } else {
      double groups = 1.0;
      for (const auto& g : block->group_by) {
        if (g->kind == Expr::Kind::kColumnRef) {
          groups *= stats_.NdvOf(g->ref_id, g->column_idx, rows);
        } else {
          groups *= 10.0;
        }
        groups = std::min(groups, rows);
      }
      rows = std::max(std::min(groups, rows), 1.0);
    }
    cost += rows * params_.sort_row;
  }
  if (block->having != nullptr) rows = std::max(rows * 0.5, 1.0);
  if (!block->order_by.empty()) cost += rows * params_.sort_row;
  if (block->limit >= 0) {
    rows = std::min(rows, static_cast<double>(block->limit));
  }

  // UNION continuation: the immediate next arm (which recursively carries
  // its own continuation in its union_arms).
  if (block->union_next != nullptr) {
    TAURUS_ASSIGN_OR_RETURN(auto sub, OptimizeBlock(block->union_next.get()));
    rows += sub->out_rows;
    cost += sub->cost;
    skel->union_arms.push_back(std::move(sub));
  }

  skel->out_rows = std::max(rows, 1.0);
  skel->cost = cost;
  return skel;
}

Result<std::unique_ptr<BlockSkeleton>> MySqlOptimize(const Catalog& catalog,
                                                     BoundStatement* stmt) {
  MySqlOptimizer opt(catalog, stmt);
  return opt.Optimize();
}

}  // namespace taurus
