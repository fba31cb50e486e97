#include "bridge/orca_path.h"

#include <algorithm>
#include <functional>

#include "bridge/decorrelate.h"
#include "bridge/parse_tree_converter.h"
#include "common/fault_injector.h"
#include "bridge/plan_converter.h"
#include "orca/optimizer.h"
#include "parser/ast_util.h"
#include "verify/logical_verifier.h"
#include "verify/physical_verifier.h"
#include "verify/skeleton_verifier.h"

namespace taurus {

namespace {

/// Walks a block's own expressions (not into subquery bodies) collecting
/// subquery expression nodes in a deterministic order. Shared by
/// optimization and CTE skeleton remapping (which pairs nodes by position).
void CollectSubqueryExprsOrdered(Expr* e, std::vector<Expr*>* out) {
  if (e->subquery) out->push_back(e);
  for (auto& c : e->children) CollectSubqueryExprsOrdered(c.get(), out);
}

void CollectBlockSubqueriesOrdered(QueryBlock* block,
                                   std::vector<Expr*>* out) {
  for (auto& item : block->select_items) {
    CollectSubqueryExprsOrdered(item.expr.get(), out);
  }
  if (block->where) CollectSubqueryExprsOrdered(block->where.get(), out);
  for (auto& g : block->group_by) CollectSubqueryExprsOrdered(g.get(), out);
  if (block->having) CollectSubqueryExprsOrdered(block->having.get(), out);
  for (auto& o : block->order_by) {
    CollectSubqueryExprsOrdered(o.expr.get(), out);
  }
  std::vector<TableRef*> stack;
  for (auto& t : block->from) stack.push_back(t.get());
  std::vector<TableRef*> ordered;
  while (!stack.empty()) {
    TableRef* r = stack.back();
    stack.pop_back();
    ordered.push_back(r);
    if (r->kind == TableRef::Kind::kJoin) {
      stack.push_back(r->right.get());
      stack.push_back(r->left.get());
    }
  }
  for (TableRef* r : ordered) {
    if (r->kind == TableRef::Kind::kJoin && r->on != nullptr) {
      CollectSubqueryExprsOrdered(r->on.get(), out);
    }
  }
}

}  // namespace

OrcaPathOptimizer::OrcaPathOptimizer(const Catalog& catalog,
                                     BoundStatement* stmt,
                                     MetadataProvider* mdp,
                                     const OrcaConfig& config,
                                     ResourceGovernor* governor,
                                     const PlanVerifyConfig* verify,
                                     Tracer* tracer)
    : catalog_(catalog),
      stmt_(stmt),
      mdp_(mdp),
      config_(config),
      governor_(governor),
      verify_(verify),
      tracer_(tracer),
      stats_(catalog, stmt->leaves, mdp) {}

Status OrcaPathOptimizer::CheckEnforce(const char* subsystem) const {
  if (!ShouldVerify() || !verify_->enforce || verify_report_.ok()) {
    return Status::OK();
  }
  return verify_report_.ToStatus(subsystem);
}

Result<std::unique_ptr<BlockSkeleton>> OrcaPathOptimizer::Optimize() {
  if (config_.enable_decorrelation) {
    ScopedSpan decorr_span(tracer_, "decorrelate");
    TAURUS_FAULT_POINT("bridge.decorrelate");
    // Subquery -> derived-table conversion (Section 4.2.3 / the Q17
    // "derived_1_2" case). A failed rewrite leaves the correlated form.
    TAURUS_ASSIGN_OR_RETURN(int converted,
                            DecorrelateScalarSubqueries(stmt_));
    metrics_.subqueries_decorrelated = converted;
  }
  auto skel = OptimizeBlock(stmt_->block.get());
  if (skel.ok()) {
    metrics_.mdp_dxl_requests = mdp_->dxl_requests();
    metrics_.mdp_cache_hits = mdp_->cache_hits();
    if (ShouldVerify()) {
      ScopedSpan verify_span(tracer_, "verify.skeleton");
      // Statement-level skeleton invariants, including the CTE
      // single-producer/n-consumer pairing (an Orca-detour property).
      VerifySkeletonPlan(*skel.value(), catalog_,
                         /*check_cte_pairing=*/true, &verify_report_);
      TAURUS_RETURN_IF_ERROR(CheckEnforce("verify.skeleton"));
    }
  }
  return skel;
}

Result<std::unique_ptr<BlockSkeleton>> OrcaPathOptimizer::RemapSkeleton(
    const BlockSkeleton& tmpl, QueryBlock* target) {
  auto out = std::make_unique<BlockSkeleton>();
  out->block = target;
  out->out_rows = tmpl.out_rows;
  out->cost = tmpl.cost;
  out->stream_agg = tmpl.stream_agg;

  // Pair leaves by position (clone-identical structure).
  std::vector<TableRef*> tmpl_leaves = tmpl.block->Leaves();
  std::vector<TableRef*> target_leaves = target->Leaves();
  if (tmpl_leaves.size() != target_leaves.size()) {
    return Status::Internal("CTE copies have diverging structure");
  }
  std::map<const TableRef*, TableRef*> leaf_map;
  for (size_t i = 0; i < tmpl_leaves.size(); ++i) {
    leaf_map[tmpl_leaves[i]] = target_leaves[i];
  }

  // Clone the skeleton tree, retargeting leaves.
  std::function<std::unique_ptr<SkeletonNode>(const SkeletonNode&)>
      clone_node = [&](const SkeletonNode& n) -> std::unique_ptr<SkeletonNode> {
    auto copy = std::make_unique<SkeletonNode>();
    copy->is_join = n.is_join;
    copy->access = n.access;
    copy->index_id = n.index_id;
    copy->method = n.method;
    copy->join_type = n.join_type;
    copy->est_rows = n.est_rows;
    copy->est_cost = n.est_cost;
    if (n.is_join) {
      copy->left = clone_node(*n.left);
      copy->right = clone_node(*n.right);
    } else {
      auto it = leaf_map.find(n.leaf);
      copy->leaf = it != leaf_map.end() ? it->second : n.leaf;
    }
    return copy;
  };
  if (tmpl.root != nullptr) out->root = clone_node(*tmpl.root);

  // Derived sub-skeletons: remap onto the target leaf's derived block.
  for (const auto& [tmpl_leaf, sub] : tmpl.derived) {
    auto it = leaf_map.find(tmpl_leaf);
    if (it == leaf_map.end() ||
        it->second->kind != TableRef::Kind::kDerived) {
      return Status::Internal("CTE remap: derived leaf mismatch");
    }
    TAURUS_ASSIGN_OR_RETURN(auto remapped,
                            RemapSkeleton(*sub, it->second->derived.get()));
    stats_.SetDerivedRows(it->second, remapped->out_rows);
    out->derived[it->second] = std::move(remapped);
  }

  // Expression subqueries: pair by deterministic traversal order.
  {
    std::vector<Expr*> tmpl_subs;
    CollectBlockSubqueriesOrdered(tmpl.block, &tmpl_subs);
    std::vector<Expr*> target_subs;
    CollectBlockSubqueriesOrdered(target, &target_subs);
    if (tmpl_subs.size() != target_subs.size()) {
      return Status::Internal("CTE remap: subquery count mismatch");
    }
    for (size_t i = 0; i < tmpl_subs.size(); ++i) {
      auto it = tmpl.subqueries.find(tmpl_subs[i]);
      if (it == tmpl.subqueries.end()) {
        return Status::Internal("CTE remap: missing subquery skeleton");
      }
      TAURUS_ASSIGN_OR_RETURN(
          auto remapped,
          RemapSkeleton(*it->second, target_subs[i]->subquery.get()));
      out->subqueries[target_subs[i]] = std::move(remapped);
    }
  }

  // Union arms.
  if (!tmpl.union_arms.empty()) {
    if (target->union_next == nullptr) {
      return Status::Internal("CTE remap: union arm mismatch");
    }
    TAURUS_ASSIGN_OR_RETURN(
        auto arm, RemapSkeleton(*tmpl.union_arms[0], target->union_next.get()));
    out->union_arms.push_back(std::move(arm));
  }
  return out;
}

Result<std::unique_ptr<BlockSkeleton>> OrcaPathOptimizer::OptimizeBlock(
    QueryBlock* block) {
  auto skel = std::make_unique<BlockSkeleton>();
  skel->block = block;

  // Derived tables first (CTE copies reuse the producer skeleton).
  for (TableRef* leaf : block->Leaves()) {
    if (leaf->kind != TableRef::Kind::kDerived) continue;
    if (leaf->from_cte) {
      auto it = cte_templates_.find(leaf->cte_name);
      if (it != cte_templates_.end()) {
        TAURUS_ASSIGN_OR_RETURN(auto remapped,
                                RemapSkeleton(*it->second,
                                              leaf->derived.get()));
        stats_.SetDerivedRows(leaf, remapped->out_rows);
        skel->derived[leaf] = std::move(remapped);
        ++metrics_.cte_producers_reused;
        continue;
      }
    }
    TAURUS_ASSIGN_OR_RETURN(auto sub, OptimizeBlock(leaf->derived.get()));
    stats_.SetDerivedRows(leaf, sub->out_rows);
    if (leaf->from_cte) {
      cte_templates_[leaf->cte_name] = sub.get();
    }
    skel->derived[leaf] = std::move(sub);
  }

  // Expression subqueries.
  {
    std::vector<Expr*> subs;
    CollectBlockSubqueriesOrdered(block, &subs);
    for (Expr* e : subs) {
      TAURUS_ASSIGN_OR_RETURN(auto sub, OptimizeBlock(e->subquery.get()));
      skel->subqueries[e] = std::move(sub);
    }
  }

  double rows = 1.0;
  double cost = 0.0;
  if (!block->from.empty()) {
    // Parse Tree Converter -> Orca optimization -> Plan Converter.
    ScopedSpan convert_span(tracer_, "parse_tree_convert");
    TAURUS_ASSIGN_OR_RETURN(
        auto logical,
        ConvertBlockToOrcaLogical(block, stmt_->num_refs, mdp_, config_));
    convert_span.End();
    if (ShouldVerify()) {
      ScopedSpan verify_span(tracer_, "verify.logical");
      VerifyLogicalTree(*logical, *block, *stmt_, &verify_report_);
      TAURUS_RETURN_IF_ERROR(CheckEnforce("verify.logical"));
    }
    ScopedSpan optimize_span(tracer_, "orca.optimize");
    OrcaOptimizer optimizer(config_, &stats_, stmt_->num_refs, governor_,
                            tracer_);
    TAURUS_ASSIGN_OR_RETURN(auto physical, optimizer.Optimize(logical.get()));
    optimize_span.End();
    metrics_.partitions_evaluated += optimizer.partitions_evaluated();
    metrics_.memo_groups += optimizer.num_groups();
    if (ShouldVerify()) {
      ScopedSpan verify_span(tracer_, "verify.physical");
      VerifyPhysicalPlan(*physical, *block, &verify_report_);
      TAURUS_RETURN_IF_ERROR(CheckEnforce("verify.physical"));
    }
    ScopedSpan plan_span(tracer_, "plan_convert");
    TAURUS_ASSIGN_OR_RETURN(skel->root,
                            ConvertOrcaPlanToSkeleton(*physical, *block,
                                                      config_));
    plan_span.End();
    if (ShouldVerify()) {
      ScopedSpan verify_span(tracer_, "verify.skeleton");
      VerifyBuildProbeFlip(*skel->root, *physical, &verify_report_);
      TAURUS_RETURN_IF_ERROR(CheckEnforce("verify.skeleton"));
    }
    rows = physical->rows;
    cost = physical->cost;
  }

  // Block-level output estimate (same formulas as the MySQL optimizer's
  // tail so EXPLAIN numbers are comparable between the two paths).
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
    cost += rows * config_.cost.sort_row;
  }
  if (block->having != nullptr) rows = std::max(rows * 0.5, 1.0);
  if (!block->order_by.empty()) cost += rows * config_.cost.sort_row;
  if (block->limit >= 0) {
    rows = std::min(rows, static_cast<double>(block->limit));
  }

  if (block->union_next != nullptr) {
    TAURUS_ASSIGN_OR_RETURN(auto arm, OptimizeBlock(block->union_next.get()));
    rows += arm->out_rows;
    cost += arm->cost;
    skel->union_arms.push_back(std::move(arm));
  }

  skel->out_rows = std::max(rows, 1.0);
  skel->cost = cost;
  return skel;
}

}  // namespace taurus
