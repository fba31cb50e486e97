#include "verify/block_verifier.h"

#include <map>
#include <set>
#include <string>
#include <vector>

#include "parser/ast_util.h"

namespace taurus {

namespace {

std::string LeafName(const TableRef* leaf) {
  if (leaf == nullptr) return "?";
  return leaf->alias.empty() ? leaf->table_name : leaf->alias;
}

std::string OpLabel(const PhysOp& op) {
  if (op.leaf == nullptr) return PhysOpKindName(op.kind);
  return std::string(PhysOpKindName(op.kind)) + "(" + LeafName(op.leaf) + ")";
}

/// Serial reasons AnalyzeParallelSafety can state (refine.cc); anything
/// else on a serial pipeline means the flag and the analysis diverged.
const std::set<std::string>& KnownSerialReasons() {
  static const std::set<std::string> kReasons = {
      "no driving table",
      "semi/anti-join probe pipeline",
      "ordered index-range driver",
      "index-lookup driver",
      "derived-table driver",
      "no table-scan driver",
      "derived table on a worker-side inner loop",
      "expression subquery in pipeline",
      "correlated pipeline",
      "row-limit early exit",
  };
  return kReasons;
}

class BlockVerifier {
 public:
  BlockVerifier(const CompiledQuery& query, VerifyReport* report)
      : query_(&query), report_(report) {
    // Leaf lookup for B003: every leaf reachable from the bound AST.
    std::vector<const QueryBlock*> blocks{query.ast.get()};
    while (!blocks.empty()) {
      const QueryBlock* b = blocks.back();
      blocks.pop_back();
      if (b == nullptr) continue;
      for (const TableRef* leaf : b->Leaves()) {
        if (leaf->ref_id >= 0) leaf_by_ref_[leaf->ref_id] = leaf;
        if (leaf->kind == TableRef::Kind::kDerived) {
          blocks.push_back(leaf->derived.get());
        }
      }
      CollectSubqueryBlocks(*b, &blocks);
      if (b->union_next != nullptr) blocks.push_back(b->union_next.get());
    }
  }

  void Run() {
    report_->rules_checked += kNumBlockRules;
    if (query_->root != nullptr) WalkBlock(*query_->root);
    for (const auto& sub : query_->subplans) {
      if (sub != nullptr && sub->plan != nullptr) WalkBlock(*sub->plan);
    }
  }

 private:
  static void CollectSubqueryBlocks(const QueryBlock& b,
                                    std::vector<const QueryBlock*>* out) {
    std::vector<const Expr*> roots;
    for (const auto& item : b.select_items) roots.push_back(item.expr.get());
    if (b.where) roots.push_back(b.where.get());
    for (const auto& g : b.group_by) roots.push_back(g.get());
    if (b.having) roots.push_back(b.having.get());
    for (const auto& o : b.order_by) roots.push_back(o.expr.get());
    std::vector<const TableRef*> stack;
    for (const auto& t : b.from) stack.push_back(t.get());
    while (!stack.empty()) {
      const TableRef* r = stack.back();
      stack.pop_back();
      if (r->kind == TableRef::Kind::kJoin) {
        if (r->on) roots.push_back(r->on.get());
        stack.push_back(r->left.get());
        stack.push_back(r->right.get());
      }
    }
    std::vector<const Expr*> estack(roots.begin(), roots.end());
    while (!estack.empty()) {
      const Expr* e = estack.back();
      estack.pop_back();
      if (e->subquery) out->push_back(e->subquery.get());
      for (const auto& c : e->children) estack.push_back(c.get());
    }
  }

  void WalkBlock(const BlockPlan& plan) {
    if (visited_.count(&plan) != 0) return;  // CTE copies share derived plans
    visited_.insert(&plan);
    const std::string path =
        "block " +
        std::to_string(plan.block != nullptr ? plan.block->block_id : -1);

    if (plan.join_root != nullptr) {
      WalkOp(*plan.join_root, path + "/" + OpLabel(*plan.join_root));
    }
    CheckParallelConsistency(plan, path);

    // Block-level expressions (B003).
    for (const Expr* e : plan.group_exprs) CheckExprRefs(e, path);
    for (const Expr* e : plan.agg_exprs) CheckExprRefs(e, path);
    for (const auto& [e, asc] : plan.order_keys) {
      (void)asc;
      CheckExprRefs(e, path);
    }
    for (const Expr* e : plan.projections) CheckExprRefs(e, path);
    CheckExprRefs(plan.having, path);

    for (const auto& arm : plan.union_arms) {
      if (arm != nullptr) WalkBlock(*arm);
    }
  }

  void WalkOp(const PhysOp& op, const std::string& path) {
    // B001: operator shape.
    switch (op.kind) {
      case PhysOp::Kind::kNLJoin:
      case PhysOp::Kind::kHashJoin:
        if (op.child == nullptr || op.right == nullptr) {
          report_->AddError("B001", path, "join missing a child");
        }
        break;
      case PhysOp::Kind::kFilter:
        if (op.child == nullptr) {
          report_->AddError("B001", path, "filter without an input");
        }
        if (op.conds.empty()) {
          report_->AddError("B001", path, "filter without a condition");
        }
        break;
      case PhysOp::Kind::kTableScan:
        if (op.leaf == nullptr) {
          report_->AddError("B001", path, "table scan without a leaf");
        }
        break;
      case PhysOp::Kind::kIndexRange:
      case PhysOp::Kind::kIndexLookup:
        if (op.leaf == nullptr || op.leaf->table == nullptr) {
          report_->AddError("B001", path, "index access without a base table");
        } else if (op.index_id < 0 ||
                   op.index_id >=
                       static_cast<int>(op.leaf->table->indexes.size())) {
          report_->AddError("B001", path,
                            "index id " + std::to_string(op.index_id) +
                                " out of range for table " +
                                op.leaf->table->name);
        } else if (op.kind == PhysOp::Kind::kIndexLookup &&
                   (op.lookup_keys.empty() ||
                    op.lookup_keys.size() >
                        op.leaf->table->indexes[static_cast<size_t>(
                                                    op.index_id)]
                            .column_idx.size())) {
          report_->AddError("B001", path,
                            "index lookup key count " +
                                std::to_string(op.lookup_keys.size()) +
                                " does not fit the index");
        }
        break;
      case PhysOp::Kind::kDerivedScan:
        if (op.derived_plan == nullptr) {
          report_->AddError("B001", path,
                            "derived scan without a materialization plan");
        } else {
          WalkBlock(*op.derived_plan);
        }
        break;
    }

    // B005: a base leaf executes the access its skeleton prescribed.
    if (op.leaf != nullptr && op.kind != PhysOp::Kind::kDerivedScan &&
        op.kind != op.prescribed) {
      report_->AddError("B005", path,
                        std::string("skeleton prescribed ") +
                            PhysOpKindName(op.prescribed) +
                            ", refinement executes " +
                            PhysOpKindName(op.kind));
    }

    // B003: every expression the operator evaluates.
    for (const Expr* e : op.filters) CheckExprRefs(e, path);
    CheckExprRefs(op.range_lo, path);
    CheckExprRefs(op.range_hi, path);
    for (const Expr* e : op.lookup_keys) CheckExprRefs(e, path);
    for (const Expr* e : op.conds) CheckExprRefs(e, path);
    for (const auto& [l, r] : op.hash_keys) {
      CheckExprRefs(l, path);
      CheckExprRefs(r, path);
    }

    if (op.child != nullptr) {
      WalkOp(*op.child, path + "/" + OpLabel(*op.child));
    }
    if (op.right != nullptr) {
      WalkOp(*op.right, path + "/" + OpLabel(*op.right));
    }
  }

  /// B002: the parallel verdict must agree with the plan it describes.
  void CheckParallelConsistency(const BlockPlan& plan,
                                const std::string& path) {
    if (!plan.parallel_eligible) {
      if (plan.join_root != nullptr && plan.serial_reason.empty()) {
        report_->AddError("B002", path,
                          "serial pipeline without a stated reason");
      } else if (!plan.serial_reason.empty() &&
                 KnownSerialReasons().count(plan.serial_reason) == 0) {
        report_->AddError("B002", path,
                          "serial reason \"" + plan.serial_reason +
                              "\" is not one AnalyzeParallelSafety states");
      }
      return;
    }
    if (!plan.serial_reason.empty()) {
      report_->AddError("B002", path,
                        "parallel-eligible pipeline also states serial "
                        "reason \"" +
                            plan.serial_reason + "\"");
      return;
    }
    if (plan.join_root == nullptr) {
      report_->AddError("B002", path,
                        "parallel-eligible block has no driving pipeline");
      return;
    }
    // Re-derive the necessary conditions along the executor's driving-path
    // descent: Filter -> child, hash join -> probe side, NL join -> left;
    // the driver must be a full table scan and no semi/anti join may sit on
    // the path (its probe pipeline carries join state across morsels).
    const PhysOp* cur = plan.join_root.get();
    while (cur != nullptr) {
      switch (cur->kind) {
        case PhysOp::Kind::kTableScan:
          cur = nullptr;  // reached a splittable driver
          break;
        case PhysOp::Kind::kFilter:
          cur = cur->child.get();
          break;
        case PhysOp::Kind::kHashJoin:
        case PhysOp::Kind::kNLJoin: {
          if (cur->join_type == JoinType::kSemi ||
              cur->join_type == JoinType::kAntiSemi) {
            report_->AddError("B002", path,
                              "parallel-eligible pipeline drives through a "
                              "semi/anti join");
            return;
          }
          if (cur->kind == PhysOp::Kind::kNLJoin) {
            cur = cur->child.get();
          } else {
            bool build_is_left = cur->join_type == JoinType::kInner ||
                                 cur->join_type == JoinType::kCross;
            cur = build_is_left ? cur->right.get() : cur->child.get();
          }
          break;
        }
        case PhysOp::Kind::kIndexRange:
        case PhysOp::Kind::kIndexLookup:
        case PhysOp::Kind::kDerivedScan:
          report_->AddError("B002", path,
                            "parallel-eligible pipeline is driven by " +
                                OpLabel(*cur) + ", which cannot be split "
                                "into morsels");
          return;
      }
    }
    // No expression subquery may run on a worker (it mutates the shared
    // subplan cache).
    std::vector<const Expr*> block_exprs;
    for (const Expr* e : plan.group_exprs) block_exprs.push_back(e);
    for (const Expr* e : plan.agg_exprs) block_exprs.push_back(e);
    for (const auto& [e, asc] : plan.order_keys) {
      (void)asc;
      block_exprs.push_back(e);
    }
    for (const Expr* e : plan.projections) block_exprs.push_back(e);
    if (plan.having != nullptr) block_exprs.push_back(plan.having);
    for (const Expr* e : block_exprs) {
      if (e != nullptr && ContainsSubquery(*e)) {
        report_->AddError("B002", path,
                          "parallel-eligible pipeline evaluates an "
                          "expression subquery");
        return;
      }
    }
  }

  /// B003 over one expression tree (skips subquery bodies — they have their
  /// own subplans).
  void CheckExprRefs(const Expr* e, const std::string& path) {
    if (e == nullptr) return;
    if (e->kind == Expr::Kind::kColumnRef) {
      auto it = leaf_by_ref_.find(e->ref_id);
      if (it == leaf_by_ref_.end()) {
        report_->AddError("B003", path,
                          "column ref " + e->ToString() +
                              " has dangling table ref id " +
                              std::to_string(e->ref_id));
      } else {
        const TableRef* leaf = it->second;
        if (leaf->kind == TableRef::Kind::kBase && leaf->table != nullptr &&
            (e->column_idx < 0 ||
             e->column_idx >= static_cast<int>(leaf->table->columns.size()))) {
          report_->AddError("B003", path,
                            "column ref " + e->ToString() +
                                " has out-of-range column index " +
                                std::to_string(e->column_idx));
        }
      }
    }
    for (const auto& c : e->children) CheckExprRefs(c.get(), path);
  }

  const CompiledQuery* query_;
  VerifyReport* report_;
  std::map<int, const TableRef*> leaf_by_ref_;
  std::set<const BlockPlan*> visited_;
};

}  // namespace

void VerifyBlockPlan(const CompiledQuery& query, VerifyReport* report) {
  BlockVerifier(query, report).Run();
}

void VerifyExecBudgetArming(bool used_orca, bool budget_governs_exec,
                            const ExecContext& ctx, VerifyReport* report) {
  report->rules_checked += 1;
  bool armed = ctx.max_rows_scanned > 0 || ctx.exec_deadline_ms > 0;
  if (used_orca && budget_governs_exec && !armed) {
    report->AddError("B004", "exec",
                     "Orca-detour plan is executing without the configured "
                     "resource budget armed");
  }
  if (!used_orca && armed) {
    report->AddError("B004", "exec",
                     "MySQL-path plan is executing under the Orca exec "
                     "budget (must run unbudgeted)");
  }
}

}  // namespace taurus
