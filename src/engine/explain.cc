#include "engine/explain.h"

#include <algorithm>
#include <cstdio>
#include <map>
#include <vector>

#include "obs/estimate_feedback.h"
#include "parser/ast_util.h"

namespace taurus {

namespace {

std::string Est(double cost, double rows) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), " (cost=%.2f rows=%.0f)", cost, rows);
  return buf;
}

/// "(actual rows=N loops=N time=T ms) (q-error=Q)" for an executed node,
/// "(never executed)" otherwise.
std::string ActualAnnot(const OpActual* a, double est_rows) {
  if (a == nullptr || a->loops <= 0) return " (never executed)";
  char buf[128];
  std::snprintf(buf, sizeof(buf),
                " (actual rows=%lld loops=%lld time=%.3f ms)",
                static_cast<long long>(a->rows),
                static_cast<long long>(a->loops), a->time_ms);
  std::string out = buf;
  const double per_loop = static_cast<double>(a->rows) /
                          static_cast<double>(std::max<int64_t>(a->loops, 1));
  std::snprintf(buf, sizeof(buf), " (q-error=%.2f)", QError(est_rows, per_loop));
  out += buf;
  return out;
}

std::string CondsToString(const std::vector<const Expr*>& conds) {
  std::string out;
  for (size_t i = 0; i < conds.size(); ++i) {
    if (i) out += " and ";
    out += conds[i]->ToString();
  }
  return out;
}

class ExplainRenderer {
 public:
  /// `actuals` null renders plain EXPLAIN, non-null EXPLAIN ANALYZE.
  ExplainRenderer(const CompiledQuery& query, const QueryEvent& event,
                  const OpActualsMap* actuals)
      : query_(&query), event_(&event), actuals_(actuals) {
    // Build ref_id -> leaf map for invalidation annotations.
    std::vector<const QueryBlock*> blocks{query.ast.get()};
    while (!blocks.empty()) {
      const QueryBlock* b = blocks.back();
      blocks.pop_back();
      for (const TableRef* leaf : b->Leaves()) {
        leaf_by_ref_[leaf->ref_id] = leaf;
        if (leaf->kind == TableRef::Kind::kDerived) {
          blocks.push_back(leaf->derived.get());
        }
      }
      if (b->union_next) blocks.push_back(b->union_next.get());
    }
  }

  std::string Render() {
    std::string out;
    if (actuals_ != nullptr) {
      out = event_->used_orca ? "EXPLAIN ANALYZE (ORCA)\n" : "EXPLAIN ANALYZE\n";
      char buf[96];
      std::snprintf(buf, sizeof(buf), "actual: rows=%lld time=%.3f ms\n",
                    static_cast<long long>(event_->rows_returned),
                    event_->execute_ms);
      out += buf;
    } else {
      out = event_->used_orca ? "EXPLAIN (ORCA)\n" : "EXPLAIN\n";
    }
    if (event_->plan_cache_hit) {
      // Own line so the first-line optimizer marker stays stable.
      char buf[64];
      std::snprintf(buf, sizeof(buf), "plan cache hit (saved %.3f ms)\n",
                    event_->optimize_saved_ms);
      out += buf;
    }
    // Degradation markers (own lines, after the optimizer marker).
    if (event_->quarantine_hit) {
      out += "orca detour quarantined; used MySQL path\n";
    } else if (event_->fell_back) {
      out += "orca detour fell back (" + event_->fallback_reason + ")\n";
    }
    if (event_->verifier_rules > 0) {
      out += "plan_verifier: " + std::to_string(event_->verifier_rules) +
             " rules, " + std::to_string(event_->verifier_violations) +
             " violations\n";
    }
    RenderBlock(*query_->root, 0, &out);
    for (size_t i = 0; i < query_->subplans.size(); ++i) {
      out += "Subquery #" + std::to_string(i + 1) +
             (query_->subplans[i]->correlated ? " (correlated)" : "") + "\n";
      RenderBlock(*query_->subplans[i]->plan, 0, &out);
    }
    if (actuals_ != nullptr) AppendQErrorSection(&out);
    return out;
  }

 private:
  /// Estimate annotation, plus actuals + q-error under EXPLAIN ANALYZE.
  std::string Annot(const PhysOp& op) {
    std::string out = Est(op.est_cost, op.est_rows);
    if (actuals_ != nullptr) {
      out += ActualAnnot(actuals_->Find(&op), op.est_rows);
    }
    return out;
  }

  std::string BlockAnnot(const BlockPlan& plan) {
    std::string out = Est(plan.est_cost, plan.est_rows);
    if (actuals_ != nullptr) {
      out += ActualAnnot(actuals_->Find(&plan), plan.est_rows);
    }
    return out;
  }

  /// Per-position q-errors over each block's best-position array — the
  /// leaf order Orca's estimates were copied into (Section 4.2.2), so a
  /// drifted position points straight at the misestimated input.
  void AppendQErrorSection(std::string* out) {
    std::vector<std::pair<std::string, const BlockPlan*>> blocks;
    blocks.emplace_back("main", query_->root.get());
    for (size_t i = 0; i < query_->root->union_arms.size(); ++i) {
      blocks.emplace_back("union arm #" + std::to_string(i + 1),
                          query_->root->union_arms[i].get());
    }
    for (size_t i = 0; i < query_->subplans.size(); ++i) {
      blocks.emplace_back("subquery #" + std::to_string(i + 1),
                          query_->subplans[i]->plan.get());
    }
    double worst = 1.0;
    for (const auto& [label, plan] : blocks) {
      if (plan == nullptr) continue;
      std::vector<PositionQError> qs =
          CollectPositionQErrors(*plan, *actuals_);
      if (qs.empty()) continue;
      *out += "q-error by position (" + label + "):\n";
      for (const PositionQError& q : qs) {
        char buf[160];
        std::snprintf(buf, sizeof(buf),
                      "  pos %d: %s est=%.0f actual=%.1f q-error=%.2f\n",
                      q.position, q.alias.c_str(), q.est_rows, q.actual_rows,
                      q.q_error);
        *out += buf;
        worst = std::max(worst, q.q_error);
      }
    }
    char buf[64];
    std::snprintf(buf, sizeof(buf), "max q-error: %.2f\n", worst);
    *out += buf;
  }

  void Line(int indent, const std::string& text, std::string* out) {
    out->append(static_cast<size_t>(indent) * 4, ' ');
    out->append("-> ");
    out->append(text);
    out->push_back('\n');
  }

  /// Name of the outer table a correlated derived table rebinds on.
  std::string InvalidationSource(const BlockPlan& derived) {
    std::vector<bool> used(static_cast<size_t>(query_->num_refs), false);
    const QueryBlock* b = derived.block;
    if (b->where) CollectReferencedRefs(*b->where, &used);
    for (const auto& item : b->select_items) {
      CollectReferencedRefs(*item.expr, &used);
    }
    if (b->having) CollectReferencedRefs(*b->having, &used);
    // Any used leaf not owned by the derived block is the binding source.
    std::vector<bool> owned(used.size(), false);
    std::vector<const QueryBlock*> blocks{b};
    while (!blocks.empty()) {
      const QueryBlock* blk = blocks.back();
      blocks.pop_back();
      for (const TableRef* leaf : blk->Leaves()) {
        if (leaf->ref_id >= 0 &&
            static_cast<size_t>(leaf->ref_id) < owned.size()) {
          owned[static_cast<size_t>(leaf->ref_id)] = true;
        }
        if (leaf->kind == TableRef::Kind::kDerived) {
          blocks.push_back(leaf->derived.get());
        }
      }
    }
    for (size_t r = 0; r < used.size(); ++r) {
      if (used[r] && !owned[r]) {
        auto it = leaf_by_ref_.find(static_cast<int>(r));
        if (it != leaf_by_ref_.end()) return it->second->alias;
      }
    }
    return "outer";
  }

  void RenderOp(const PhysOp& op, int indent, std::string* out) {
    switch (op.kind) {
      case PhysOp::Kind::kFilter:
        Line(indent, "Filter: " + CondsToString(op.conds) +
                         Annot(op),
             out);
        RenderOp(*op.child, indent + 1, out);
        return;
      case PhysOp::Kind::kNLJoin: {
        std::string name = "Nested loop ";
        switch (op.join_type) {
          case JoinType::kInner:
          case JoinType::kCross:
            name += "inner join";
            break;
          case JoinType::kLeft:
            name += "left join";
            break;
          case JoinType::kSemi:
            name += "semijoin";
            break;
          case JoinType::kAntiSemi:
            name += "antijoin";
            break;
        }
        if (!op.conds.empty()) name += " on " + CondsToString(op.conds);
        Line(indent, name + Annot(op), out);
        RenderOp(*op.child, indent + 1, out);
        RenderOp(*op.right, indent + 1, out);
        return;
      }
      case PhysOp::Kind::kHashJoin: {
        std::string name;
        switch (op.join_type) {
          case JoinType::kInner:
          case JoinType::kCross:
            name = "Inner hash join";
            break;
          case JoinType::kLeft:
            name = "Left hash join";
            break;
          case JoinType::kSemi:
            name = "Hash semijoin";
            break;
          case JoinType::kAntiSemi:
            name = "Hash antijoin";
            break;
        }
        std::string keys;
        for (size_t i = 0; i < op.hash_keys.size(); ++i) {
          if (i) keys += ", ";
          keys += op.hash_keys[i].first->ToString() + " = " +
                  op.hash_keys[i].second->ToString();
        }
        if (!keys.empty()) name += " (" + keys + ")";
        Line(indent, name + Annot(op), out);
        RenderOp(*op.child, indent + 1, out);
        RenderOp(*op.right, indent + 1, out);
        return;
      }
      case PhysOp::Kind::kTableScan: {
        std::string text = "Table scan on " + op.leaf->alias;
        if (!op.filters.empty()) {
          Line(indent,
               "Filter: " + CondsToString(op.filters) +
                   Annot(op),
               out);
          Line(indent + 1, text + Annot(op), out);
        } else {
          Line(indent, text + Annot(op), out);
        }
        return;
      }
      case PhysOp::Kind::kIndexRange: {
        std::string idx =
            op.index_id >= 0
                ? op.leaf->table->indexes[static_cast<size_t>(op.index_id)]
                      .name
                : "?";
        std::string text =
            "Index range scan on " + op.leaf->alias + " using " + idx;
        if (!op.filters.empty()) {
          text += ", with filter: " + CondsToString(op.filters);
        }
        Line(indent, text + Annot(op), out);
        return;
      }
      case PhysOp::Kind::kIndexLookup: {
        std::string idx =
            op.index_id >= 0
                ? op.leaf->table->indexes[static_cast<size_t>(op.index_id)]
                      .name
                : "?";
        const IndexDef& def =
            op.leaf->table->indexes[static_cast<size_t>(op.index_id)];
        std::string keys;
        for (size_t i = 0; i < op.lookup_keys.size(); ++i) {
          if (i) keys += ", ";
          keys += op.leaf->table
                      ->columns[static_cast<size_t>(def.column_idx[i])]
                      .name +
                  "=" + op.lookup_keys[i]->ToString();
        }
        std::string text = "Index lookup on " + op.leaf->alias + " using " +
                           idx + " (" + keys + ")";
        if (!op.filters.empty()) {
          text += ", with filter: " + CondsToString(op.filters);
        }
        Line(indent, text + Annot(op), out);
        return;
      }
      case PhysOp::Kind::kDerivedScan: {
        std::string text = "Table scan on " + op.leaf->alias;
        if (!op.filters.empty()) {
          Line(indent,
               "Filter: " + CondsToString(op.filters) +
                   Annot(op),
               out);
          ++indent;
        }
        Line(indent, text + Annot(op), out);
        std::string mat = "Materialize";
        if (op.invalidate_on_rebind) {
          mat += " (invalidate on row from " +
                 InvalidationSource(*op.derived_plan) + ")";
        }
        Line(indent + 1, mat, out);
        RenderBlock(*op.derived_plan, indent + 2, out);
        return;
      }
    }
  }

  void RenderBlock(const BlockPlan& plan, int indent, std::string* out) {
    if (plan.limit >= 0) {
      Line(indent, "Limit: " + std::to_string(plan.limit) + " row(s)", out);
      ++indent;
    }
    if (!plan.order_keys.empty()) {
      std::string keys;
      for (size_t i = 0; i < plan.order_keys.size(); ++i) {
        if (i) keys += ", ";
        keys += plan.order_keys[i].first->ToString();
        if (!plan.order_keys[i].second) keys += " DESC";
      }
      if (plan.order_satisfied) {
        Line(indent, "Sort elided (index provides order): " + keys, out);
      } else {
        Line(indent, "Sort: " + keys, out);
      }
      ++indent;
    }
    if (plan.having != nullptr) {
      Line(indent, "Filter: " + plan.having->ToString(), out);
      ++indent;
    }
    if (plan.agg_mode != AggMode::kNone) {
      std::string aggs;
      for (size_t i = 0; i < plan.agg_exprs.size(); ++i) {
        if (i) aggs += ", ";
        aggs += plan.agg_exprs[i]->ToString();
      }
      std::string mode = plan.agg_mode == AggMode::kStream
                             ? "Stream aggregate: "
                             : "Aggregate: ";
      Line(indent, mode + aggs + BlockAnnot(plan), out);
      ++indent;
    }
    if (plan.join_root != nullptr) {
      // Parallelism marker: the refinement verdict for the block's driving
      // pipeline (actual degree used is a runtime property, surfaced in
      // QueryResult::parallel_workers_used).
      if (plan.parallel_eligible) {
        Line(indent, "Parallel pipeline (morsel-driven eligible)", out);
      } else {
        Line(indent, "Serial pipeline (" + plan.serial_reason + ")", out);
      }
      // Vectorization marker: whether the driving chain runs batch-at-a-time
      // (partial segments may still batch behind adapters when ineligible).
      if (plan.batch_eligible) {
        Line(indent, "Batch pipeline (vectorized eligible)", out);
      } else {
        Line(indent, "Row pipeline (" + plan.batch_serial_reason + ")", out);
      }
      RenderOp(*plan.join_root, indent + 1, out);
    } else {
      Line(indent, "Rows fetched before execution", out);
    }
    for (const auto& arm : plan.union_arms) {
      Line(indent, "Union arm", out);
      RenderBlock(*arm, indent + 1, out);
    }
  }

  const CompiledQuery* query_;
  const QueryEvent* event_;
  const OpActualsMap* actuals_;
  std::map<int, const TableRef*> leaf_by_ref_;
};

std::string JsonEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out.push_back(c);
        }
    }
  }
  return out;
}

/// Machine-readable EXPLAIN ANALYZE tree. Node fields carry aliases and
/// operator kinds only (no expression strings), so the output stays
/// schema-stable and trivially escapable.
class AnalyzeJsonWriter {
 public:
  AnalyzeJsonWriter(const CompiledQuery& query, const QueryEvent& event,
                    const OpActualsMap& actuals)
      : query_(&query), event_(&event), actuals_(&actuals) {}

  std::string Write() {
    std::string out = "{";
    char buf[160];
    std::snprintf(buf, sizeof(buf),
                  "\"explain_analyze\": true, \"used_orca\": %s, "
                  "\"execute_ms\": %.6f, \"rows_returned\": %lld",
                  event_->used_orca ? "true" : "false", event_->execute_ms,
                  static_cast<long long>(event_->rows_returned));
    out += buf;
    out += ", \"plan\": ";
    WriteBlock(*query_->root, &out);
    out += ", \"subqueries\": [";
    for (size_t i = 0; i < query_->subplans.size(); ++i) {
      if (i) out += ", ";
      WriteBlock(*query_->subplans[i]->plan, &out);
    }
    out += "]";
    AppendQErrors(&out);
    out += "}";
    return out;
  }

 private:
  /// Appends the shared actual-execution fields for one plan node.
  void AppendActuals(const void* node, double est_rows, std::string* out) {
    const OpActual* a = actuals_->Find(node);
    char buf[160];
    if (a == nullptr || a->loops <= 0) {
      *out += ", \"actual_rows\": 0, \"loops\": 0, \"time_ms\": 0.0, "
              "\"q_error\": null";
      return;
    }
    const double per_loop =
        static_cast<double>(a->rows) /
        static_cast<double>(std::max<int64_t>(a->loops, 1));
    std::snprintf(buf, sizeof(buf),
                  ", \"actual_rows\": %lld, \"loops\": %lld, "
                  "\"time_ms\": %.6f, \"q_error\": %.4f",
                  static_cast<long long>(a->rows),
                  static_cast<long long>(a->loops), a->time_ms,
                  QError(est_rows, per_loop));
    *out += buf;
  }

  void WriteOp(const PhysOp& op, std::string* out) {
    char buf[96];
    *out += "{\"op\": \"";
    *out += PhysOpKindName(op.kind);
    *out += "\"";
    if (op.leaf != nullptr) {
      *out += ", \"alias\": \"" + JsonEscape(op.leaf->alias) + "\"";
    }
    std::snprintf(buf, sizeof(buf), ", \"est_rows\": %.4f, \"est_cost\": %.4f",
                  op.est_rows, op.est_cost);
    *out += buf;
    *out += ", \"batch_native\": ";
    *out += op.batch_native ? "true" : "false";
    if (!op.batch_native) {
      *out += ", \"batch_reason\": \"" + JsonEscape(op.batch_serial_reason) +
              "\"";
    }
    AppendActuals(&op, op.est_rows, out);
    *out += ", \"children\": [";
    bool first = true;
    auto child = [&](const PhysOp* c) {
      if (c == nullptr) return;
      if (!first) *out += ", ";
      first = false;
      WriteOp(*c, out);
    };
    child(op.child.get());
    child(op.right.get());
    *out += "]";
    if (op.kind == PhysOp::Kind::kDerivedScan && op.derived_plan != nullptr) {
      *out += ", \"derived\": ";
      WriteBlock(*op.derived_plan, out);
    }
    *out += "}";
  }

  void WriteBlock(const BlockPlan& plan, std::string* out) {
    char buf[96];
    *out += "{\"node\": \"block\"";
    std::snprintf(buf, sizeof(buf), ", \"est_rows\": %.4f, \"est_cost\": %.4f",
                  plan.est_rows, plan.est_cost);
    *out += buf;
    *out += ", \"batch_eligible\": ";
    *out += plan.batch_eligible ? "true" : "false";
    if (!plan.batch_eligible) {
      *out += ", \"batch_serial_reason\": \"" +
              JsonEscape(plan.batch_serial_reason) + "\"";
    }
    AppendActuals(&plan, plan.est_rows, out);
    *out += ", \"pipeline\": ";
    if (plan.join_root != nullptr) {
      WriteOp(*plan.join_root, out);
    } else {
      *out += "null";
    }
    *out += ", \"union_arms\": [";
    for (size_t i = 0; i < plan.union_arms.size(); ++i) {
      if (i) *out += ", ";
      WriteBlock(*plan.union_arms[i], out);
    }
    *out += "]}";
  }

  void AppendQErrors(std::string* out) {
    std::vector<const BlockPlan*> blocks{query_->root.get()};
    for (const auto& arm : query_->root->union_arms) blocks.push_back(arm.get());
    for (const auto& sub : query_->subplans) blocks.push_back(sub->plan.get());
    *out += ", \"q_errors\": [";
    double worst = 1.0;
    bool first = true;
    for (const BlockPlan* plan : blocks) {
      if (plan == nullptr) continue;
      for (const PositionQError& q :
           CollectPositionQErrors(*plan, *actuals_)) {
        if (!first) *out += ", ";
        first = false;
        char buf[192];
        std::snprintf(buf, sizeof(buf),
                      "{\"position\": %d, \"alias\": \"%s\", "
                      "\"est_rows\": %.4f, \"actual_rows\": %.4f, "
                      "\"q_error\": %.4f}",
                      q.position, JsonEscape(q.alias).c_str(), q.est_rows,
                      q.actual_rows, q.q_error);
        *out += buf;
        worst = std::max(worst, q.q_error);
      }
    }
    char buf[64];
    std::snprintf(buf, sizeof(buf), "], \"max_q_error\": %.4f", worst);
    *out += buf;
  }

  const CompiledQuery* query_;
  const QueryEvent* event_;
  const OpActualsMap* actuals_;
};

}  // namespace

Result<std::string> RenderExplain(const CompiledQuery& query,
                                  const QueryEvent& event) {
  if (query.root == nullptr) {
    return Status::InvalidArgument("query was not compiled");
  }
  return ExplainRenderer(query, event, nullptr).Render();
}

Result<std::string> RenderExplainAnalyze(const CompiledQuery& query,
                                         const QueryEvent& event,
                                         const OpActualsMap& actuals) {
  if (query.root == nullptr) {
    return Status::InvalidArgument("query was not compiled");
  }
  return ExplainRenderer(query, event, &actuals).Render();
}

Result<std::string> ExplainAnalyzeJson(const CompiledQuery& query,
                                       const QueryEvent& event,
                                       const OpActualsMap& actuals) {
  if (query.root == nullptr) {
    return Status::InvalidArgument("query was not compiled");
  }
  return AnalyzeJsonWriter(query, event, actuals).Write();
}

}  // namespace taurus
