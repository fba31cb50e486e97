#include "myopt/access_path.h"

#include <algorithm>
#include <utility>

#include "exec/expr_eval.h"

namespace taurus {

namespace {

bool IsColumnOf(const Expr& e, const TableRef& leaf) {
  return e.kind == Expr::Kind::kColumnRef && e.ref_id == leaf.ref_id;
}

int LeadingColumn(const IndexDef& idx) {
  return idx.column_idx.empty() ? -1 : idx.column_idx[0];
}

}  // namespace

std::optional<ColumnBounds> RangeBound(const Expr& conjunct,
                                       const TableRef& leaf) {
  const auto& args = conjunct.children;
  if (conjunct.kind == Expr::Kind::kBetween) {
    if (conjunct.negated || !IsColumnOf(*args[0], leaf) ||
        !IsConstExpr(*args[1]) || !IsConstExpr(*args[2])) {
      return std::nullopt;
    }
    return ColumnBounds{args[0]->column_idx, args[1].get(), args[2].get()};
  }
  if (conjunct.kind != Expr::Kind::kBinary || !IsComparisonOp(conjunct.bop) ||
      conjunct.bop == BinaryOp::kNe) {
    return std::nullopt;
  }
  const Expr* col = args[0].get();
  const Expr* bound = args[1].get();
  BinaryOp op = conjunct.bop;
  if (!IsColumnOf(*col, leaf) || !IsConstExpr(*bound)) {
    std::swap(col, bound);
    op = CommuteComparison(op);
    if (!IsColumnOf(*col, leaf) || !IsConstExpr(*bound)) return std::nullopt;
  }
  ColumnBounds out;
  out.column_idx = col->column_idx;
  if (op == BinaryOp::kEq) {
    out.lo = out.hi = bound;
    out.point = true;
  } else if (op == BinaryOp::kLt || op == BinaryOp::kLe) {
    out.hi = bound;
    out.hi_inclusive = op == BinaryOp::kLe;
  } else {
    out.lo = bound;
    out.lo_inclusive = op == BinaryOp::kGe;
  }
  return out;
}

const Expr* KeyBinding(const Expr& eq, const TableRef& leaf, int column_idx,
                       RefPredicate available) {
  if (eq.kind != Expr::Kind::kBinary || eq.bop != BinaryOp::kEq) {
    return nullptr;
  }
  auto readable = [&](int ref_id) {
    return ref_id != leaf.ref_id && available(ref_id);
  };
  for (int side = 0; side < 2; ++side) {
    const Expr& col = *eq.children[static_cast<size_t>(side)];
    const Expr& other = *eq.children[static_cast<size_t>(1 - side)];
    if (IsColumnOf(col, leaf) && col.column_idx == column_idx &&
        AllReferencedRefs(other, readable)) {
      return &other;
    }
  }
  return nullptr;
}

double IndexProbeCost(const StatsProvider& stats, const CostParams& params,
                      int ref_id, int column_idx, double base_rows) {
  double ndv = stats.NdvOf(ref_id, column_idx, std::max(base_rows, 1.0));
  double match = std::max(base_rows / std::max(ndv, 1.0), 1.0);
  return params.index_descend + match * params.index_row;
}

LeafAccess ChooseLeafAccess(const TableRef& leaf,
                            const std::vector<Expr*>& local_conds,
                            double base_rows, const StatsProvider& stats,
                            const CostParams& params, RefPredicate outer) {
  LeafAccess best{AccessMethod::kTableScan, -1, base_rows * params.seq_row};
  if (leaf.kind != TableRef::Kind::kBase || leaf.table == nullptr) {
    return best;
  }
  const std::vector<IndexDef>& indexes = leaf.table->indexes;
  auto offer = [&](AccessMethod method, size_t index_id, double cost) {
    if (cost < best.cost) best = {method, static_cast<int>(index_id), cost};
  };
  for (const Expr* c : local_conds) {
    std::optional<ColumnBounds> bounds = RangeBound(*c, leaf);
    if (!bounds) continue;
    for (size_t i = 0; i < indexes.size(); ++i) {
      if (LeadingColumn(indexes[i]) != bounds->column_idx) continue;
      offer(AccessMethod::kIndexRange, i,
            params.index_descend +
                stats.ConjunctSelectivity(*c) * base_rows * params.index_row);
    }
  }
  // Correlated "ref" access: an equality binding an index's first key
  // column to a purely outer expression (e.g. TPC-H Q17/Q20's inner
  // blocks). The key is known at Open time, so this is as good as a
  // join-time ref access.
  for (const Expr* c : local_conds) {
    for (size_t i = 0; i < indexes.size(); ++i) {
      int col = LeadingColumn(indexes[i]);
      if (col < 0 || KeyBinding(*c, leaf, col, outer) == nullptr) continue;
      offer(AccessMethod::kIndexLookup, i,
            IndexProbeCost(stats, params, leaf.ref_id, col, base_rows));
    }
  }
  return best;
}

}  // namespace taurus
