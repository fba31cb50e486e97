#include "obs/estimate_feedback.h"

#include <algorithm>
#include <vector>

namespace taurus {

double QError(double est_rows, double actual_rows) {
  double est = std::max(est_rows, 1.0);
  double act = std::max(actual_rows, 1.0);
  return std::max(est / act, act / est);
}

std::vector<PositionQError> CollectPositionQErrors(
    const BlockPlan& plan, const OpActualsMap& actuals) {
  std::vector<PositionQError> out;
  if (plan.join_root == nullptr) return out;
  std::vector<const PhysOp*> leaves;
  plan.join_root->CollectLeaves(&leaves);
  for (size_t i = 0; i < leaves.size(); ++i) {
    const PhysOp* leaf = leaves[i];
    const OpActual* a = actuals.Find(leaf);
    if (a == nullptr || a->loops <= 0) continue;
    PositionQError pq;
    pq.position = static_cast<int>(i);
    if (leaf->leaf != nullptr) pq.alias = leaf->leaf->alias;
    pq.est_rows = leaf->est_rows;
    pq.actual_rows = static_cast<double>(a->rows) /
                     static_cast<double>(std::max<int64_t>(a->loops, 1));
    pq.q_error = QError(pq.est_rows, pq.actual_rows);
    out.push_back(std::move(pq));
  }
  return out;
}

}  // namespace taurus
