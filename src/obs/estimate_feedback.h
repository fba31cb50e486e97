#ifndef TAURUS_OBS_ESTIMATE_FEEDBACK_H_
#define TAURUS_OBS_ESTIMATE_FEEDBACK_H_

#include <string>
#include <vector>

#include "exec/op_actuals.h"
#include "exec/physical_plan.h"

namespace taurus {

/// q-error of a cardinality estimate: max(est/act, act/est), the standard
/// estimate-quality measure (>= 1, 1 = exact). Both sides are floored at
/// one row so empty results don't divide by zero; the floor is part of the
/// documented semantics (DESIGN.md section 10).
double QError(double est_rows, double actual_rows);

/// Estimate drift at one position of a block's best-position array (the
/// pre-order leaf list of the join tree — exactly where the plan converter
/// copies Orca's estimates over, Section 4.2.2).
struct PositionQError {
  int position = 0;
  std::string alias;       ///< leaf alias ("" for non-leaf positions)
  double est_rows = 0.0;
  double actual_rows = 0.0;  ///< per-loop average (rows / max(loops, 1))
  double q_error = 1.0;
};

/// Per-position q-errors for a block's join tree. Leaves that never
/// executed (e.g. behind a short-circuited join) are skipped.
std::vector<PositionQError> CollectPositionQErrors(
    const BlockPlan& plan, const OpActualsMap& actuals);

}  // namespace taurus

#endif  // TAURUS_OBS_ESTIMATE_FEEDBACK_H_
