#ifndef TAURUS_VERIFY_BLOCK_VERIFIER_H_
#define TAURUS_VERIFY_BLOCK_VERIFIER_H_

#include "exec/exec_context.h"
#include "exec/physical_plan.h"
#include "verify/diagnostics.h"

namespace taurus {

/// BlockPlanVerifier — static checks on the refined, executable plan (the
/// output of `RefinePlan`), recursing into derived plans, subplans and
/// UNION arms. Rules (DESIGN.md section 9):
///   B001  operator shape: joins have both children, filters have a child
///         and a condition, index access carries a valid index and lookup
///         keys, derived scans point at a materialization plan
///   B002  parallel-eligibility consistency: the eligible flag and
///         AnalyzeParallelSafety's stated serial reason agree — an eligible
///         pipeline has an empty reason, a table-scan driver and no
///         semi/anti join or expression subquery on the driving path; a
///         serial pipeline states one of the analyzer's known reasons
///   B003  expression reference closure: every column ref evaluated by the
///         plan resolves to a live leaf and a valid column (no dangling
///         column ids survive refinement)
///   B005  no silent downgrade: every base leaf executes the access method
///         its skeleton prescribed (refinement's scan fallback stays as a
///         safety net, but taking it is a violation)
void VerifyBlockPlan(const CompiledQuery& query, VerifyReport* report);

/// B004 — budget hooks present: when the engine's resource budget governs
/// execution, an Orca-detour plan must run under an armed ExecContext (row
/// cap or deadline); a MySQL-path plan must not be budgeted.
void VerifyExecBudgetArming(bool used_orca, bool budget_governs_exec,
                            const ExecContext& ctx, VerifyReport* report);

/// Number of rules VerifyBlockPlan evaluates (for rules_checked).
inline constexpr int kNumBlockRules = 4;

}  // namespace taurus

#endif  // TAURUS_VERIFY_BLOCK_VERIFIER_H_
