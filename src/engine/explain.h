#ifndef TAURUS_ENGINE_EXPLAIN_H_
#define TAURUS_ENGINE_EXPLAIN_H_

#include <cstdint>
#include <string>

#include "common/result.h"
#include "exec/op_actuals.h"
#include "exec/physical_plan.h"
#include "obs/query_event.h"

namespace taurus {

/// Renders a compiled plan in MySQL's tree EXPLAIN format. Orca-assisted
/// plans are announced on the first line ("EXPLAIN (ORCA)", paper
/// Listing 7), the compile's `event` adds the cache-hit, fallback and
/// verifier lines, cost/row estimates come from whichever optimizer
/// produced the skeleton, and correlated derived-table materialization
/// carries the "(invalidate on row from <table>)" annotation.
Result<std::string> RenderExplain(const CompiledQuery& query,
                                  const QueryEvent& event);

/// EXPLAIN ANALYZE: the tree EXPLAIN with every node additionally
/// annotated with "(actual rows=N loops=N time=T ms)" from the executor's
/// `actuals` and its q-error (max(est/act, act/est), 1-row floors) next to
/// the optimizer's estimates, followed by a per-position q-error section
/// over the block's best-position array (DESIGN.md section 10). `event` is
/// the executed query's event (header lines, rows, execute time).
Result<std::string> RenderExplainAnalyze(const CompiledQuery& query,
                                         const QueryEvent& event,
                                         const OpActualsMap& actuals);

/// Machine-readable EXPLAIN ANALYZE: one JSON object with query-level
/// totals and a recursive plan tree carrying est_rows/est_cost/
/// actual_rows/loops/time_ms/q_error per node.
Result<std::string> ExplainAnalyzeJson(const CompiledQuery& query,
                                       const QueryEvent& event,
                                       const OpActualsMap& actuals);

}  // namespace taurus

#endif  // TAURUS_ENGINE_EXPLAIN_H_
