// Observability tour: runs one TPC-H query through the Orca detour with
// tracing on, then dumps the three observability surfaces this repo has
// (DESIGN.md section 10):
//   1. the per-query pipeline trace (span tree with timings + attributes)
//   2. EXPLAIN ANALYZE — estimates next to actual rows/loops/time + q-error
//   3. the metrics registry as JSON, and the same via SHOW STATUS
//
// Build & run:
//   cmake -B build -G Ninja && cmake --build build
//   ./build/examples/obs_dump
//       [--metrics-only|--explain-json|--digests-json|--recorder-json]
//
// --metrics-only prints only the MetricsJson() document, --explain-json
// only the ExplainAnalyzeJson document, --digests-json the DigestsJson()
// statement-digest table and --recorder-json the FlightRecorderJson()
// recent-query ring (all machine-readable; the obs_json_* ctest entries
// pipe each through scripts/validate_obs_json.py).

#include <cstdio>
#include <cstring>
#include <string>

#include "engine/database.h"
#include "workloads/tpch.h"

namespace {

void Fail(const taurus::Status& st, const char* what) {
  std::fprintf(stderr, "%s failed: %s\n", what, st.ToString().c_str());
  std::exit(1);
}

}  // namespace

int main(int argc, char** argv) {
  bool metrics_only = false;
  bool explain_json = false;
  bool digests_json = false;
  bool recorder_json = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--metrics-only") == 0) metrics_only = true;
    if (std::strcmp(argv[i], "--explain-json") == 0) explain_json = true;
    if (std::strcmp(argv[i], "--digests-json") == 0) digests_json = true;
    if (std::strcmp(argv[i], "--recorder-json") == 0) recorder_json = true;
  }

  taurus::Database db;
  auto st = taurus::SetupTpch(&db, 0.005);
  if (!st.ok()) Fail(st, "tpch setup");
  db.router_config().complex_query_threshold = 1;  // everything detours
  db.trace_config().enable = true;

  // TPC-H Q8 — two-level aggregation over a 7-way join; a good plan tree
  // for watching estimates drift from actuals.
  const std::string q8 = taurus::TpchQueries()[7];

  if (explain_json) {
    auto doc = db.ExplainAnalyzeJsonDump(q8, taurus::OptimizerPath::kOrca);
    if (!doc.ok()) Fail(doc.status(), "explain analyze json");
    std::printf("%s\n", doc->c_str());
    return 0;
  }

  if (digests_json || recorder_json) {
    // A small mixed sweep so both documents are non-trivial: repeated Q8
    // (digest aggregation + cache hits), a simple single-table query (the
    // MySQL path), and one statement that errors (unknown table).
    for (int i = 0; i < 3; ++i) {
      auto r = db.Query(q8, taurus::OptimizerPath::kOrca);
      if (!r.ok()) Fail(r.status(), "digest sweep");
    }
    auto simple = db.Query("select count(*) from region");
    if (!simple.ok()) Fail(simple.status(), "digest sweep simple");
    (void)db.Query("select * from no_such_table");  // recorded as error
    std::printf("%s\n", digests_json ? db.DigestsJson().c_str()
                                     : db.FlightRecorderJson().c_str());
    return 0;
  }

  auto analyze = db.ExplainAnalyze(q8, taurus::OptimizerPath::kOrca);
  if (!analyze.ok()) Fail(analyze.status(), "explain analyze");

  if (!metrics_only) {
    // Each query carries its own trace on the result.
    auto traced = db.Query(q8, taurus::OptimizerPath::kOrca);
    if (!traced.ok()) Fail(traced.status(), "traced query");
    std::printf("=== pipeline trace (Q8, Orca route) ===\n%s\n",
                traced->trace != nullptr ? traced->trace->Render().c_str()
                                         : "(no trace)");
    std::printf("=== EXPLAIN ANALYZE (Q8, Orca route) ===\n%s\n",
                analyze->c_str());

    auto rows = db.Query("SHOW STATUS LIKE 'taurus.health.%'");
    if (!rows.ok()) Fail(rows.status(), "show status");
    std::printf("=== SHOW STATUS LIKE 'taurus.health.%%' ===\n");
    for (const auto& row : rows->rows) {
      std::printf("%-40s %s\n", row[0].ToString().c_str(),
                  row[1].ToString().c_str());
    }
    std::printf("\n=== MetricsJson() ===\n");
  }
  std::printf("%s\n", db.MetricsJson().c_str());
  return 0;
}
