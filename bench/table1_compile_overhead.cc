// Reproduces Table 1: total query-compilation (EXPLAIN) time for the
// TPC-H and TPC-DS suites under three compilers:
//   MySQL                      (no detour)
//   MySQL + Orca  EXHAUSTIVE
//   MySQL + Orca  EXHAUSTIVE2
// with the complex-query threshold set to 1 so every query detours —
// exactly the paper's Section 6.3 setup.
//
// Expected shape: Orca compilations are significantly slower than MySQL's;
// EXHAUSTIVE2 ~ EXHAUSTIVE on TPC-H; EXHAUSTIVE2 adds noticeable overhead
// on complex TPC-DS queries, concentrated in the CTE-heavy Q14 and Q64.
//
// Usage: table1_compile_overhead [--sf=0.001] [--json]
//   --json writes BENCH_table1_compile_overhead.json for CI trending.

#include <algorithm>
#include <map>

#include "bench_util.h"
#include "workloads/tpcds.h"
#include "workloads/tpch.h"

using namespace taurus_bench;  // NOLINT

namespace {

struct SuiteTotals {
  double mysql = 0;
  double exhaustive = 0;
  double exhaustive2 = 0;
  std::map<int, double> ex_per_query;
  std::map<int, double> ex2_per_query;
};

SuiteTotals CompileSuite(taurus::Database* db,
                         const std::vector<std::string>& queries) {
  SuiteTotals totals;
  db->router_config().complex_query_threshold = 1;  // paper: all detour
  // Warm the metadata-provider cache so the first measured strategy does
  // not absorb all of the one-time DXL round trips.
  db->orca_config().strategy = taurus::JoinSearchStrategy::kGreedy;
  for (const std::string& q : queries) {
    (void)db->Compile(q, taurus::OptimizerPath::kAuto);
  }
  for (size_t i = 0; i < queries.size(); ++i) {
    int q = static_cast<int>(i) + 1;
    taurus::QueryEvent mysql;
    if (db->Compile(queries[i], taurus::OptimizerPath::kMySql, &mysql).ok()) {
      totals.mysql += mysql.optimize_ms;
    }
    db->orca_config().strategy = taurus::JoinSearchStrategy::kExhaustive;
    taurus::QueryEvent ex;
    if (db->Compile(queries[i], taurus::OptimizerPath::kAuto, &ex).ok()) {
      totals.exhaustive += ex.optimize_ms;
      totals.ex_per_query[q] = ex.optimize_ms;
    }
    db->orca_config().strategy = taurus::JoinSearchStrategy::kExhaustive2;
    taurus::QueryEvent ex2;
    if (db->Compile(queries[i], taurus::OptimizerPath::kAuto, &ex2).ok()) {
      totals.exhaustive2 += ex2.optimize_ms;
      totals.ex2_per_query[q] = ex2.optimize_ms;
    }
  }
  return totals;
}

}  // namespace

int main(int argc, char** argv) {
  double sf = ArgScale(argc, argv, 0.001);

  taurus::Database tpch;
  if (!taurus::SetupTpch(&tpch, sf * 2).ok()) return 1;
  taurus::Database tpcds;
  if (!taurus::SetupTpcds(&tpcds, sf).ok()) return 1;

  PrintHeader("Table 1 — Orca query compilation overhead "
              "(total EXPLAIN time, ms)");
  std::printf("complex query threshold = 1 (every query takes the detour)\n\n");

  SuiteTotals h = CompileSuite(&tpch, taurus::TpchQueries());
  SuiteTotals ds = CompileSuite(&tpcds, taurus::TpcdsQueries());

  std::printf("%-28s %10s %10s\n", "Compiler", "TPC-H", "TPC-DS");
  std::printf("%-28s %10.1f %10.1f\n", "MySQL", h.mysql, ds.mysql);
  std::printf("%-28s %10.1f %10.1f\n", "MySQL + Orca-EXHAUSTIVE",
              h.exhaustive, ds.exhaustive);
  std::printf("%-28s %10.1f %10.1f\n", "MySQL + Orca-EXHAUSTIVE2",
              h.exhaustive2, ds.exhaustive2);
  std::printf("\npaper (seconds): MySQL 0.17 / 1.09; +EXHAUSTIVE 2.06 / "
              "48.08; +EXHAUSTIVE2 1.85 / 74.21\n");

  std::printf("\nTPC-DS EXHAUSTIVE2 - EXHAUSTIVE per-query deltas "
              "(largest 5; paper: Q14 +30.0s, Q64 +2.1s dominate):\n");
  std::vector<std::pair<double, int>> deltas;
  for (const auto& [q, t2] : ds.ex2_per_query) {
    auto it = ds.ex_per_query.find(q);
    if (it != ds.ex_per_query.end()) {
      deltas.emplace_back(t2 - it->second, q);
    }
  }
  std::sort(deltas.rbegin(), deltas.rend());
  for (size_t i = 0; i < deltas.size() && i < 5; ++i) {
    std::printf("  Q%-4d %+9.2f ms\n", deltas[i].second, deltas[i].first);
  }

  if (ArgFlag(argc, argv, "--json")) {
    WriteBenchJson("table1_compile_overhead",
                   {{"sf", sf},
                    {"tpch_mysql_ms", h.mysql},
                    {"tpch_exhaustive_ms", h.exhaustive},
                    {"tpch_exhaustive2_ms", h.exhaustive2},
                    {"tpcds_mysql_ms", ds.mysql},
                    {"tpcds_exhaustive_ms", ds.exhaustive},
                    {"tpcds_exhaustive2_ms", ds.exhaustive2}});
  }
  return 0;
}
