#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "common/fault_injector.h"
#include "engine/database.h"
#include "workloads/tpch.h"

namespace taurus {
namespace {

void SortRows(std::vector<Row>* rows) {
  std::sort(rows->begin(), rows->end(), [](const Row& a, const Row& b) {
    for (size_t i = 0; i < a.size(); ++i) {
      int c = Value::Compare(a[i], b[i]);
      if (c != 0) return c < 0;
    }
    return false;
  });
}

std::string RowsText(std::vector<Row> rows) {
  SortRows(&rows);
  std::string out;
  for (const Row& r : rows) out += RowToString(r) + "\n";
  return out;
}

/// TPC-H at a tiny scale with the routing threshold lowered so every join
/// query takes the Orca detour on the auto route. Each test starts from a
/// clean engine: no armed faults, default budgets, empty quarantine and
/// plan cache, zeroed health counters.
class FaultInjectionTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    db_ = new Database();
    ASSERT_TRUE(SetupTpch(db_, 0.001).ok());
  }
  static void TearDownTestSuite() {
    delete db_;
    db_ = nullptr;
  }

  void SetUp() override { ResetEngine(); }
  void TearDown() override { FaultInjector::Instance().DisarmAll(); }

  static void ResetEngine() {
    FaultInjector::Instance().DisarmAll();
    db_->resource_budget() = ResourceBudgetConfig();
    db_->quarantine_config() = QuarantineConfig();
    db_->ClearQuarantine();
    for (const char* name :
         {"detours_attempted", "detours_failed", "fallbacks", "budget_kills",
          "exec_budget_kills", "quarantine_hits"}) {
      db_->metrics().GetCounter(std::string("taurus.health.") + name)->Reset();
    }
    db_->plan_cache_config() = PlanCacheConfig();
    db_->plan_cache().Clear();
    db_->router_config() = RouterConfig();
    db_->router_config().complex_query_threshold = 1;
    db_->trace_config() = TraceConfig();
  }

  /// The registry's taurus.health.<name> fault-containment counter.
  static int64_t Health(const char* name) {
    return db_->metrics().GetCounter(std::string("taurus.health.") + name)
        ->Value();
  }

  static std::string Q(int n) { return TpchQueries()[static_cast<size_t>(n - 1)]; }

  static Database* db_;
};

Database* FaultInjectionTest::db_ = nullptr;

// ---------------------------------------------------------------------------
// (a) Every named fault point, tripped on the auto route, must produce a
// successful query whose rows match the MySQL-path baseline.
// ---------------------------------------------------------------------------

TEST_F(FaultInjectionTest, EveryFaultPointFallsBackCleanlyOnAutoRoute) {
  struct PointCase {
    const char* point;
    int query;             // TPC-H query number
    bool expect_fallback;  // freeze failure only makes the plan uncacheable
  };
  const PointCase kCases[] = {
      {"bridge.decorrelate", 17, true},
      {"bridge.parse_tree_convert", 3, true},
      {"mdp.relation_lookup", 3, true},
      {"orca.memo_explore", 3, true},
      {"bridge.plan_convert", 3, true},
      {"plan_cache.freeze", 3, false},
      {"myopt.refine", 3, true},
  };
  FaultInjector& injector = FaultInjector::Instance();
  for (const PointCase& c : kCases) {
    SCOPED_TRACE(c.point);
    ResetEngine();
    const std::string sql = Q(c.query);

    auto baseline = db_->Query(sql, OptimizerPath::kMySql);
    ASSERT_TRUE(baseline.ok()) << baseline.status().ToString();

    // count=1: the single firing lands on the detour; the fallback's own
    // traversal of the same point (e.g. refine, freeze) must succeed.
    injector.ArmCount(c.point, 1);
    auto res = db_->Query(sql, OptimizerPath::kAuto);
    ASSERT_TRUE(res.ok()) << res.status().ToString();
    EXPECT_EQ(injector.trips(c.point), 1) << "fault point never reached";
    EXPECT_EQ(RowsText(res->rows), RowsText(baseline->rows));
    EXPECT_EQ(res->fell_back, c.expect_fallback);
    if (c.expect_fallback) {
      EXPECT_FALSE(res->used_orca);
      EXPECT_NE(res->fallback_reason.find("injected fault"), std::string::npos)
          << res->fallback_reason;
      EXPECT_EQ(Health("detours_failed"), 1);
      EXPECT_EQ(Health("fallbacks"), 1);
    } else {
      // Freeze failed after a successful detour: the plan simply is not
      // cached, the query still runs on the Orca plan.
      EXPECT_TRUE(res->used_orca);
    }
    injector.Disarm(c.point);
  }
}

TEST_F(FaultInjectionTest, ThawFaultFallsBackToFreshCompile) {
  const std::string sql = Q(3);
  auto cold = db_->Query(sql, OptimizerPath::kAuto);
  ASSERT_TRUE(cold.ok());
  ASSERT_TRUE(cold->used_orca);
  auto warm = db_->Query(sql, OptimizerPath::kAuto);
  ASSERT_TRUE(warm.ok());
  ASSERT_TRUE(warm->plan_cache_hit);

  FaultInjector::Instance().ArmCount("plan_cache.thaw", 1);
  auto res = db_->Query(sql, OptimizerPath::kAuto);
  ASSERT_TRUE(res.ok()) << res.status().ToString();
  EXPECT_EQ(FaultInjector::Instance().trips("plan_cache.thaw"), 1);
  EXPECT_FALSE(res->plan_cache_hit);  // recompiled with the cache bypassed
  EXPECT_TRUE(res->used_orca);
  EXPECT_EQ(RowsText(res->rows), RowsText(cold->rows));
}

TEST_F(FaultInjectionTest, ExplainMarksFallback) {
  db_->plan_cache_config().enable = false;
  FaultInjector::Instance().ArmCount("bridge.parse_tree_convert", 1);
  auto text = db_->Explain(Q(3), OptimizerPath::kAuto);
  ASSERT_TRUE(text.ok());
  EXPECT_NE(text->find("orca detour fell back"), std::string::npos) << *text;
}

// ---------------------------------------------------------------------------
// (b) Forced-Orca surfaces the injected error instead of falling back.
// ---------------------------------------------------------------------------

TEST_F(FaultInjectionTest, ForcedOrcaSurfacesInjectedErrors) {
  const char* kDetourPoints[] = {
      "bridge.decorrelate",  "bridge.parse_tree_convert",
      "mdp.relation_lookup", "orca.memo_explore",
      "bridge.plan_convert", "myopt.refine",
  };
  for (const char* point : kDetourPoints) {
    SCOPED_TRACE(point);
    ResetEngine();
    FaultInjector::Instance().ArmCount(point, 1);
    auto res = db_->Query(Q(3), OptimizerPath::kOrca);
    ASSERT_FALSE(res.ok());
    EXPECT_EQ(res.status().code(), StatusCode::kInternal);
    EXPECT_NE(res.status().message().find("injected fault"),
              std::string::npos);
    FaultInjector::Instance().Disarm(point);
  }
}

TEST_F(FaultInjectionTest, ProbabilityModeIsSeededAndDeterministic) {
  FaultInjector& injector = FaultInjector::Instance();
  auto run_sequence = [&]() {
    injector.ArmProbability("bridge.parse_tree_convert", 0.5, 42);
    std::string outcomes;
    for (int i = 0; i < 16; ++i) {
      outcomes +=
          CheckFaultPoint("bridge.parse_tree_convert").ok() ? '.' : 'X';
    }
    injector.Disarm("bridge.parse_tree_convert");
    return outcomes;
  };
  std::string first = run_sequence();
  EXPECT_NE(first.find('X'), std::string::npos);
  EXPECT_NE(first.find('.'), std::string::npos);
  EXPECT_EQ(first, run_sequence());  // same seed, same decision stream
}

// ---------------------------------------------------------------------------
// (c) Quarantine: N detour failures park the statement on the MySQL path
// until a stats/schema version bump (ANALYZE / DDL).
// ---------------------------------------------------------------------------

TEST_F(FaultInjectionTest, QuarantineEngagesAfterNFailuresAndClearsOnAnalyze) {
  db_->plan_cache_config().enable = false;  // observe every compile
  const int threshold = db_->quarantine_config().failure_threshold;
  ASSERT_EQ(threshold, 3);
  const std::string sql = Q(3);

  auto baseline = db_->Query(sql, OptimizerPath::kMySql);
  ASSERT_TRUE(baseline.ok());

  FaultInjector::Instance().ArmCount("bridge.parse_tree_convert", 1000000);
  for (int i = 0; i < threshold; ++i) {
    auto res = db_->Query(sql, OptimizerPath::kAuto);
    ASSERT_TRUE(res.ok()) << res.status().ToString();
    EXPECT_TRUE(res->fell_back);
    EXPECT_EQ(RowsText(res->rows), RowsText(baseline->rows));
  }
  EXPECT_EQ(Health("detours_attempted"), threshold);

  // Threshold reached: the detour is skipped without being attempted.
  auto skipped = db_->Query(sql, OptimizerPath::kAuto);
  ASSERT_TRUE(skipped.ok());
  EXPECT_TRUE(skipped->quarantine_hit);
  EXPECT_FALSE(skipped->fell_back);
  EXPECT_FALSE(skipped->used_orca);
  EXPECT_EQ(Health("detours_attempted"), threshold);
  EXPECT_EQ(Health("quarantine_hits"), 1);
  EXPECT_EQ(RowsText(skipped->rows), RowsText(baseline->rows));

  auto text = db_->Explain(sql, OptimizerPath::kAuto);
  ASSERT_TRUE(text.ok());
  EXPECT_NE(text->find("orca detour quarantined"), std::string::npos);

  // Still quarantined even after the fault is gone...
  FaultInjector::Instance().DisarmAll();
  auto still = db_->Query(sql, OptimizerPath::kAuto);
  ASSERT_TRUE(still.ok());
  EXPECT_TRUE(still->quarantine_hit);

  // ...until ANALYZE moves the stats version.
  ASSERT_TRUE(db_->Analyze("lineitem").ok());
  auto healed = db_->Query(sql, OptimizerPath::kAuto);
  ASSERT_TRUE(healed.ok());
  EXPECT_FALSE(healed->quarantine_hit);
  EXPECT_TRUE(healed->used_orca);
  EXPECT_EQ(RowsText(healed->rows), RowsText(baseline->rows));
}

TEST_F(FaultInjectionTest, FallbackCompilesAreCached) {
  // The clean re-parse fallback makes fallback compiles cacheable: the
  // second execution must hit the cache and stay on the MySQL-path plan.
  const std::string sql = Q(3);
  auto baseline = db_->Query(sql, OptimizerPath::kMySql);
  ASSERT_TRUE(baseline.ok());

  FaultInjector::Instance().ArmCount("bridge.parse_tree_convert", 1);
  auto cold = db_->Query(sql, OptimizerPath::kAuto);
  ASSERT_TRUE(cold.ok());
  ASSERT_TRUE(cold->fell_back);

  FaultInjector::Instance().DisarmAll();
  auto warm = db_->Query(sql, OptimizerPath::kAuto);
  ASSERT_TRUE(warm.ok());
  EXPECT_TRUE(warm->plan_cache_hit);
  EXPECT_FALSE(warm->used_orca);  // served the cached fallback plan
  EXPECT_EQ(RowsText(warm->rows), RowsText(baseline->rows));
}

// ---------------------------------------------------------------------------
// Resource governor: budget violations abort Orca mid-search and fall back.
// ---------------------------------------------------------------------------

TEST_F(FaultInjectionTest, MemoGroupBudgetAbortsSearchAndFallsBack) {
  const std::string sql = Q(5);  // 6-way join: plenty of memo groups
  auto baseline = db_->Query(sql, OptimizerPath::kMySql);
  ASSERT_TRUE(baseline.ok());

  db_->resource_budget().max_memo_groups = 2;
  auto res = db_->Query(sql, OptimizerPath::kAuto);
  ASSERT_TRUE(res.ok()) << res.status().ToString();
  EXPECT_TRUE(res->fell_back);
  EXPECT_FALSE(res->used_orca);
  EXPECT_NE(res->fallback_reason.find("memo group budget"), std::string::npos)
      << res->fallback_reason;
  // The status payload names the originating subsystem and the limit.
  EXPECT_NE(res->fallback_reason.find("[orca.governor/max_memo_groups]"),
            std::string::npos)
      << res->fallback_reason;
  EXPECT_EQ(Health("budget_kills"), 1);
  EXPECT_EQ(RowsText(res->rows), RowsText(baseline->rows));

  auto forced = db_->Query(sql, OptimizerPath::kOrca);
  ASSERT_FALSE(forced.ok());
  EXPECT_EQ(forced.status().code(), StatusCode::kResourceExhausted);
}

TEST_F(FaultInjectionTest, PartitionPairBudgetAbortsSearchAndFallsBack) {
  const std::string sql = Q(5);
  auto baseline = db_->Query(sql, OptimizerPath::kMySql);
  ASSERT_TRUE(baseline.ok());

  db_->resource_budget().max_partition_pairs = 1;
  auto res = db_->Query(sql, OptimizerPath::kAuto);
  ASSERT_TRUE(res.ok()) << res.status().ToString();
  EXPECT_TRUE(res->fell_back);
  EXPECT_NE(res->fallback_reason.find("partition pair budget"),
            std::string::npos);
  EXPECT_NE(res->fallback_reason.find("[orca.governor/max_partition_pairs]"),
            std::string::npos)
      << res->fallback_reason;
  EXPECT_EQ(Health("budget_kills"), 1);
  EXPECT_EQ(RowsText(res->rows), RowsText(baseline->rows));
}

TEST_F(FaultInjectionTest, OptimizeDeadlineWithInjectedClock) {
  const std::string sql = Q(5);
  auto baseline = db_->Query(sql, OptimizerPath::kMySql);
  ASSERT_TRUE(baseline.ok());

  // Fake clock: jumps 100 ms per reading, so the 50 ms deadline trips on
  // the first check after the governor stamps its start time.
  auto ticks = std::make_shared<double>(0.0);
  db_->resource_budget().clock_ms = [ticks]() { return *ticks += 100.0; };
  db_->resource_budget().optimize_deadline_ms = 50.0;

  auto res = db_->Query(sql, OptimizerPath::kAuto);
  ASSERT_TRUE(res.ok()) << res.status().ToString();
  EXPECT_TRUE(res->fell_back);
  EXPECT_NE(res->fallback_reason.find("deadline"), std::string::npos);
  EXPECT_NE(res->fallback_reason.find("[orca.governor/optimize_deadline_ms]"),
            std::string::npos)
      << res->fallback_reason;
  EXPECT_EQ(Health("budget_kills"), 1);
  EXPECT_EQ(RowsText(res->rows), RowsText(baseline->rows));

  auto forced = db_->Query(sql, OptimizerPath::kOrca);
  ASSERT_FALSE(forced.ok());
  EXPECT_EQ(forced.status().code(), StatusCode::kResourceExhausted);
}

// ---------------------------------------------------------------------------
// Executor budget: an Orca plan killed mid-execution on the auto route is
// transparently re-run through the MySQL path.
// ---------------------------------------------------------------------------

TEST_F(FaultInjectionTest, ExecRowBudgetKillsOrcaPlanAndReRunsViaMySql) {
  db_->plan_cache_config().enable = false;
  const std::string sql = Q(3);
  auto baseline = db_->Query(sql, OptimizerPath::kMySql);
  ASSERT_TRUE(baseline.ok());
  ASSERT_GT(baseline->rows_scanned, 5);  // MySQL path runs unbudgeted

  db_->resource_budget().max_exec_rows = 5;
  auto res = db_->Query(sql, OptimizerPath::kAuto);
  ASSERT_TRUE(res.ok()) << res.status().ToString();
  EXPECT_TRUE(res->fell_back);
  EXPECT_FALSE(res->used_orca);
  EXPECT_NE(res->fallback_reason.find("row budget"), std::string::npos);
  EXPECT_NE(res->fallback_reason.find("[exec.budget/max_exec_rows]"),
            std::string::npos)
      << res->fallback_reason;
  EXPECT_EQ(Health("exec_budget_kills"), 1);
  EXPECT_EQ(RowsText(res->rows), RowsText(baseline->rows));

  auto forced = db_->Query(sql, OptimizerPath::kOrca);
  ASSERT_FALSE(forced.ok());
  EXPECT_EQ(forced.status().code(), StatusCode::kResourceExhausted);
}

TEST_F(FaultInjectionTest, ExecDeadlineWithInjectedClock) {
  db_->plan_cache_config().enable = false;
  const std::string sql = Q(3);
  auto baseline = db_->Query(sql, OptimizerPath::kMySql);
  ASSERT_TRUE(baseline.ok());

  auto ticks = std::make_shared<double>(0.0);
  db_->resource_budget().clock_ms = [ticks]() { return *ticks += 50.0; };
  db_->resource_budget().exec_deadline_ms = 10.0;

  auto res = db_->Query(sql, OptimizerPath::kAuto);
  ASSERT_TRUE(res.ok()) << res.status().ToString();
  EXPECT_TRUE(res->fell_back);
  EXPECT_NE(res->fallback_reason.find("deadline"), std::string::npos);
  EXPECT_NE(res->fallback_reason.find("[exec.budget/exec_deadline_ms]"),
            std::string::npos)
      << res->fallback_reason;
  EXPECT_EQ(Health("exec_budget_kills"), 1);
  EXPECT_EQ(RowsText(res->rows), RowsText(baseline->rows));
}

TEST_F(FaultInjectionTest, MySqlPathIsNeverBudgeted) {
  db_->resource_budget().max_exec_rows = 5;
  db_->resource_budget().max_memo_groups = 1;
  auto res = db_->Query(Q(3), OptimizerPath::kMySql);
  ASSERT_TRUE(res.ok()) << res.status().ToString();
  EXPECT_FALSE(res->fell_back);
  EXPECT_GT(res->rows_scanned, 5);
}

// ---------------------------------------------------------------------------
// (h) Pipeline trace under failure: the aborted detour and the quarantine
// skip must be visible in the span tree with their status payloads
// (DESIGN.md section 10).
// ---------------------------------------------------------------------------

TEST_F(FaultInjectionTest, TraceShowsAbortedDetourSpanWithStatusPayload) {
  // The corrupted-flip scenario from the plan-verifier suite: with the
  // inner-hash-join build flip disabled and enforcement on, the skeleton
  // verifier aborts the detour with [verify.skeleton/S004].
  db_->trace_config().enable = true;
  db_->orca_config().flip_inner_hash_build = false;
  db_->verify_config().verify_plans = true;
  db_->verify_config().enforce = true;

  bool found = false;
  for (const std::string& sql : TpchQueries()) {
    auto res = db_->Query(sql, OptimizerPath::kAuto);
    ASSERT_TRUE(res.ok()) << res.status().ToString();
    if (!res->fell_back) continue;
    found = true;

    const Tracer* trace = res->trace.get();
    ASSERT_NE(trace, nullptr);
    const TraceSpan* detour = trace->Find("orca.detour");
    ASSERT_NE(detour, nullptr);
    ASSERT_TRUE(detour->ended);
    const std::string* aborted = detour->FindAttr("aborted");
    ASSERT_NE(aborted, nullptr);
    EXPECT_EQ(*aborted, "true");
    const std::string* status = detour->FindAttr("status");
    ASSERT_NE(status, nullptr);
    EXPECT_NE(status->find("[verify.skeleton/S004]"), std::string::npos)
        << *status;
    // The clean fallback is traced too, carrying the same reason.
    const TraceSpan* reparse = trace->Find("fallback.reparse");
    ASSERT_NE(reparse, nullptr);
    const std::string* reason = reparse->FindAttr("reason");
    ASSERT_NE(reason, nullptr);
    EXPECT_NE(reason->find("S004"), std::string::npos) << *reason;
    break;
  }
  db_->orca_config().flip_inner_hash_build = true;
  db_->verify_config().enforce = false;
  EXPECT_TRUE(found)
      << "no TPC-H detour planned an inner hash join — S004 never fired";
}

TEST_F(FaultInjectionTest, TraceShowsQuarantineRouteDecision) {
  db_->plan_cache_config().enable = false;  // observe every compile
  const std::string sql = Q(3);
  FaultInjector::Instance().ArmCount("bridge.parse_tree_convert", 1000000);
  for (int i = 0; i < db_->quarantine_config().failure_threshold; ++i) {
    ASSERT_TRUE(db_->Query(sql, OptimizerPath::kAuto).ok());
  }
  FaultInjector::Instance().DisarmAll();

  db_->trace_config().enable = true;
  auto res = db_->Query(sql, OptimizerPath::kAuto);
  ASSERT_TRUE(res.ok()) << res.status().ToString();
  ASSERT_TRUE(res->quarantine_hit);

  const Tracer* trace = res->trace.get();
  ASSERT_NE(trace, nullptr);
  const TraceSpan* route = trace->Find("route");
  ASSERT_NE(route, nullptr);
  const std::string* decision = route->FindAttr("decision");
  ASSERT_NE(decision, nullptr);
  EXPECT_EQ(*decision, "quarantine");
  // The quarantined statement never enters the detour.
  EXPECT_EQ(trace->Find("orca.detour"), nullptr);
  const TraceSpan* fp = trace->Find("fingerprint");
  ASSERT_NE(fp, nullptr);
  const std::string* quarantined = fp->FindAttr("quarantined");
  ASSERT_NE(quarantined, nullptr);
  EXPECT_EQ(*quarantined, "true");
}

}  // namespace
}  // namespace taurus
