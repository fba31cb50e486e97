// Observability subsystem tests (DESIGN.md section 10): the injectable
// clock, the latency histogram, the per-query pipeline tracer (exact span
// trees under a fake clock), the thread-safe metrics registry (exercised
// concurrently for the TSan leg), and the engine integration — MetricsJson,
// SHOW STATUS, and the migrated health counters.

#include <gtest/gtest.h>

#include <string>
#include <thread>
#include <vector>

#include "common/clock.h"
#include "common/latency_histogram.h"
#include "engine/database.h"
#include "obs/digest_store.h"
#include "obs/estimate_feedback.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "server/server.h"

namespace taurus {
namespace {

// ---------------------------------------------------------------------------
// Clock + histogram primitives
// ---------------------------------------------------------------------------

TEST(ClockTest, FakeClockAdvancesOnlyWhenTold) {
  FakeClock clock(100.0);
  EXPECT_EQ(clock.NowMs(), 100.0);
  EXPECT_EQ(clock.NowMs(), 100.0);
  clock.Advance(2.5);
  EXPECT_EQ(clock.NowMs(), 102.5);
  clock.Set(7.0);
  EXPECT_EQ(clock.NowMs(), 7.0);
}

TEST(ClockTest, SteadyClockIsMonotonic) {
  const SteadyClock& clock = SteadyClock::Instance();
  double a = clock.NowMs();
  double b = clock.NowMs();
  EXPECT_GE(b, a);
}

TEST(LatencyHistogramTest, PercentilesAndJson) {
  LatencyHistogram h;
  EXPECT_EQ(h.Count(), 0);
  EXPECT_EQ(h.PercentileMs(50), 0.0);
  for (int i = 1; i <= 100; ++i) h.Record(static_cast<double>(i));
  EXPECT_EQ(h.Count(), 100);
  EXPECT_DOUBLE_EQ(h.SumMs(), 5050.0);
  // Bucketed percentiles: upper bound of the bucket, so >= the true value
  // and monotone across ranks.
  EXPECT_GE(h.PercentileMs(50), 50.0);
  EXPECT_LE(h.PercentileMs(50), h.PercentileMs(95));
  EXPECT_LE(h.PercentileMs(95), h.PercentileMs(99));
  EXPECT_DOUBLE_EQ(h.MaxMs(), 100.0);
  std::string json = h.ToJson();
  for (const char* key : {"\"count\"", "\"sum_ms\"", "\"p50\"", "\"p95\"",
                          "\"p99\"", "\"max_ms\""}) {
    EXPECT_NE(json.find(key), std::string::npos) << json;
  }
  h.Reset();
  EXPECT_EQ(h.Count(), 0);
  EXPECT_EQ(h.MaxMs(), 0.0);
}

TEST(QErrorTest, FlooredSymmetricRatio) {
  EXPECT_DOUBLE_EQ(QError(10.0, 10.0), 1.0);
  EXPECT_DOUBLE_EQ(QError(100.0, 10.0), 10.0);
  EXPECT_DOUBLE_EQ(QError(10.0, 100.0), 10.0);
  // Both sides floored at one row: an empty result is not a div-by-zero.
  EXPECT_DOUBLE_EQ(QError(0.0, 5.0), 5.0);
  EXPECT_DOUBLE_EQ(QError(5.0, 0.0), 5.0);
  EXPECT_DOUBLE_EQ(QError(0.0, 0.0), 1.0);
}

TEST(OpActualsMapTest, AtFindMerge) {
  int a = 0, b = 0;  // addresses double as node keys
  OpActualsMap m1;
  m1.At(&a).rows = 10;
  m1.At(&a).loops = 2;
  m1.At(&b).rows = 3;
  OpActualsMap m2;
  m2.At(&a).rows = 5;
  m2.At(&a).loops = 1;
  m2.At(&a).time_ms = 1.5;
  m1.Merge(m2);
  ASSERT_NE(m1.Find(&a), nullptr);
  EXPECT_EQ(m1.Find(&a)->rows, 15);
  EXPECT_EQ(m1.Find(&a)->loops, 3);
  EXPECT_DOUBLE_EQ(m1.Find(&a)->time_ms, 1.5);
  EXPECT_EQ(m1.Find(&b)->rows, 3);
  EXPECT_EQ(m1.size(), 2u);
  EXPECT_EQ(m1.Find(&m1), nullptr);
  m1.clear();
  EXPECT_TRUE(m1.empty());
}

// ---------------------------------------------------------------------------
// Tracer: exact trees and durations under the fake clock
// ---------------------------------------------------------------------------

TEST(TracerTest, NestingDurationsAndPreOrder) {
  FakeClock clock;
  Tracer tracer(&clock);
  int root = tracer.StartSpan("query");
  clock.Advance(1.0);
  int child = tracer.StartSpan("compile");
  clock.Advance(5.0);
  int grand = tracer.StartSpan("parse");
  clock.Advance(2.0);
  tracer.EndSpan(grand);
  tracer.EndSpan(child);
  clock.Advance(3.0);
  int exec = tracer.StartSpan("execute");
  clock.Advance(4.0);
  tracer.EndSpan(exec);
  tracer.EndSpan(root);

  ASSERT_EQ(tracer.spans().size(), 4u);
  const TraceSpan& q = tracer.spans()[0];
  EXPECT_EQ(q.name, "query");
  EXPECT_EQ(q.parent, -1);
  EXPECT_EQ(q.depth, 0);
  EXPECT_DOUBLE_EQ(q.duration_ms(), 15.0);
  const TraceSpan& c = tracer.spans()[1];
  EXPECT_EQ(c.name, "compile");
  EXPECT_EQ(c.parent, q.id);
  EXPECT_EQ(c.depth, 1);
  EXPECT_DOUBLE_EQ(c.duration_ms(), 7.0);
  const TraceSpan& p = tracer.spans()[2];
  EXPECT_EQ(p.parent, c.id);
  EXPECT_EQ(p.depth, 2);
  EXPECT_DOUBLE_EQ(p.duration_ms(), 2.0);
  const TraceSpan& e = tracer.spans()[3];
  EXPECT_EQ(e.parent, q.id);  // compile ended, so execute is the root's child
  EXPECT_DOUBLE_EQ(e.duration_ms(), 4.0);

  EXPECT_EQ(tracer.TreeString(),
            "query\n"
            "  compile\n"
            "    parse\n"
            "  execute\n");
}

TEST(TracerTest, EndDefensivelyClosesChildrenAndLateAttrs) {
  FakeClock clock;
  Tracer tracer(&clock);
  int root = tracer.StartSpan("query");
  int child = tracer.StartSpan("orca.detour");
  clock.Advance(2.0);
  tracer.EndSpan(root);  // child still open: must be closed too
  EXPECT_TRUE(tracer.spans()[1].ended);
  EXPECT_DOUBLE_EQ(tracer.spans()[1].duration_ms(), 2.0);
  // Attributes attach to closed spans (failure status after EndSpan).
  tracer.SetAttr(child, "aborted", "true");
  tracer.SetAttr(child, "status", "kResourceExhausted");
  const std::string* aborted = tracer.spans()[1].FindAttr("aborted");
  ASSERT_NE(aborted, nullptr);
  EXPECT_EQ(*aborted, "true");
  EXPECT_EQ(tracer.spans()[1].FindAttr("missing"), nullptr);
  // Find returns the first span with the name, Render includes attrs.
  EXPECT_NE(tracer.Find("orca.detour"), nullptr);
  EXPECT_EQ(tracer.Find("no.such.span"), nullptr);
  EXPECT_NE(tracer.Render().find("aborted=true"), std::string::npos);
}

TEST(TracerTest, ScopedSpanIsNullSafe) {
  ScopedSpan null_span(nullptr, "anything");
  null_span.Attr("k", "v");
  null_span.End();  // no crash, no tracer
  FakeClock clock;
  Tracer tracer(&clock);
  {
    ScopedSpan span(&tracer, "scoped");
    clock.Advance(1.0);
  }  // destructor ends it
  ASSERT_EQ(tracer.spans().size(), 1u);
  EXPECT_TRUE(tracer.spans()[0].ended);
  EXPECT_DOUBLE_EQ(tracer.spans()[0].duration_ms(), 1.0);
}

// ---------------------------------------------------------------------------
// Metrics registry
// ---------------------------------------------------------------------------

TEST(MetricsRegistryTest, StablePointersJsonAndSnapshot) {
  MetricsRegistry reg;
  Counter* c = reg.GetCounter("taurus.test.count");
  EXPECT_EQ(reg.GetCounter("taurus.test.count"), c);  // same object
  c->Increment();
  c->Increment(41);
  EXPECT_EQ(c->Value(), 42);
  reg.GetGauge("taurus.test.gauge")->Set(2.5);
  reg.GetHistogram("taurus.test.ms")->Record(3.0);

  std::string json = reg.ToJson();
  EXPECT_NE(json.find("\"taurus.test.count\": 42"), std::string::npos) << json;
  EXPECT_NE(json.find("\"taurus.test.gauge\""), std::string::npos);
  EXPECT_NE(json.find("\"taurus.test.ms\": {"), std::string::npos);

  auto rows = reg.Snapshot();
  bool saw_count = false, saw_p50 = false;
  for (const auto& [name, value] : rows) {
    if (name == "taurus.test.count") {
      saw_count = true;
      EXPECT_EQ(value, "42");
    }
    if (name == "taurus.test.ms.p50") saw_p50 = true;
  }
  EXPECT_TRUE(saw_count);
  EXPECT_TRUE(saw_p50);

  reg.Reset();
  EXPECT_EQ(c->Value(), 0);  // same pointer, zeroed
}

/// Concurrent increments and registrations; run under the TSan leg
/// (TAURUS_SANITIZE=thread scripts/check.sh) to prove the registry and
/// counters are race-free.
TEST(MetricsRegistryTest, ConcurrentIncrementsAreExact) {
  MetricsRegistry reg;
  constexpr int kThreads = 8;
  constexpr int kIncrements = 20000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&reg, t] {
      // Every thread resolves the shared counter itself (concurrent
      // registration) and also touches a private one.
      Counter* shared = reg.GetCounter("taurus.test.shared");
      Counter* own = reg.GetCounter("taurus.test.t" + std::to_string(t));
      LatencyHistogram* h = reg.GetHistogram("taurus.test.lat_ms");
      for (int i = 0; i < kIncrements; ++i) {
        shared->Increment();
        own->Increment();
        if (i % 64 == 0) h->Record(static_cast<double>(i % 7));
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(reg.GetCounter("taurus.test.shared")->Value(),
            static_cast<int64_t>(kThreads) * kIncrements);
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_EQ(reg.GetCounter("taurus.test.t" + std::to_string(t))->Value(),
              kIncrements);
  }
}

// ---------------------------------------------------------------------------
// Engine integration: exact trace trees, MetricsJson, SHOW STATUS
// ---------------------------------------------------------------------------

class ObsEngineTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(db_.ExecuteSql(
                       "CREATE TABLE nation (n_id INT NOT NULL PRIMARY KEY, "
                       "n_name VARCHAR(25) NOT NULL)")
                    .ok());
    ASSERT_TRUE(db_.ExecuteSql(
                       "CREATE TABLE customer (c_id INT NOT NULL PRIMARY KEY, "
                       "c_nation INT NOT NULL, c_acct DOUBLE NOT NULL)")
                    .ok());
    std::vector<Row> nations;
    for (int i = 0; i < 5; ++i) {
      nations.push_back(
          {Value::Int(i), Value::Str("nation" + std::to_string(i))});
    }
    ASSERT_TRUE(db_.BulkLoad("nation", std::move(nations)).ok());
    std::vector<Row> customers;
    for (int i = 0; i < 50; ++i) {
      customers.push_back({Value::Int(i), Value::Int(i % 5),
                           Value::Double(100.0 * (i % 7))});
    }
    ASSERT_TRUE(db_.BulkLoad("customer", std::move(customers)).ok());
    ASSERT_TRUE(db_.AnalyzeAll().ok());

    // Exact-tree assertions must not depend on the build type: the plan
    // verifiers default on in Debug (kVerifyPlansDefault), which would add
    // verify.* spans there and not in Release.
    db_.verify_config().verify_plans = false;
    db_.trace_config().enable = true;
    db_.trace_config().clock = &clock_;
  }

  static constexpr const char* kJoinSql =
      "SELECT n_name, COUNT(*) FROM nation, customer "
      "WHERE c_nation = n_id GROUP BY n_name";

  Database db_;
  FakeClock clock_;
};

TEST_F(ObsEngineTest, OrcaPathTraceTree) {
  auto res = db_.Query(kJoinSql, OptimizerPath::kOrca);
  ASSERT_TRUE(res.ok()) << res.status().ToString();
  EXPECT_TRUE(res->used_orca);
  ASSERT_NE(res->trace, nullptr);
  EXPECT_EQ(res->trace->TreeString(),
            "query\n"
            "  compile\n"
            "    parse\n"
            "    bind\n"
            "    prepare\n"
            "    fingerprint\n"
            "    cache.lookup\n"
            "    route\n"
            "    orca.detour\n"
            "      decorrelate\n"
            "      parse_tree_convert\n"
            "      orca.optimize\n"
            "        memo.build\n"
            "        memo.join_search\n"
            "      plan_convert\n"
            "    cache.freeze\n"
            "    refine\n"
            "  execute\n");

  const TraceSpan* route = res->trace->Find("route");
  ASSERT_NE(route, nullptr);
  const std::string* decision = route->FindAttr("decision");
  ASSERT_NE(decision, nullptr);
  EXPECT_EQ(*decision, "orca");
  const TraceSpan* lookup = res->trace->Find("cache.lookup");
  ASSERT_NE(lookup, nullptr);
  EXPECT_EQ(*lookup->FindAttr("hit"), "false");
  const TraceSpan* fp = res->trace->Find("fingerprint");
  ASSERT_NE(fp, nullptr);
  EXPECT_NE(fp->FindAttr("fingerprint"), nullptr);
  const TraceSpan* search = res->trace->Find("memo.join_search");
  ASSERT_NE(search, nullptr);
  EXPECT_NE(search->FindAttr("memo_groups"), nullptr);
  EXPECT_NE(search->FindAttr("partitions"), nullptr);
  const TraceSpan* exec = res->trace->Find("execute");
  ASSERT_NE(exec, nullptr);
  EXPECT_NE(exec->FindAttr("workers"), nullptr);
  EXPECT_NE(exec->FindAttr("pipelines"), nullptr);
}

TEST_F(ObsEngineTest, MySqlPathTraceTree) {
  auto res = db_.Query(kJoinSql, OptimizerPath::kMySql);
  ASSERT_TRUE(res.ok()) << res.status().ToString();
  EXPECT_FALSE(res->used_orca);
  ASSERT_NE(res->trace, nullptr);
  EXPECT_EQ(res->trace->TreeString(),
            "query\n"
            "  compile\n"
            "    parse\n"
            "    bind\n"
            "    prepare\n"
            "    fingerprint\n"
            "    cache.lookup\n"
            "    route\n"
            "    mysql.optimize\n"
            "    cache.freeze\n"
            "    refine\n"
            "  execute\n");
  const TraceSpan* route = res->trace->Find("route");
  ASSERT_NE(route, nullptr);
  EXPECT_EQ(*route->FindAttr("decision"), "mysql");
}

TEST_F(ObsEngineTest, CacheHitTraceTree) {
  ASSERT_TRUE(db_.Query(kJoinSql, OptimizerPath::kMySql).ok());
  auto hit = db_.Query(kJoinSql, OptimizerPath::kMySql);
  ASSERT_TRUE(hit.ok());
  EXPECT_TRUE(hit->plan_cache_hit);
  ASSERT_NE(hit->trace, nullptr);
  EXPECT_EQ(hit->trace->TreeString(),
            "query\n"
            "  compile\n"
            "    parse\n"
            "    bind\n"
            "    prepare\n"
            "    fingerprint\n"
            "    cache.lookup\n"
            "    cache.thaw\n"
            "    refine\n"
            "  execute\n");
  const TraceSpan* lookup = hit->trace->Find("cache.lookup");
  ASSERT_NE(lookup, nullptr);
  EXPECT_EQ(*lookup->FindAttr("hit"), "true");
}

TEST_F(ObsEngineTest, TracingDisabledLeavesNoTraceAndNoActuals) {
  db_.trace_config().enable = false;
  auto res = db_.Query(kJoinSql, OptimizerPath::kMySql);
  ASSERT_TRUE(res.ok());
  EXPECT_EQ(res->trace, nullptr);
}

TEST_F(ObsEngineTest, FakeClockGivesDeterministicDurations) {
  // The engine never advances the injected clock itself, so every span is
  // zero-length — the determinism EXPLAIN-style golden tests rely on.
  auto res = db_.Query(kJoinSql, OptimizerPath::kMySql);
  ASSERT_TRUE(res.ok());
  for (const TraceSpan& span : res->trace->spans()) {
    EXPECT_DOUBLE_EQ(span.duration_ms(), 0.0) << span.name;
  }
}

TEST_F(ObsEngineTest, MetricsJsonCarriesMigratedCounters) {
  ASSERT_TRUE(db_.Query(kJoinSql, OptimizerPath::kOrca).ok());
  ASSERT_TRUE(db_.Query(kJoinSql, OptimizerPath::kMySql).ok());
  ASSERT_TRUE(db_.Query(kJoinSql, OptimizerPath::kMySql).ok());  // cache hit
  std::string json = db_.MetricsJson();
  for (const char* key :
       {"taurus.health.detours_attempted", "taurus.health.detours_failed",
        "taurus.health.fallbacks", "taurus.health.budget_kills",
        "taurus.health.exec_budget_kills", "taurus.health.quarantine_hits",
        "taurus.plan_cache.hits", "taurus.plan_cache.misses",
        "taurus.plan_cache.entries", "taurus.verify.rules_checked",
        "taurus.verify.violations", "taurus.query.count",
        "taurus.query.errors", "taurus.query.optimize_ms",
        "taurus.query.execute_ms", "taurus.exec.rows_scanned",
        "taurus.exec.index_lookups", "taurus.exec.parallel_queries",
        "taurus.exec.parallel_pipelines", "taurus.exec.batch.pipelines",
        "taurus.exec.batch.batches", "taurus.exec.batch.rows",
        "taurus.quarantine.entries"}) {
    EXPECT_NE(json.find(std::string("\"") + key + "\""), std::string::npos)
        << "missing " << key << " in " << json;
  }
  EXPECT_NE(json.find("\"taurus.query.count\": 3"), std::string::npos) << json;
  EXPECT_NE(json.find("\"taurus.plan_cache.hits\": 1"), std::string::npos)
      << json;
  EXPECT_NE(json.find("\"taurus.health.detours_attempted\": 1"),
            std::string::npos)
      << json;
}

TEST_F(ObsEngineTest, ShowStatusReturnsFilteredSortedRows) {
  ASSERT_TRUE(db_.Query(kJoinSql, OptimizerPath::kOrca).ok());
  auto res = db_.Query("SHOW STATUS LIKE 'taurus.health.%'");
  ASSERT_TRUE(res.ok()) << res.status().ToString();
  ASSERT_EQ(res->columns.size(), 2u);
  EXPECT_EQ(res->columns[0], "Variable_name");
  EXPECT_EQ(res->columns[1], "Value");
  ASSERT_EQ(res->rows.size(), 6u);  // the six health counters
  for (size_t i = 1; i < res->rows.size(); ++i) {
    EXPECT_LT(res->rows[i - 1][0].AsString(), res->rows[i][0].AsString());
  }
  bool saw = false;
  for (const Row& row : res->rows) {
    if (row[0].AsString() == "taurus.health.detours_attempted") {
      saw = true;
      EXPECT_EQ(row[1].AsString(), "1");
    }
  }
  EXPECT_TRUE(saw);

  // Unfiltered SHOW METRICS covers every registered metric.
  auto all = db_.Query("SHOW METRICS");
  ASSERT_TRUE(all.ok());
  EXPECT_GT(all->rows.size(), res->rows.size());
  // SHOW is routed before the optimizer: no trace is recorded for it.
  EXPECT_FALSE(db_.Query("SHOW TABLES").ok());
}

TEST_F(ObsEngineTest, GlobalRegistryIsAvailable) {
  Counter* c = MetricsRegistry::Global().GetCounter("taurus.test.global");
  c->Increment();
  EXPECT_GE(c->Value(), 1);
}

/// The full taurus.* inventory, one name per registered metric across every
/// family. A new metric must be added here (and a removed one deleted), so
/// accidental renames and namespace drift fail a test instead of silently
/// breaking dashboards. The taurus.-prefix rule itself is enforced on every
/// dump by scripts/validate_obs_json.py in check.sh.
TEST_F(ObsEngineTest, MetricsJsonCoversTheFullTaurusInventory) {
  // The server family registers when an admission controller attaches to
  // the engine's registry; everything else registers in the Database ctor
  // (BindCounters) or on dump (SyncGaugeMetrics).
  Server server(&db_);
  ASSERT_TRUE(db_.Query(kJoinSql, OptimizerPath::kOrca).ok());
  const std::string json = db_.MetricsJson();
  for (const char* name : {
           // health
           "taurus.health.budget_kills", "taurus.health.detours_attempted",
           "taurus.health.detours_failed", "taurus.health.exec_budget_kills",
           "taurus.health.fallbacks", "taurus.health.quarantine_hits",
           // query
           "taurus.query.count", "taurus.query.errors",
           "taurus.query.execute_ms", "taurus.query.optimize_ms",
           // plan cache
           "taurus.plan_cache.capacity", "taurus.plan_cache.entries",
           "taurus.plan_cache.evictions",
           "taurus.plan_cache.hits", "taurus.plan_cache.insertions",
           "taurus.plan_cache.invalidations", "taurus.plan_cache.misses",
           // quarantine + verifiers
           "taurus.quarantine.entries", "taurus.verify.rules_checked",
           "taurus.verify.violations", "taurus.verify.lock_rank.checks",
           "taurus.verify.lock_rank.enabled",
           "taurus.verify.lock_rank.violations",
           // executor
           "taurus.exec.batch.batches", "taurus.exec.batch.pipelines",
           "taurus.exec.batch.rows", "taurus.exec.index_lookups",
           "taurus.exec.parallel_pipelines", "taurus.exec.parallel_queries",
           "taurus.exec.rows_scanned",
           // executor profiling
           "taurus.exec.profile.last_busy_ms",
           "taurus.exec.profile.last_idle_ms",
           "taurus.exec.profile.last_workers", "taurus.exec.profile.morsels",
           "taurus.exec.profile.pipelines",
           // workload introspection
           "taurus.obs.digest.capacity", "taurus.obs.digest.entries",
           "taurus.obs.digest.epoch_bumps", "taurus.obs.digest.lru_evictions",
           "taurus.obs.digest.records", "taurus.obs.recorder.capacity",
           "taurus.obs.recorder.entries", "taurus.obs.recorder.pinned",
           "taurus.obs.recorder.records",
           // server / admission
           "taurus.server.admitted", "taurus.server.queue_len",
           "taurus.server.queued", "taurus.server.rejected_deadline",
           "taurus.server.rejected_queue_full", "taurus.server.running",
           "taurus.server.shed",
       }) {
    EXPECT_NE(json.find(std::string("\"") + name + "\""), std::string::npos)
        << "missing " << name;
  }
}

// ---------------------------------------------------------------------------
// Digest store under concurrency: run under the TSan leg
// (TAURUS_SANITIZE=thread scripts/check.sh) to prove Record / Snapshot /
// BumpEpoch are race-free against each other.
// ---------------------------------------------------------------------------

TEST(DigestStoreConcurrencyTest, ConcurrentRecordSnapshotAndBumpAreExact) {
  DigestStoreConfig config;
  DigestStore store(config);
  constexpr int kWriters = 4;
  constexpr int kRecords = 2000;
  constexpr uint64_t kFingerprints = 8;
  const std::string canonical = "stmt";

  std::vector<std::thread> threads;
  for (int t = 0; t < kWriters; ++t) {
    threads.emplace_back([&store, &canonical, t] {
      for (int i = 0; i < kRecords; ++i) {
        QueryEvent e;
        e.fingerprint = 1 + static_cast<uint64_t>(i) % kFingerprints;
        e.canonical = canonical;
        e.used_orca = (i + t) % 2 == 0;
        e.rows_returned = 1;
        store.Record(e, /*error=*/false, static_cast<double>(i % 5));
      }
    });
  }
  // Readers and epoch bumps race the writers: snapshots must always be
  // internally consistent (per-path counts partition calls) and bumps must
  // never lose a sample.
  threads.emplace_back([&store] {
    for (int i = 0; i < 200; ++i) {
      for (const DigestSnapshot& d : store.Snapshot()) {
        EXPECT_EQ(d.orca_latency.count + d.mysql_latency.count, d.calls);
        EXPECT_EQ(d.latency_count, d.calls);
      }
    }
  });
  threads.emplace_back([&store] {
    for (int i = 0; i < 200; ++i) {
      store.BumpEpoch(1 + static_cast<uint64_t>(i) % kFingerprints, "ddl");
    }
  });
  for (std::thread& t : threads) t.join();

  EXPECT_EQ(store.records(), kWriters * kRecords);
  EXPECT_EQ(store.lru_evictions(), 0);
  int64_t calls = 0;
  for (const DigestSnapshot& d : store.Snapshot()) {
    calls += d.calls;
    // The epoch split never double-counts: the current and previous epoch
    // together cover at most every call (exactly, until a third epoch
    // drops the oldest bucket).
    EXPECT_LE(d.epoch_latency.count + d.prev_epoch_latency.count, d.calls);
    if (d.plan_epoch <= 2) {
      EXPECT_EQ(d.epoch_latency.count + d.prev_epoch_latency.count, d.calls);
    }
  }
  EXPECT_EQ(calls, kWriters * kRecords);
}

}  // namespace
}  // namespace taurus