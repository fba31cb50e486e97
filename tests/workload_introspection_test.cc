// Workload introspection tests (DESIGN.md section 15): the statement-digest
// store (LRU aggregation keyed by the plan-cache fingerprint, plan-epoch
// latency splits), the flight recorder (bounded ring of recent query events
// with pinned post-mortem traces), executor profiling, and the SQL surfaces
// that expose them — SHOW DIGESTS / SHOW FLIGHT RECORDER / SHOW PROFILE FOR.
//
// The engine-level scenarios run over a skew schema: fact.f_k is heavily
// skewed (600 rows of k=1 plus 600 distinct values) against dim's 80 rows
// of k=1, so the join returns 48000 rows. The ANALYZE invalidation and the
// quarantine transition that bump a digest's plan epoch are provoked
// through the engine, not mocked.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/clock.h"
#include "common/fault_injector.h"
#include "engine/database.h"
#include "obs/digest_store.h"
#include "obs/flight_recorder.h"
#include "obs/trace.h"
#include "server/server.h"

namespace taurus {
namespace {

// ---------------------------------------------------------------------------
// DigestStore: aggregation, LRU bound, epoch splits (unit level)
// ---------------------------------------------------------------------------

QueryEvent MakeEvent(uint64_t fp, const std::string& canonical,
                     bool used_orca) {
  QueryEvent e;
  e.fingerprint = fp;
  e.canonical = canonical;
  e.used_orca = used_orca;
  e.rows_returned = 10;
  return e;
}

const DigestSnapshot* FindDigest(const std::vector<DigestSnapshot>& digests,
                                 uint64_t fp) {
  for (const DigestSnapshot& d : digests) {
    if (d.fingerprint == fp) return &d;
  }
  return nullptr;
}

TEST(DigestStoreTest, AggregatesFlagsAndPerPathLatency) {
  DigestStoreConfig config;
  DigestStore store(config);
  const std::string stmt = "select-canonical";

  store.Record(MakeEvent(7, stmt, /*used_orca=*/true), /*error=*/false, 4.0);
  QueryEvent failed = MakeEvent(7, stmt, /*used_orca=*/false);
  failed.fell_back = true;
  failed.verifier_violations = 2;
  store.Record(failed, /*error=*/true, 2.0);

  auto digests = store.Snapshot();
  ASSERT_EQ(digests.size(), 1u);
  const DigestSnapshot& d = digests[0];
  EXPECT_EQ(d.fingerprint, 7u);
  EXPECT_EQ(d.statement, stmt);
  EXPECT_EQ(d.calls, 2);
  EXPECT_EQ(d.errors, 1);
  EXPECT_EQ(d.orca_calls, 1);
  EXPECT_EQ(d.mysql_calls, 1);
  EXPECT_EQ(d.fallbacks, 1);
  EXPECT_EQ(d.verifier_violations, 2);
  EXPECT_EQ(d.rows_returned, 20);
  EXPECT_EQ(d.latency_count, 2);
  EXPECT_DOUBLE_EQ(d.latency_sum_ms, 6.0);
  EXPECT_EQ(d.orca_latency.count, 1);
  EXPECT_DOUBLE_EQ(d.orca_latency.sum_ms, 4.0);
  EXPECT_EQ(d.mysql_latency.count, 1);
  EXPECT_DOUBLE_EQ(d.mysql_latency.sum_ms, 2.0);
  // Per-path counts partition calls — the invariant validate_obs_json.py
  // enforces on every DigestsJson dump.
  EXPECT_EQ(d.orca_latency.count + d.mysql_latency.count, d.calls);
  EXPECT_EQ(store.records(), 2);
}

TEST(DigestStoreTest, LruEvictsLeastRecentlyExecutedNeverTheNewcomer) {
  DigestStoreConfig config;
  config.capacity = 2;
  DigestStore store(config);
  const std::string stmt = "s";

  store.Record(MakeEvent(1, stmt, false), false, 1.0);
  store.Record(MakeEvent(2, stmt, false), false, 1.0);
  // Touch 1, so 2 becomes LRU; then 3 evicts 2, not the newcomer 3.
  store.Record(MakeEvent(1, stmt, false), false, 1.0);
  store.Record(MakeEvent(3, stmt, false), false, 1.0);

  auto digests = store.Snapshot();
  EXPECT_EQ(store.Size(), 2u);
  EXPECT_EQ(store.lru_evictions(), 1);
  EXPECT_EQ(FindDigest(digests, 2), nullptr);
  ASSERT_NE(FindDigest(digests, 1), nullptr);
  ASSERT_NE(FindDigest(digests, 3), nullptr);

  // A re-learned fingerprint starts a fresh life: epoch back to 1, no
  // carried-over counts from the evicted entry.
  store.Record(MakeEvent(2, stmt, false), false, 1.0);
  digests = store.Snapshot();
  const DigestSnapshot* reborn = FindDigest(digests, 2);
  ASSERT_NE(reborn, nullptr);
  EXPECT_EQ(reborn->calls, 1);
  EXPECT_EQ(reborn->plan_epoch, 1);
}

TEST(DigestStoreTest, FakeClockEpochSplitExposesPlanRegression) {
  // A plan regression with deterministic latencies: the fake clock stamps
  // each execution's wall time, the epoch bump replays what an ANALYZE
  // invalidation does, and the snapshot must show the exact pre/post split
  // a DBA would read off SHOW DIGESTS.
  FakeClock clock(100.0);
  auto timed = [&clock](double ms) {
    double t0 = clock.NowMs();
    clock.Advance(ms);
    return clock.NowMs() - t0;
  };

  DigestStoreConfig config;
  DigestStore store(config);
  const std::string stmt = "skew-join";

  // Epoch 1: the good cached plan, 5ms and 7ms.
  store.Record(MakeEvent(42, stmt, true), false, timed(5.0));
  store.Record(MakeEvent(42, stmt, true), false, timed(7.0));

  EXPECT_TRUE(store.BumpEpoch(42, "analyze"));
  // Collapse rule: a second hook firing before the next execution is the
  // same visible plan change, not a new epoch — but the cause updates,
  // since queries in this epoch will run under the latest skeleton.
  EXPECT_FALSE(store.BumpEpoch(42, "ddl"));
  EXPECT_EQ(store.epoch_bumps(), 1);

  auto digests = store.Snapshot();
  const DigestSnapshot* d = FindDigest(digests, 42);
  ASSERT_NE(d, nullptr);
  EXPECT_EQ(d->plan_epoch, 2);
  EXPECT_EQ(d->epoch_cause, "ddl");
  EXPECT_EQ(d->prev_epoch_latency.count, 2);
  EXPECT_DOUBLE_EQ(d->prev_epoch_latency.sum_ms, 12.0);
  EXPECT_DOUBLE_EQ(d->prev_epoch_latency.mean_ms(), 6.0);
  EXPECT_DOUBLE_EQ(d->prev_epoch_latency.max_ms, 7.0);
  EXPECT_EQ(d->epoch_latency.count, 0);

  // Epoch 2: the regressed re-optimized plan, 40ms — the two-sided
  // comparison (mean 6ms -> mean 40ms) is the regression signal.
  store.Record(MakeEvent(42, stmt, true), false, timed(40.0));
  digests = store.Snapshot();
  d = FindDigest(digests, 42);
  ASSERT_NE(d, nullptr);
  EXPECT_EQ(d->epoch_latency.count, 1);
  EXPECT_DOUBLE_EQ(d->epoch_latency.mean_ms(), 40.0);
  EXPECT_DOUBLE_EQ(d->prev_epoch_latency.mean_ms(), 6.0);

  // The next bump replaces (not merges) the previous-epoch summary.
  EXPECT_TRUE(store.BumpEpoch(42, "analyze"));
  digests = store.Snapshot();
  d = FindDigest(digests, 42);
  ASSERT_NE(d, nullptr);
  EXPECT_EQ(d->plan_epoch, 3);
  EXPECT_EQ(d->epoch_cause, "analyze");
  EXPECT_EQ(d->prev_epoch_latency.count, 1);
  EXPECT_DOUBLE_EQ(d->prev_epoch_latency.mean_ms(), 40.0);
  EXPECT_EQ(store.epoch_bumps(), 2);

  // Unknown fingerprints are ignored — no entry is conjured for them.
  EXPECT_FALSE(store.BumpEpoch(999, "ddl"));
  EXPECT_EQ(store.Size(), 1u);
}

TEST(DigestStoreTest, DisabledStoreRecordsNothing) {
  DigestStoreConfig config;
  config.enable = false;
  DigestStore store(config);
  const std::string stmt = "s";
  store.Record(MakeEvent(1, stmt, false), false, 1.0);
  EXPECT_EQ(store.Size(), 0u);
  EXPECT_EQ(store.records(), 0);
}

// ---------------------------------------------------------------------------
// FlightRecorder: ring semantics, live capacity, trace pinning (unit level)
// ---------------------------------------------------------------------------

FlightRecord MakeRecord(uint64_t fingerprint) {
  FlightRecord r;
  r.event.fingerprint = fingerprint;
  return r;
}

TEST(FlightRecorderTest, RingOverwritesOldestAndSeqStaysMonotonic) {
  FlightRecorderConfig config;
  config.capacity = 4;
  FlightRecorder recorder(config);
  for (int i = 1; i <= 6; ++i) {
    EXPECT_EQ(recorder.Record(MakeRecord(static_cast<uint64_t>(i))),
              static_cast<uint64_t>(i));
  }
  EXPECT_EQ(recorder.Size(), 4u);
  EXPECT_EQ(recorder.records(), 6);

  auto events = recorder.Snapshot();
  ASSERT_EQ(events.size(), 4u);
  for (size_t i = 0; i < events.size(); ++i) {
    EXPECT_EQ(events[i].event.flight_seq, i + 3);  // oldest-first: 3,4,5,6
  }
  FlightRecord out;
  EXPECT_FALSE(recorder.Find(1, &out));  // overwritten
  EXPECT_FALSE(recorder.Find(0, &out));  // never assigned
  ASSERT_TRUE(recorder.Find(6, &out));
  EXPECT_EQ(out.event.fingerprint, 6u);
}

TEST(FlightRecorderTest, CapacityChangeAppliesLazilyKeepingNewest) {
  FlightRecorderConfig config;
  config.capacity = 4;
  FlightRecorder recorder(config);
  for (int i = 1; i <= 4; ++i) recorder.Record(MakeRecord(1));
  config.capacity = 2;
  EXPECT_EQ(recorder.Record(MakeRecord(1)), 5u);  // shrink applies here
  auto events = recorder.Snapshot();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].event.flight_seq, 4u);
  EXPECT_EQ(events[1].event.flight_seq, 5u);
}

TEST(FlightRecorderTest, PinsTheTracesOfAbortedQueriesOnly) {
  FakeClock clock;
  auto tracer = std::make_shared<Tracer>(&clock);
  int span = tracer->StartSpan("query");
  tracer->EndSpan(span);

  FlightRecorderConfig config;
  FlightRecorder recorder(config);
  FlightRecord clean = MakeRecord(1);
  clean.event.trace = tracer;
  recorder.Record(clean);
  EXPECT_EQ(recorder.pinned(), 0);  // a clean query's trace is not kept

  FlightRecord failed = MakeRecord(2);
  failed.status = "ResourceExhausted: killed";
  failed.event.trace = tracer;
  uint64_t seq = recorder.Record(failed);
  EXPECT_EQ(recorder.pinned(), 1);
  FlightRecord out;
  ASSERT_TRUE(recorder.Find(seq, &out));
  EXPECT_TRUE(out.error());
  ASSERT_NE(out.event.trace, nullptr);
  EXPECT_EQ(out.event.trace->TreeString(), "query\n");
}

TEST(FlightRecorderTest, DisabledRecorderAssignsNoSeq) {
  FlightRecorderConfig config;
  config.enable = false;
  FlightRecorder recorder(config);
  EXPECT_EQ(recorder.Record(MakeRecord(1)), 0u);
  EXPECT_EQ(recorder.Size(), 0u);
}

// ---------------------------------------------------------------------------
// Engine integration: ANALYZE and quarantine epoch bumps are provoked by
// the real control loops.
// ---------------------------------------------------------------------------

class IntrospectionTest : public ::testing::Test {
 protected:
  void SetUp() override {
    FaultInjector::Instance().DisarmAll();
    ASSERT_TRUE(db_.ExecuteSql(
                       "CREATE TABLE fact (f_id INT NOT NULL PRIMARY KEY, "
                       "f_k INT NOT NULL)")
                    .ok());
    ASSERT_TRUE(db_.ExecuteSql(
                       "CREATE TABLE dim (d_k INT NOT NULL, "
                       "d_pad INT NOT NULL)")
                    .ok());
    std::vector<Row> fact;
    for (int i = 0; i < 1200; ++i) {
      int k = i < 600 ? 1 : i + 1000;  // skew: half the table joins
      fact.push_back({Value::Int(i), Value::Int(k)});
    }
    ASSERT_TRUE(db_.BulkLoad("fact", std::move(fact)).ok());
    std::vector<Row> dim;
    for (int i = 0; i < 80; ++i) {
      dim.push_back({Value::Int(1), Value::Int(i)});
    }
    ASSERT_TRUE(db_.BulkLoad("dim", std::move(dim)).ok());
    ASSERT_TRUE(db_.AnalyzeAll().ok());
  }

  void TearDown() override { FaultInjector::Instance().DisarmAll(); }

  /// The one digest with `calls` executions (asserts it is unique).
  DigestSnapshot DigestWithCalls(int64_t calls) {
    DigestSnapshot found;
    int matches = 0;
    for (const DigestSnapshot& d : db_.digest_store().Snapshot()) {
      if (d.calls == calls) {
        found = d;
        ++matches;
      }
    }
    EXPECT_EQ(matches, 1) << "no unique digest with calls=" << calls;
    return found;
  }

  static constexpr const char* kSkewSql =
      "SELECT f_id, d_pad FROM fact, dim WHERE f_k = d_k";
  static constexpr const char* kCountSql = "SELECT COUNT(*) FROM dim";

  Database db_;
};

TEST_F(IntrospectionTest, ShowDigestsAggregatesAndFiltersLikeAPattern) {
  ASSERT_TRUE(db_.Query(kSkewSql, OptimizerPath::kOrca).ok());
  ASSERT_TRUE(db_.Query(kSkewSql, OptimizerPath::kOrca).ok());  // cache hit
  ASSERT_TRUE(db_.Query(kCountSql, OptimizerPath::kMySql).ok());
  EXPECT_FALSE(db_.Query("SELECT * FROM no_such_table").ok());

  auto res = db_.Query("SHOW DIGESTS");
  ASSERT_TRUE(res.ok()) << res.status().ToString();
  ASSERT_EQ(res->columns.size(), 21u);
  EXPECT_EQ(res->columns[0], "Digest");
  EXPECT_EQ(res->columns[15], "PlanEpoch");
  // Three digests: the skew join, the count, and the fingerprint-0 bucket
  // for the statement that failed before fingerprinting. Most-executed
  // first.
  ASSERT_EQ(res->rows.size(), 3u);
  const Row& top = res->rows[0];
  EXPECT_EQ(top[2].AsInt(), 2);                         // Calls
  EXPECT_EQ(top[4].AsInt(), 2);                         // OrcaCalls
  EXPECT_EQ(top[6].AsInt(), 1);                         // CacheHits
  EXPECT_EQ(top[11].AsInt(), 2 * 48000);                // Rows
  EXPECT_EQ(top[15].AsInt(), 1);                        // PlanEpoch
  EXPECT_EQ(top[0].AsString().substr(0, 2), "0x");      // hex digest
  // The failed statement aggregates under fingerprint 0 with an error.
  bool saw_error_bucket = false;
  for (const Row& row : res->rows) {
    if (row[0].AsString() == "0x0000000000000000") {
      saw_error_bucket = true;
      EXPECT_EQ(row[3].AsInt(), 1);  // Errors
    }
  }
  EXPECT_TRUE(saw_error_bucket);

  // LIKE filters on the canonical statement text: the digest's own
  // statement matches itself, a nonsense pattern matches nothing.
  const DigestSnapshot top_digest = DigestWithCalls(2);
  auto filtered = db_.Query("SHOW DIGESTS LIKE '" + top_digest.statement + "'");
  ASSERT_TRUE(filtered.ok()) << filtered.status().ToString();
  ASSERT_EQ(filtered->rows.size(), 1u);
  EXPECT_EQ(filtered->rows[0][2].AsInt(), 2);
  auto none = db_.Query("SHOW DIGESTS LIKE 'zzz-no-such-digest%'");
  ASSERT_TRUE(none.ok());
  EXPECT_EQ(none->rows.size(), 0u);

  // SHOW itself never pollutes the store it reads: still three digests,
  // and the digest calls reconcile with taurus.query.count exactly.
  EXPECT_EQ(db_.digest_store().Size(), 3u);
  EXPECT_EQ(db_.digest_store().records(),
            db_.metrics().GetCounter("taurus.query.count")->Value());
}

TEST_F(IntrospectionTest, AnalyzeBumpsPlanEpochWithVisibleSplit) {
  // Run 1 compiles and caches the skeleton.
  auto run1 = db_.Query(kSkewSql, OptimizerPath::kOrca);
  ASSERT_TRUE(run1.ok()) << run1.status().ToString();
  EXPECT_FALSE(run1->plan_cache_hit);
  EXPECT_EQ(DigestWithCalls(1).plan_epoch, 1);

  // ANALYZE moves the catalog stats version. Run 2's cache lookup sees the
  // stale skeleton, invalidates it and fires the hook — the digest's epoch
  // advances with cause "analyze" before run 2's own sample lands in the
  // fresh epoch.
  ASSERT_TRUE(db_.ExecuteSql("ANALYZE TABLE fact").ok());
  auto run2 = db_.Query(kSkewSql, OptimizerPath::kOrca);
  ASSERT_TRUE(run2.ok()) << run2.status().ToString();
  EXPECT_FALSE(run2->plan_cache_hit);
  EXPECT_EQ(db_.plan_cache().stats().invalidations, 1);

  const DigestSnapshot d = DigestWithCalls(2);
  EXPECT_EQ(d.plan_epoch, 2);
  EXPECT_EQ(d.epoch_cause, "analyze");
  EXPECT_EQ(d.prev_epoch_latency.count, 1);  // run 1, the old plan
  EXPECT_EQ(d.epoch_latency.count, 1);       // run 2, the recompiled plan
  EXPECT_DOUBLE_EQ(d.prev_epoch_latency.sum_ms + d.epoch_latency.sum_ms,
                   d.latency_sum_ms);

  // The same split off the SQL surface.
  auto res = db_.Query("SHOW DIGESTS");
  ASSERT_TRUE(res.ok());
  bool saw = false;
  for (const Row& row : res->rows) {
    if (row[2].AsInt() != 2) continue;
    saw = true;
    EXPECT_EQ(row[15].AsInt(), 2);             // PlanEpoch
    EXPECT_EQ(row[16].AsString(), "analyze");  // EpochCause
    EXPECT_EQ(row[17].AsInt(), 1);             // EpochCalls
    EXPECT_EQ(row[19].AsInt(), 1);             // PrevEpochCalls
  }
  EXPECT_TRUE(saw);
  EXPECT_EQ(db_.digest_store().epoch_bumps(), 1);
}

TEST_F(IntrospectionTest, QuarantinePinsAbortedDetourTraceForPostMortem) {
  db_.router_config().complex_query_threshold = 1;  // kAuto detours the join
  db_.plan_cache_config().enable = false;  // every compile attempts a detour
  db_.trace_config().enable = true;
  const int threshold = db_.quarantine_config().failure_threshold;
  ASSERT_EQ(threshold, 3);

  FaultInjector::Instance().ArmCount("bridge.parse_tree_convert", 1000000);
  uint64_t aborted_seq = 0;
  for (int i = 0; i < threshold; ++i) {
    auto res = db_.Query(kSkewSql, OptimizerPath::kAuto);
    ASSERT_TRUE(res.ok()) << res.status().ToString();
    EXPECT_TRUE(res->fell_back);
    aborted_seq = res->flight_seq;
    ASSERT_GT(aborted_seq, 0u);
  }
  FaultInjector::Instance().DisarmAll();

  // Threshold crossed during the last failure: the statement entered
  // quarantine, and that plan change bumped the digest's epoch.
  auto hit = db_.Query(kSkewSql, OptimizerPath::kAuto);
  ASSERT_TRUE(hit.ok());
  EXPECT_TRUE(hit->quarantine_hit);
  const DigestSnapshot d = DigestWithCalls(threshold + 1);
  EXPECT_EQ(d.plan_epoch, 2);
  EXPECT_EQ(d.epoch_cause, "quarantine");
  EXPECT_EQ(d.fallbacks, threshold);
  EXPECT_EQ(d.quarantine_hits, 1);
  EXPECT_EQ(d.mysql_calls, threshold + 1);

  // After 100 more queries the aborted detour's span tree must still be
  // retrievable from its pinned ring slot (capacity 256 comfortably
  // outlives this).
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(db_.Query(kCountSql, OptimizerPath::kMySql).ok());
  }
  FlightRecord rec;
  ASSERT_TRUE(db_.flight_recorder().Find(aborted_seq, &rec));
  EXPECT_TRUE(rec.event.fell_back);
  ASSERT_NE(rec.event.trace, nullptr);
  const std::string tree = rec.event.trace->TreeString();
  EXPECT_NE(tree.find("orca.detour"), std::string::npos) << tree;
  EXPECT_NE(tree.find("parse_tree_convert"), std::string::npos) << tree;

  // The same post-mortem off the SQL surface: SHOW FLIGHT RECORDER renders
  // the pinned tree in the aborted event's row.
  auto recorder = db_.Query("SHOW FLIGHT RECORDER");
  ASSERT_TRUE(recorder.ok()) << recorder.status().ToString();
  ASSERT_EQ(recorder->columns.size(), 15u);
  bool saw_pinned = false;
  for (const Row& row : recorder->rows) {
    if (static_cast<uint64_t>(row[0].AsInt()) != aborted_seq) continue;
    saw_pinned = true;
    EXPECT_NE(row[14].AsString().find("orca.detour"), std::string::npos);
  }
  EXPECT_TRUE(saw_pinned);
  // Newest-first rendering: the top row is the most recent event.
  ASSERT_GE(recorder->rows.size(), 2u);
  EXPECT_GT(recorder->rows[0][0].AsInt(), recorder->rows[1][0].AsInt());
  EXPECT_GE(db_.flight_recorder().pinned(), static_cast<int64_t>(threshold));
}

TEST_F(IntrospectionTest, ShowProfileReplaysPerWorkerMorselTimings) {
  db_.exec_config().parallel_workers = 4;
  db_.exec_config().parallel_min_driver_rows = 0;
  db_.exec_config().morsel_rows = 64;

  auto res = db_.Query(kSkewSql, OptimizerPath::kMySql);
  ASSERT_TRUE(res.ok()) << res.status().ToString();
  ASSERT_GT(res->flight_seq, 0u);
  ASSERT_GE(res->profile.pipelines, 1);
  ASSERT_FALSE(res->profile.workers.empty());
  EXPECT_GT(res->profile.morsels(), 0);
  int64_t profiled_rows = 0;
  for (const WorkerProfile& w : res->profile.workers) {
    profiled_rows += w.batch_rows + w.volcano_rows;
  }
  EXPECT_GT(profiled_rows, 0);

  auto profile = db_.Query("SHOW PROFILE FOR " +
                           std::to_string(res->flight_seq));
  ASSERT_TRUE(profile.ok()) << profile.status().ToString();
  ASSERT_EQ(profile->columns.size(), 8u);
  // One row per worker plus the totals row.
  ASSERT_EQ(profile->rows.size(), res->profile.workers.size() + 1);
  const Row& total = profile->rows.back();
  EXPECT_EQ(total[1].AsString(), "total");
  EXPECT_EQ(total[4].AsInt(), res->profile.morsels());
  EXPECT_EQ(total[5].AsInt() + total[6].AsInt(), profiled_rows);

  // The profile feeds the metrics registry too.
  EXPECT_GE(db_.metrics().GetCounter("taurus.exec.profile.pipelines")->Value(),
            1);
  EXPECT_GE(db_.metrics().GetCounter("taurus.exec.profile.morsels")->Value(),
            res->profile.morsels());

  // An overwritten (or never recorded) seq is NotFound, distinguishable
  // from a profile with no per-worker rows.
  auto missing = db_.Query("SHOW PROFILE FOR 999999");
  EXPECT_FALSE(missing.ok());
  EXPECT_EQ(missing.status().code(), StatusCode::kNotFound);
}

TEST_F(IntrospectionTest, JsonSurfacesRenderTheSameStory) {
  ASSERT_TRUE(db_.Query(kSkewSql, OptimizerPath::kOrca).ok());
  EXPECT_FALSE(db_.Query("SELECT * FROM no_such_table").ok());

  const std::string digests = db_.DigestsJson();
  for (const char* key :
       {"\"capacity\"", "\"records\"", "\"lru_evictions\"", "\"epoch_bumps\"",
        "\"digests\"", "\"fingerprint\"", "\"plan_epoch\"",
        "\"epoch_latency\"", "\"prev_epoch_latency\"", "\"orca_latency\"",
        "\"mysql_latency\""}) {
    EXPECT_NE(digests.find(key), std::string::npos) << digests;
  }
  const std::string recorder = db_.FlightRecorderJson();
  for (const char* key :
       {"\"capacity\"", "\"pinned\"", "\"events\"", "\"seq\"",
        "\"admission\"", "\"pinned_trace\""}) {
    EXPECT_NE(recorder.find(key), std::string::npos) << recorder;
  }
}

// ---------------------------------------------------------------------------
// Server-level attribution: sessions, admission outcomes, reconciliation
// ---------------------------------------------------------------------------

TEST_F(IntrospectionTest, SessionSweepReconcilesDigestsWithQueryCounters) {
  Server server(&db_);
  constexpr int kSessions = 4;
  constexpr int kRounds = 5;

  std::vector<std::thread> threads;
  threads.reserve(kSessions);
  for (int t = 0; t < kSessions; ++t) {
    threads.emplace_back([this, &server] {
      auto session = server.CreateSession();
      ASSERT_TRUE(session.ok());
      for (int i = 0; i < kRounds; ++i) {
        // Mixed sweep: the skew join (auto-routed), a cheap aggregate
        // (forced MySQL path), and a statement that errors in binding.
        EXPECT_TRUE((*session)->Query(kSkewSql).ok());
        EXPECT_TRUE(
            (*session)->Query(kCountSql, OptimizerPath::kMySql).ok());
        EXPECT_FALSE((*session)->Query("SELECT * FROM missing_tbl").ok());
      }
    });
  }
  for (std::thread& t : threads) t.join();

  constexpr int64_t kTotal = kSessions * kRounds * 3;
  EXPECT_EQ(db_.metrics().GetCounter("taurus.query.count")->Value(), kTotal);
  int64_t digest_calls = 0;
  int64_t digest_errors = 0;
  for (const DigestSnapshot& d : db_.digest_store().Snapshot()) {
    digest_calls += d.calls;
    digest_errors += d.errors;
  }
  // Exact reconciliation: every query the engine counted has exactly one
  // digest sample (SHOW/introspection surfaces add none of their own).
  EXPECT_EQ(db_.digest_store().lru_evictions(), 0);
  EXPECT_EQ(digest_calls, kTotal);
  EXPECT_EQ(digest_errors,
            db_.metrics().GetCounter("taurus.query.errors")->Value());
  EXPECT_EQ(db_.digest_store().records(), kTotal);
  // The flight recorder saw the same traffic (no admission rejections in
  // this sweep, so engine events are the only events).
  EXPECT_EQ(db_.flight_recorder().records(), kTotal);
  // Session attribution survived the fan-in: events from at least two
  // distinct sessions are in the ring.
  std::vector<FlightRecord> events = db_.flight_recorder().Snapshot();
  uint64_t min_session = UINT64_MAX;
  uint64_t max_session = 0;
  for (const FlightRecord& rec : events) {
    const uint64_t session = rec.event.session_id;
    min_session = session < min_session ? session : min_session;
    max_session = session > max_session ? session : max_session;
  }
  EXPECT_GE(min_session, 1u);
  EXPECT_GT(max_session, min_session);
}

TEST_F(IntrospectionTest, ShedQueriesCarryAdmissionAttributionEverywhere) {
  Server server(&db_);
  // A 1-byte memory budget puts every admission under memory pressure, so
  // each auto-routed query is deterministically shed to the MySQL path.
  server.server_config().memory_budget_bytes = 1;
  auto session = server.CreateSession();
  ASSERT_TRUE(session.ok());

  auto res = (*session)->Query(kCountSql);  // default path: kAuto, sheddable
  ASSERT_TRUE(res.ok()) << res.status().ToString();
  EXPECT_TRUE(res->shed);
  EXPECT_TRUE(res->fell_back);
  EXPECT_NE(res->fallback_reason.find("server.admission/shed"),
            std::string::npos)
      << res->fallback_reason;
  EXPECT_EQ((*session)->shed(), 1);

  const DigestSnapshot d = DigestWithCalls(1);
  EXPECT_EQ(d.shed, 1);
  EXPECT_EQ(d.fallbacks, 1);

  FlightRecord rec;
  ASSERT_TRUE(db_.flight_recorder().Find(res->flight_seq, &rec));
  EXPECT_STREQ(AdmissionOutcome(rec.event), "shed");
  EXPECT_TRUE(rec.event.shed);
  EXPECT_EQ(rec.event.session_id, (*session)->id());
}

// ---------------------------------------------------------------------------
// One story per execution: the result, the digest row and the flight record
// report the same facts for queries the exec row budget kills.
// ---------------------------------------------------------------------------

/// Lower bound on the first compile's optimize time: the summed durations
/// of the first "compile" span's children, which all run inside it.
double FirstCompileChildMs(const Tracer& trace) {
  const TraceSpan* compile = trace.Find("compile");
  if (compile == nullptr) return -1.0;
  double sum = 0.0;
  for (const TraceSpan& span : trace.spans()) {
    if (span.parent == compile->id) sum += span.duration_ms();
  }
  return sum;
}

TEST_F(IntrospectionTest, BudgetKilledQueriesTellOneStoryEverywhere) {
  db_.router_config().complex_query_threshold = 1;  // kAuto detours the join
  db_.trace_config().enable = true;
  db_.resource_budget().max_exec_rows = 5;  // kills every Orca-plan join

  // Forced Orca: the plan compiles (and fingerprints), then the executor
  // budget kills it. There is no result, only an error.
  auto forced = db_.Query(kSkewSql, OptimizerPath::kOrca);
  ASSERT_FALSE(forced.ok());
  EXPECT_EQ(forced.status().code(), StatusCode::kResourceExhausted);
  const FlightRecord forced_rec = db_.flight_recorder().Snapshot().back();
  const QueryEvent& forced_event = forced_rec.event;
  EXPECT_NE(forced_event.fingerprint, 0u);
  EXPECT_TRUE(forced_rec.error());
  EXPECT_TRUE(forced_event.used_orca);
  EXPECT_FALSE(forced_event.fell_back);
  EXPECT_FALSE(forced_event.plan_cache_hit);
  ASSERT_NE(forced_event.trace, nullptr);
  EXPECT_GE(forced_event.optimize_ms,
            FirstCompileChildMs(*forced_event.trace));
  {
    const DigestSnapshot* d =
        FindDigest(db_.digest_store().Snapshot(), forced_event.fingerprint);
    ASSERT_NE(d, nullptr);
    EXPECT_EQ(d->calls, 1);
    EXPECT_EQ(d->errors, 1);
    EXPECT_EQ(d->orca_calls, 1);
    EXPECT_EQ(d->fallbacks, 0);
    EXPECT_EQ(d->plan_cache_hits, 0);
  }

  // Auto route: the budget kills the Orca plan, the engine recompiles on
  // the MySQL path and re-executes. The second run finds both plans cached.
  const std::string auto_sql =
      "SELECT d_pad, f_id FROM fact, dim WHERE f_k = d_k";
  for (int run = 0; run < 2; ++run) {
    auto res = db_.Query(auto_sql, OptimizerPath::kAuto);
    ASSERT_TRUE(res.ok()) << res.status().ToString();
    EXPECT_TRUE(res->fell_back);
    EXPECT_FALSE(res->used_orca);
    EXPECT_EQ(res->plan_cache_hit, run == 1);
    EXPECT_NE(res->fallback_reason.find("row budget"), std::string::npos)
        << res->fallback_reason;

    FlightRecord rec;
    ASSERT_TRUE(db_.flight_recorder().Find(res->flight_seq, &rec));
    const QueryEvent& e = rec.event;
    EXPECT_EQ(e.fingerprint, res->fingerprint);
    EXPECT_NE(e.fingerprint, 0u);
    EXPECT_NE(e.fingerprint, forced_event.fingerprint);
    EXPECT_FALSE(rec.error());
    EXPECT_FALSE(e.used_orca);
    EXPECT_TRUE(e.fell_back);
    EXPECT_EQ(e.plan_cache_hit, res->plan_cache_hit);
    EXPECT_DOUBLE_EQ(e.optimize_ms, res->optimize_ms);
    ASSERT_NE(e.trace, nullptr);
    EXPECT_EQ(e.trace, res->trace);
    EXPECT_NE(e.trace->Find("fallback.recompile"), nullptr);
    EXPECT_GE(res->optimize_ms, FirstCompileChildMs(*e.trace));

    const DigestSnapshot* d =
        FindDigest(db_.digest_store().Snapshot(), e.fingerprint);
    ASSERT_NE(d, nullptr);
    EXPECT_EQ(d->calls, run + 1);
    EXPECT_EQ(d->errors, 0);
    EXPECT_EQ(d->orca_calls, 0);
    EXPECT_EQ(d->mysql_calls, run + 1);
    EXPECT_EQ(d->fallbacks, run + 1);
    EXPECT_EQ(d->plan_cache_hits, run);
  }

  // A forced-Orca compile failure happens after fingerprinting, so its
  // error is recorded under the statement's real fingerprint, next to the
  // statement's other executions, not in the fingerprint-0 bucket.
  db_.resource_budget().max_exec_rows = 0;
  db_.plan_cache_config().enable = false;  // the detour must run again
  FaultInjector::Instance().ArmCount("bridge.parse_tree_convert", 1);
  auto failed = db_.Query(kSkewSql, OptimizerPath::kOrca);
  ASSERT_FALSE(failed.ok());
  const FlightRecord failed_rec = db_.flight_recorder().Snapshot().back();
  EXPECT_TRUE(failed_rec.error());
  EXPECT_EQ(failed_rec.event.fingerprint, forced_event.fingerprint);
  const DigestSnapshot* d =
      FindDigest(db_.digest_store().Snapshot(), forced_event.fingerprint);
  ASSERT_NE(d, nullptr);
  EXPECT_EQ(d->calls, 2);
  EXPECT_EQ(d->errors, 2);
  EXPECT_EQ(FindDigest(db_.digest_store().Snapshot(), 0), nullptr);
}

}  // namespace
}  // namespace taurus
