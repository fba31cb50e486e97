#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/fault_injector.h"
#include "obs/flight_recorder.h"
#include "obs/trace.h"
#include "server/server.h"
#include "workloads/tpcds.h"
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

/// Order-insensitive result fingerprint with doubles rounded, so plan
/// differences (path, parallelism) cannot produce spurious mismatches.
std::string Fingerprint(std::vector<Row> rows) {
  SortRows(&rows);
  std::string out;
  char buf[40];
  for (const Row& r : rows) {
    for (const Value& v : r) {
      if (v.kind() == Value::Kind::kDouble) {
        std::snprintf(buf, sizeof(buf), "%.4f|", v.AsDouble());
        out += buf;
      } else {
        out += v.ToString();
        out += '|';
      }
    }
    out += '\n';
  }
  return out;
}

/// Engines shared by the whole suite — one TPC-H, one TPC-DS (the schemas
/// share table names, so they cannot coexist in one catalog). Both get the
/// routing threshold lowered so kAuto detours, and the parallel executor
/// allowed to engage on these tiny tables. Each test wraps an engine in
/// its own Server, so admission knobs never leak between tests.
class ServerStressTest : public ::testing::Test {
 protected:
  static void Tune(Database* d) {
    d->router_config().complex_query_threshold = 1;
    d->exec_config().parallel_min_driver_rows = 64;
    d->exec_config().morsel_rows = 64;
  }

  static Database* db() {
    static Database* instance = [] {
      auto* d = new Database();
      auto st = SetupTpch(d, 0.001);
      EXPECT_TRUE(st.ok()) << st.ToString();
      Tune(d);
      return d;
    }();
    return instance;
  }

  static Database* ds_db() {
    static Database* instance = [] {
      auto* d = new Database();
      auto st = SetupTpcds(d, 0.0001);
      EXPECT_TRUE(st.ok()) << st.ToString();
      Tune(d);
      return d;
    }();
    return instance;
  }

  /// The TPC-H query pool: cheap at this scale and clean on the Orca
  /// detour (the empty-quarantine assertion below depends on no detour
  /// ever failing).
  static const std::vector<std::string>& Queries() {
    static const std::vector<std::string> queries = [] {
      const std::vector<std::string>& h = TpchQueries();
      return std::vector<std::string>{h[0], h[2], h[5], h[9]};
    }();
    return queries;
  }

  static const std::vector<std::string>& DsQueries() {
    static const std::vector<std::string> queries = [] {
      const std::vector<std::string>& ds = TpcdsQueries();
      return std::vector<std::string>{ds[0], ds[2], ds[4]};
    }();
    return queries;
  }

  /// Serial MySQL-path row fingerprints, the ground truth every concurrent
  /// execution must reproduce bit-identically.
  static std::vector<std::string> ComputeBaselines(
      Database* d, const std::vector<std::string>& queries) {
    std::vector<std::string> out;
    for (const std::string& sql : queries) {
      auto res = d->Query(sql, OptimizerPath::kMySql);
      EXPECT_TRUE(res.ok()) << res.status().ToString();
      out.push_back(res.ok() ? Fingerprint(res->rows) : "<error>");
    }
    return out;
  }

  static const std::vector<std::string>& Baselines() {
    static const std::vector<std::string> baselines =
        ComputeBaselines(db(), Queries());
    return baselines;
  }

  static const std::vector<std::string>& DsBaselines() {
    static const std::vector<std::string> baselines =
        ComputeBaselines(ds_db(), DsQueries());
    return baselines;
  }

  /// One {sessions x workers x path} sweep leg against `d`: every session
  /// on its own thread, generous admission (no shed, no rejection), every
  /// result compared to the serial baseline.
  static void RunSweep(Database* d, const std::vector<std::string>& queries,
                       const std::vector<std::string>& baselines,
                       int num_sessions, int queries_per_session,
                       OptimizerPath path, const char* label) {
    Server server(d);
    server.server_config().max_sessions = num_sessions;
    server.server_config().admission_queue_depth = 256;
    server.server_config().session_deadline_ms = 0.0;  // never reject
    server.server_config().shed_to_mysql = false;      // honor the path

    std::atomic<int> failures{0};
    std::vector<std::string> errors(static_cast<size_t>(num_sessions));
    std::vector<std::thread> threads;
    threads.reserve(static_cast<size_t>(num_sessions));
    for (int i = 0; i < num_sessions; ++i) {
      threads.emplace_back([&, i] {
        auto session = server.CreateSession();
        if (!session.ok()) {
          errors[static_cast<size_t>(i)] = session.status().ToString();
          failures.fetch_add(1);
          return;
        }
        for (int q = 0; q < queries_per_session; ++q) {
          const size_t idx = static_cast<size_t>(i + q) % queries.size();
          auto res = session.value()->Query(queries[idx], path);
          if (!res.ok()) {
            errors[static_cast<size_t>(i)] = res.status().ToString();
            failures.fetch_add(1);
            return;
          }
          if (Fingerprint(res->rows) != baselines[idx]) {
            errors[static_cast<size_t>(i)] =
                "row mismatch on query " + std::to_string(idx);
            failures.fetch_add(1);
            return;
          }
        }
      });
    }
    for (std::thread& t : threads) t.join();

    std::string first_error;
    for (const std::string& e : errors) {
      if (!e.empty()) {
        first_error = e;
        break;
      }
    }
    EXPECT_EQ(failures.load(), 0) << label << " sessions=" << num_sessions
                                  << ": " << first_error;
    EXPECT_EQ(server.admission().running(), 0);
    EXPECT_EQ(server.admission().queued(), 0u);
  }
};

// ---------------------------------------------------------------------------
// Deterministic admission-controller unit legs (single-threaded where the
// protocol allows it).
// ---------------------------------------------------------------------------

TEST_F(ServerStressTest, AdmissionRejectsWhenQueueFull) {
  Server server(db());
  server.server_config().max_concurrent_queries = 1;
  server.server_config().admission_queue_depth = 0;

  auto held = server.admission().Admit(AdmissionRequest{});
  ASSERT_TRUE(held.ok());
  EXPECT_FALSE(held->queued);
  EXPECT_EQ(server.admission().running(), 1);

  auto rejected = server.admission().Admit(AdmissionRequest{});
  ASSERT_FALSE(rejected.ok());
  EXPECT_EQ(rejected.status().code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(rejected.status().origin_subsystem(), "server.admission");
  EXPECT_EQ(rejected.status().origin_rule(), "queue_full");

  server.admission().Release(held.value());
  EXPECT_EQ(server.admission().running(), 0);
}

TEST_F(ServerStressTest, AdmissionRejectsOnQueueDeadline) {
  Server server(db());
  server.server_config().max_concurrent_queries = 1;
  server.server_config().session_deadline_ms = 30.0;

  auto held = server.admission().Admit(AdmissionRequest{});
  ASSERT_TRUE(held.ok());

  // Nobody releases, so this waiter must time out in the queue.
  auto rejected = server.admission().Admit(AdmissionRequest{});
  ASSERT_FALSE(rejected.ok());
  EXPECT_EQ(rejected.status().code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(rejected.status().origin_rule(), "queue_deadline");
  EXPECT_EQ(server.admission().queued(), 0u);

  server.admission().Release(held.value());
}

TEST_F(ServerStressTest, ReleaseTransfersSlotToFifoWaiterAndMarksShed) {
  Server server(db());
  server.server_config().max_concurrent_queries = 1;
  server.server_config().session_deadline_ms = 0.0;  // wait forever

  auto held = server.admission().Admit(AdmissionRequest{});
  ASSERT_TRUE(held.ok());

  Result<AdmissionTicket> granted = Status::Internal("not run");
  std::thread waiter([&] { granted = server.admission().Admit(AdmissionRequest{}); });
  while (server.admission().queued() == 0) std::this_thread::yield();

  server.admission().Release(held.value());
  waiter.join();

  ASSERT_TRUE(granted.ok()) << granted.status().ToString();
  EXPECT_TRUE(granted->queued);
  // A queued kAuto query is shed onto the MySQL path (shedding is on by
  // default) — the slot transfer and the shed policy in one observable.
  EXPECT_TRUE(granted->shed);
  EXPECT_STREQ(granted->shed_cause, "queue_wait");
  EXPECT_EQ(server.admission().running(), 1);
  server.admission().Release(granted.value());
  EXPECT_EQ(server.admission().running(), 0);
}

TEST_F(ServerStressTest, WorkerTokensAreLeasedAndReturned) {
  Server server(db());
  server.server_config().worker_tokens = 4;

  const int total = server.admission().worker_tokens_free();
  EXPECT_EQ(total, 4);

  AdmissionRequest req;
  req.requested_workers = 8;  // more than the pool: lease clamps to 4
  auto t1 = server.admission().Admit(req);
  ASSERT_TRUE(t1.ok());
  EXPECT_EQ(t1->worker_tokens, 4);
  EXPECT_EQ(server.admission().worker_tokens_free(), 0);

  // With fewer than 2 tokens free, a parallel request runs serial rather
  // than leasing a useless single token.
  auto t2 = server.admission().Admit(req);
  ASSERT_TRUE(t2.ok());
  EXPECT_EQ(t2->worker_tokens, 0);

  server.admission().Release(t1.value());
  server.admission().Release(t2.value());
  EXPECT_EQ(server.admission().worker_tokens_free(), 4);
}

TEST_F(ServerStressTest, MaxSessionsIsEnforced) {
  Server server(db());
  server.server_config().max_sessions = 2;

  auto s1 = server.CreateSession();
  auto s2 = server.CreateSession();
  ASSERT_TRUE(s1.ok());
  ASSERT_TRUE(s2.ok());
  EXPECT_EQ(server.open_sessions(), 2);

  auto s3 = server.CreateSession();
  ASSERT_FALSE(s3.ok());
  EXPECT_EQ(s3.status().code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(s3.status().origin_rule(), "max_sessions");

  // Closing a session frees its slot.
  s2.value().reset();
  EXPECT_EQ(server.open_sessions(), 1);
  auto s4 = server.CreateSession();
  EXPECT_TRUE(s4.ok());
}

TEST_F(ServerStressTest, SessionQueriesCarryTheirOwnTraces) {
  Server server(db());
  server.server_config().session_deadline_ms = 0.0;
  server.server_config().shed_to_mysql = false;

  auto s1 = server.CreateSession();
  auto s2 = server.CreateSession();
  ASSERT_TRUE(s1.ok());
  ASSERT_TRUE(s2.ok());
  s1.value()->options().trace = true;
  s2.value()->options().trace = true;

  auto r1 = s1.value()->Query(Queries()[0]);
  ASSERT_TRUE(r1.ok());
  const Tracer* t1 = r1->trace.get();
  auto r2 = s2.value()->Query(Queries()[1]);
  ASSERT_TRUE(r2.ok());

  // Each query's trace travels on its own result; s2's later query did not
  // replace the trace s1's result holds.
  ASSERT_NE(t1, nullptr);
  ASSERT_NE(r2->trace, nullptr);
  EXPECT_NE(t1, r2->trace.get());
  EXPECT_EQ(r1->trace.get(), t1);
  EXPECT_NE(t1->Find("query"), nullptr);

  // A session without tracing gets no trace while the engine knob is off.
  s1.value()->options().trace = false;
  auto untraced = s1.value()->Query(Queries()[0]);
  ASSERT_TRUE(untraced.ok());
  EXPECT_EQ(untraced->trace, nullptr);
}

// ---------------------------------------------------------------------------
// The tentpole: N sessions on N threads drive one engine concurrently, on
// both optimizer paths, and every result is bit-identical to the serial
// baseline. Sweeps {4, 16, 64} sessions x {1, 4} executor workers.
// ---------------------------------------------------------------------------

TEST_F(ServerStressTest, ConcurrentSessionsMatchSerialBaseline) {
  for (int exec_workers : {1, 4}) {
    db()->exec_config().parallel_workers = exec_workers;  // quiesced write
    for (int num_sessions : {4, 16, 64}) {
      // Enough queries to overlap, few enough to keep the sweep fast.
      const int queries_per_session = num_sessions >= 64 ? 1 : 2;
      for (OptimizerPath path :
           {OptimizerPath::kMySql, OptimizerPath::kAuto}) {
        RunSweep(db(), Queries(), Baselines(), num_sessions,
                 queries_per_session, path,
                 path == OptimizerPath::kAuto ? "tpch/auto" : "tpch/mysql");
      }
    }
  }
  db()->exec_config().parallel_workers = 0;

  // None of these workloads fails the detour, so the quarantine stays
  // empty and no compile is routed away from Orca by it.
  EXPECT_EQ(db()->quarantine_table().Size(), 0u);
  EXPECT_EQ(
      db()->metrics().GetCounter("taurus.health.quarantine_hits")->Value(),
      0);
}

TEST_F(ServerStressTest, ConcurrentTpcdsSessionsMatchSerialBaseline) {
  for (int exec_workers : {1, 4}) {
    ds_db()->exec_config().parallel_workers = exec_workers;
    for (int num_sessions : {4, 16, 64}) {
      const int queries_per_session = num_sessions >= 64 ? 1 : 2;
      for (OptimizerPath path :
           {OptimizerPath::kMySql, OptimizerPath::kAuto}) {
        RunSweep(ds_db(), DsQueries(), DsBaselines(), num_sessions,
                 queries_per_session, path,
                 path == OptimizerPath::kAuto ? "tpcds/auto" : "tpcds/mysql");
      }
    }
  }
  ds_db()->exec_config().parallel_workers = 0;
}

// ---------------------------------------------------------------------------
// The overload leg: far more sessions than run slots, a shallow queue and a
// short deadline. Every query must either succeed (possibly shed onto the
// MySQL path, rows still correct) or be rejected with a structured
// kResourceExhausted — never crash, deadlock, or return wrong rows.
// ---------------------------------------------------------------------------

TEST_F(ServerStressTest, OverloadShedsOrRejectsButNeverCorrupts) {
  const std::vector<std::string>& queries = Queries();
  const std::vector<std::string>& baselines = Baselines();

  Server server(db());
  server.server_config().max_concurrent_queries = 2;
  server.server_config().admission_queue_depth = 4;
  server.server_config().session_deadline_ms = 25.0;
  server.server_config().shed_to_mysql = true;

  const int64_t sheds_before =
      db()->metrics().GetCounter("taurus.server.shed")->Value();

  constexpr int kSessions = 32;
  constexpr int kQueriesPerSession = 3;
  std::atomic<int> ok_count{0};
  std::atomic<int> shed_count{0};
  std::atomic<int> rejected_count{0};
  std::atomic<int> bad_outcomes{0};
  std::vector<std::string> errors(kSessions);

  std::vector<std::thread> threads;
  threads.reserve(kSessions);
  for (int i = 0; i < kSessions; ++i) {
    threads.emplace_back([&, i] {
      auto session = server.CreateSession();
      if (!session.ok()) {
        errors[static_cast<size_t>(i)] = session.status().ToString();
        bad_outcomes.fetch_add(1);
        return;
      }
      for (int q = 0; q < kQueriesPerSession; ++q) {
        const size_t idx = static_cast<size_t>(i + q) % queries.size();
        auto res = session.value()->Query(queries[idx], OptimizerPath::kAuto);
        if (res.ok()) {
          ok_count.fetch_add(1);
          if (res->shed) {
            shed_count.fetch_add(1);
            // A shed is observable: the query fell back with a structured
            // admission reason, and its rows are still correct.
            if (!res->fell_back ||
                res->fallback_reason.find("server.admission/shed") ==
                    std::string::npos) {
              errors[static_cast<size_t>(i)] =
                  "shed without structured reason: " + res->fallback_reason;
              bad_outcomes.fetch_add(1);
              return;
            }
          }
          if (Fingerprint(res->rows) != baselines[idx]) {
            errors[static_cast<size_t>(i)] = "row mismatch under overload";
            bad_outcomes.fetch_add(1);
            return;
          }
        } else if (res.status().code() == StatusCode::kResourceExhausted &&
                   res.status().origin_subsystem() == "server.admission") {
          rejected_count.fetch_add(1);
        } else {
          errors[static_cast<size_t>(i)] = res.status().ToString();
          bad_outcomes.fetch_add(1);
          return;
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();

  std::string first_error;
  for (const std::string& e : errors) {
    if (!e.empty()) {
      first_error = e;
      break;
    }
  }
  EXPECT_EQ(bad_outcomes.load(), 0) << first_error;
  EXPECT_EQ(ok_count.load() + rejected_count.load(),
            kSessions * kQueriesPerSession);
  // With 96 queries contending for 2 slots, shedding must engage, and it
  // must be visible in the server metrics.
  EXPECT_GT(shed_count.load(), 0);
  EXPECT_GE(db()->metrics().GetCounter("taurus.server.shed")->Value(),
            sheds_before + shed_count.load());
  // Quiesced again: no slots or tokens leaked despite rejections.
  EXPECT_EQ(server.admission().running(), 0);
  EXPECT_EQ(server.admission().queued(), 0u);
  EXPECT_EQ(server.admission().memory_in_use_bytes(), 0);
}

// Forced paths are explicit instructions: under the same overload they may
// queue or be rejected, but never shed.
TEST_F(ServerStressTest, ForcedPathsAreNeverShed) {
  Server server(db());
  server.server_config().max_concurrent_queries = 1;
  server.server_config().session_deadline_ms = 0.0;  // wait, don't reject

  constexpr int kSessions = 8;
  std::atomic<int> shed_count{0};
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  threads.reserve(kSessions);
  for (int i = 0; i < kSessions; ++i) {
    threads.emplace_back([&, i] {
      auto session = server.CreateSession();
      if (!session.ok()) {
        failures.fetch_add(1);
        return;
      }
      auto res = session.value()->Query(Queries()[static_cast<size_t>(i) %
                                                  Queries().size()],
                                        OptimizerPath::kMySql);
      if (!res.ok()) {
        failures.fetch_add(1);
        return;
      }
      if (res->shed) shed_count.fetch_add(1);
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(shed_count.load(), 0);
}

// Post-mortem under concurrency: overlapping sessions abort their Orca
// detours while other sessions keep executing. The flight recorder must
// hold every aborted detour's full span tree in its pinned ring slot,
// attributed to a session. Uses a private engine: poisoning the shared
// db()'s quarantine would break the empty-quarantine assertions above.
TEST_F(ServerStressTest, AbortedDetourTracesSurviveOverlappingSessions) {
  Database db;
  ASSERT_TRUE(SetupTpch(&db, 0.001).ok());
  Tune(&db);
  db.plan_cache_config().enable = false;  // every compile attempts a detour
  Server server(&db);
  // Enough run slots for every session: on small machines the default
  // (2x hardware workers) makes arrivals queue, and a queued kAuto query
  // is shed onto the MySQL path — it would never attempt its detour.
  server.server_config().max_concurrent_queries = 8;

  constexpr int kSessions = 4;
  constexpr int kQueriesPerSession = 6;
  FaultInjector::Instance().ArmCount("bridge.parse_tree_convert", 1000000);
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  threads.reserve(kSessions);
  for (int i = 0; i < kSessions; ++i) {
    threads.emplace_back([&, i] {
      auto session = server.CreateSession();
      if (!session.ok()) {
        failures.fetch_add(1);
        return;
      }
      session.value()->options().trace = true;
      const std::vector<std::string>& queries = Queries();
      for (int q = 0; q < kQueriesPerSession; ++q) {
        auto res = session.value()->Query(
            queries[static_cast<size_t>(i + q) % queries.size()],
            OptimizerPath::kAuto);
        if (!res.ok()) failures.fetch_add(1);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  FaultInjector::Instance().DisarmAll();
  ASSERT_EQ(failures.load(), 0);

  // Every aborted-detour event still carries its span tree, long after the
  // sessions dropped their results. Quarantine engages mid-sweep (threshold
  // failures per statement), so later events are quarantine hits — pinned
  // too, but routed around the detour.
  std::vector<FlightRecord> events = db.flight_recorder().Snapshot();
  ASSERT_EQ(events.size(),
            static_cast<size_t>(kSessions * kQueriesPerSession));
  int aborted_detours = 0;
  for (const FlightRecord& rec : events) {
    const QueryEvent& e = rec.event;
    EXPECT_TRUE(e.fell_back || e.quarantine_hit);
    EXPECT_FALSE(e.shed) << "run slots were provisioned; no query may shed";
    ASSERT_NE(e.trace, nullptr) << "event " << e.flight_seq
                                << " lost its trace";
    EXPECT_GE(e.session_id, 1u);
    const std::string tree = e.trace->TreeString();
    if (e.fell_back && !e.quarantine_hit) {
      ++aborted_detours;
      EXPECT_NE(tree.find("orca.detour"), std::string::npos) << tree;
    } else {
      EXPECT_EQ(tree.find("orca.detour"), std::string::npos) << tree;
    }
  }
  EXPECT_GT(aborted_detours, 0);
  EXPECT_EQ(db.flight_recorder().pinned(),
            static_cast<int64_t>(events.size()));
}

// Memory pressure is a shed signal even without queueing: a tiny budget
// makes the very first admitted query over-budget.
TEST_F(ServerStressTest, MemoryPressureShedsWithoutQueueing) {
  Server server(db());
  server.server_config().memory_budget_bytes = 1;

  auto session = server.CreateSession();
  ASSERT_TRUE(session.ok());
  auto res = session.value()->Query(Queries()[0], OptimizerPath::kAuto);
  ASSERT_TRUE(res.ok()) << res.status().ToString();
  EXPECT_TRUE(res->shed);
  EXPECT_FALSE(res->admission_queued);
  EXPECT_NE(res->fallback_reason.find("memory_pressure"), std::string::npos);
  EXPECT_EQ(server.admission().memory_in_use_bytes(), 0);
}

}  // namespace
}  // namespace taurus
