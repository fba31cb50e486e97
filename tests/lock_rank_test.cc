// Tests for the runtime lock-order analyzer (common/lock_rank.h): injected
// rank inversions must be caught with the exact diagnostic (both lock
// names + rule id + DESIGN.md reference), and a full TPC-H/TPC-DS sweep
// through both optimizer paths with the registry armed must be violation
// free — the machine-checked version of the DESIGN.md section 12 prose.
#include "common/lock_rank.h"

#include <gtest/gtest.h>

#include <atomic>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "common/mutex.h"
#include "server/server.h"
#include "workloads/tpcds.h"
#include "workloads/tpch.h"

namespace taurus {
namespace {

std::vector<LockRankViolation> g_captured;

/// Records the violation for assertions. Used for the clean-sweep test,
/// where any capture is a failure.
void CaptureHandler(const LockRankViolation& v) { g_captured.push_back(v); }

/// Records and then unwinds out of Mutex::lock() before the underlying
/// acquisition, so deliberately-injected inversions (including recursive
/// self-locks, which would deadlock) never actually take the lock.
struct LockRankError : std::runtime_error {
  using std::runtime_error::runtime_error;
};
void ThrowHandler(const LockRankViolation& v) {
  g_captured.push_back(v);
  throw LockRankError(v.message);
}

class LockRankTest : public ::testing::Test {
 protected:
  void SetUp() override {
    LockRankRegistry::SetEnabled(true);
    LockRankRegistry::ResetCountersForTest();
    LockRankRegistry::SetViolationHandler(&ThrowHandler);
    g_captured.clear();
  }
  void TearDown() override {
    LockRankRegistry::SetViolationHandler(nullptr);
    LockRankRegistry::SetEnabled(kLockRankChecksDefault);
    EXPECT_EQ(LockRankRegistry::HeldDepthForTest(), 0)
        << "test leaked a held-lock stack entry";
  }
};

TEST_F(LockRankTest, AscendingAcquisitionIsClean) {
  Mutex admission(LockRank::kServerAdmission, "server.admission");
  Mutex pool(LockRank::kThreadPool, "common.thread_pool");
  admission.lock();
  pool.lock();
  pool.unlock();
  admission.unlock();
  EXPECT_TRUE(g_captured.empty());
  EXPECT_GE(LockRankRegistry::checks(), 2);
  EXPECT_EQ(LockRankRegistry::violations(), 0);
}

TEST_F(LockRankTest, RankInversionIsCaughtWithBothNamesAndRule) {
  Mutex pool(LockRank::kThreadPool, "common.thread_pool");
  Mutex admission(LockRank::kServerAdmission, "server.admission");
  pool.lock();
  EXPECT_THROW(admission.lock(), LockRankError);
  pool.unlock();

  ASSERT_EQ(g_captured.size(), 1u);
  const LockRankViolation& v = g_captured[0];
  EXPECT_STREQ(v.rule, "LR1");
  EXPECT_EQ(v.acquiring, "server.admission");
  EXPECT_EQ(v.holding, "common.thread_pool");
  EXPECT_EQ(v.acquiring_rank, 10);
  EXPECT_EQ(v.holding_rank, 70);
  // The exact diagnostic: both lock names, both ranks, the rule id, and
  // the DESIGN.md rule text.
  EXPECT_EQ(v.message,
            "lock-rank violation [LR1]: acquiring \"server.admission\" "
            "(rank 10) while holding \"common.thread_pool\" (rank 70) — "
            "DESIGN.md §12 LR1: locks must be acquired in ascending rank "
            "order");
  EXPECT_EQ(LockRankRegistry::violations(), 1);
}

TEST_F(LockRankTest, RecursiveAcquisitionIsCaught) {
  Mutex registry(LockRank::kMetricsRegistry, "obs.metrics_registry");
  registry.lock();
  EXPECT_THROW(registry.lock(), LockRankError);
  registry.unlock();

  ASSERT_EQ(g_captured.size(), 1u);
  EXPECT_STREQ(g_captured[0].rule, "LR2");
  EXPECT_EQ(g_captured[0].acquiring, "obs.metrics_registry");
  EXPECT_EQ(g_captured[0].holding, "obs.metrics_registry");
  EXPECT_NE(g_captured[0].message.find(
                "LR2: recursive acquisition of a non-recursive lock"),
            std::string::npos)
      << g_captured[0].message;
}

TEST_F(LockRankTest, LeafBandForbidsAnyNestedAcquisition) {
  Mutex registry(LockRank::kMetricsRegistry, "obs.metrics_registry");
  // Even a higher rank may not nest under a leaf-band lock.
  Mutex injector(LockRank::kFaultInjector, "common.fault_injector");
  registry.lock();
  EXPECT_THROW(injector.lock(), LockRankError);
  registry.unlock();

  ASSERT_EQ(g_captured.size(), 1u);
  EXPECT_STREQ(g_captured[0].rule, "LR3");
  EXPECT_EQ(g_captured[0].acquiring, "common.fault_injector");
  EXPECT_EQ(g_captured[0].holding, "obs.metrics_registry");
  EXPECT_NE(g_captured[0].message.find(
                "LR3: no lock may be acquired while holding a leaf-band "
                "lock"),
            std::string::npos)
      << g_captured[0].message;
}

TEST_F(LockRankTest, SameRankNestingIsCaughtInEitherOrder) {
  Mutex first(LockRank::kQuarantine, "engine.quarantine");
  Mutex second(LockRank::kQuarantine, "engine.quarantine.other");
  const std::string expected_first =
      "lock-rank violation [LR2]: acquiring \"engine.quarantine.other\" "
      "(rank 30) while holding \"engine.quarantine\" (rank 30) — "
      "DESIGN.md §12 LR2: no two locks of the same rank may be held at "
      "once";
  const std::string expected_second =
      "lock-rank violation [LR2]: acquiring \"engine.quarantine\" "
      "(rank 30) while holding \"engine.quarantine.other\" (rank 30) — "
      "DESIGN.md §12 LR2: no two locks of the same rank may be held at "
      "once";

  first.lock();
  EXPECT_THROW(second.lock(), LockRankError);
  first.unlock();
  second.lock();
  EXPECT_THROW(first.lock(), LockRankError);
  second.unlock();

  ASSERT_EQ(g_captured.size(), 2u);
  EXPECT_STREQ(g_captured[0].rule, "LR2");
  EXPECT_EQ(g_captured[0].acquiring, "engine.quarantine.other");
  EXPECT_EQ(g_captured[0].holding, "engine.quarantine");
  EXPECT_EQ(g_captured[0].message, expected_first);
  EXPECT_STREQ(g_captured[1].rule, "LR2");
  EXPECT_EQ(g_captured[1].acquiring, "engine.quarantine");
  EXPECT_EQ(g_captured[1].holding, "engine.quarantine.other");
  EXPECT_EQ(g_captured[1].message, expected_second);
  EXPECT_EQ(LockRankRegistry::violations(), 2);
}

TEST_F(LockRankTest, SharedAcquisitionsRankLikeExclusive) {
  SharedMutex relations(LockRank::kMdpRelationCache, "mdp.relation_cache");
  SharedMutex quarantine(LockRank::kQuarantine, "engine.quarantine");
  relations.lock_shared();
  // Reader or writer makes no difference to ordering: rank 30 under 50.
  EXPECT_THROW(quarantine.lock_shared(), LockRankError);
  relations.unlock_shared();
  ASSERT_EQ(g_captured.size(), 1u);
  EXPECT_STREQ(g_captured[0].rule, "LR1");
}

TEST_F(LockRankTest, UnrankedLocksAreExemptFromOrdering) {
  Mutex pool(LockRank::kThreadPool, "common.thread_pool");
  Mutex scratch;  // kUnranked: test/example locks opt out of ordering
  pool.lock();
  scratch.lock();  // would be LR1 if ranked
  scratch.unlock();
  pool.unlock();
  EXPECT_TRUE(g_captured.empty());
  // But recursive self-locking is still caught even unranked.
  scratch.lock();
  EXPECT_THROW(scratch.lock(), LockRankError);
  scratch.unlock();
  ASSERT_EQ(g_captured.size(), 1u);
  EXPECT_STREQ(g_captured[0].rule, "LR2");
}

TEST_F(LockRankTest, DisabledRegistryChecksNothing) {
  LockRankRegistry::SetEnabled(false);
  Mutex pool(LockRank::kThreadPool, "common.thread_pool");
  Mutex admission(LockRank::kServerAdmission, "server.admission");
  pool.lock();
  admission.lock();  // inverted, but the registry is off
  admission.unlock();
  pool.unlock();
  EXPECT_TRUE(g_captured.empty());
  EXPECT_EQ(LockRankRegistry::checks(), 0);
}

/// The clean bill: every TPC-H and TPC-DS query through both optimizer
/// paths — serial and with the parallel executor and tracing engaged,
/// plus a concurrent multi-session burst through Server/admission — with
/// the registry armed. Zero violations proves the shipped lock orderings
/// match the DESIGN.md section 12 rank table end to end.
TEST_F(LockRankTest, TpchTpcdsBothPathSweepIsViolationFree) {
  LockRankRegistry::SetViolationHandler(&CaptureHandler);
  const int64_t checks_before = LockRankRegistry::checks();

  for (int workload = 0; workload < 2; ++workload) {
    Database db;
    auto st = workload == 0 ? SetupTpch(&db, 0.001) : SetupTpcds(&db, 0.0001);
    ASSERT_TRUE(st.ok()) << st.ToString();
    // Engage every concurrent subsystem: Orca detours, the parallel
    // executor's worker pool, tracing.
    db.router_config().complex_query_threshold = 1;
    db.exec_config().parallel_workers = 2;
    db.exec_config().parallel_min_driver_rows = 64;
    db.exec_config().morsel_rows = 64;
    db.trace_config().enable = true;
    const std::vector<std::string>& queries =
        workload == 0 ? TpchQueries() : TpcdsQueries();

    for (OptimizerPath path : {OptimizerPath::kMySql, OptimizerPath::kAuto}) {
      for (const std::string& sql : queries) {
        auto res = db.Query(sql, path);
        ASSERT_TRUE(res.ok()) << res.status().ToString();
      }
    }

    // Concurrent burst: 4 sessions re-running the first queries through
    // admission, exercising the server.admission -> engine lock ordering
    // and the plan-cache hit path under contention.
    Server server(&db);
    std::vector<std::thread> threads;
    std::atomic<int> failures{0};
    for (int t = 0; t < 4; ++t) {
      threads.emplace_back([&server, &queries, &failures] {
        auto session = server.CreateSession();
        if (!session.ok()) {
          failures.fetch_add(1);
          return;
        }
        for (size_t q = 0; q < 4 && q < queries.size(); ++q) {
          auto res = (*session)->Query(queries[q], OptimizerPath::kAuto);
          if (!res.ok()) failures.fetch_add(1);
        }
      });
    }
    for (std::thread& t : threads) t.join();
    EXPECT_EQ(failures.load(), 0);

    // Plan-cache maintenance calls take the cache lock too.
    db.plan_cache().set_capacity(128);
    db.plan_cache().Clear();

    // The counters surface next to the plan-verifier metrics.
    std::string json = db.MetricsJson();
    EXPECT_NE(json.find("taurus.verify.lock_rank.checks"), std::string::npos);
    EXPECT_NE(json.find("taurus.verify.lock_rank.violations"),
              std::string::npos);
  }

  EXPECT_GT(LockRankRegistry::checks(), checks_before)
      << "sweep exercised no instrumented locks";
  EXPECT_EQ(LockRankRegistry::violations(), 0);
  for (const LockRankViolation& v : g_captured) {
    ADD_FAILURE() << "unexpected lock-rank violation: " << v.message;
  }
}

}  // namespace
}  // namespace taurus
