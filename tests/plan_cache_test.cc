#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "engine/database.h"
#include "engine/plan_cache.h"
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

/// Small schema with enough shape variety (indexes, joins, subqueries) to
/// exercise freeze/thaw across both optimizer routes.
class PlanCacheTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(db_.ExecuteSql(
                       "CREATE TABLE dept (d_id INT NOT NULL PRIMARY KEY, "
                       "d_name VARCHAR(20) NOT NULL)")
                    .ok());
    ASSERT_TRUE(db_.ExecuteSql(
                       "CREATE TABLE emp (e_id INT NOT NULL PRIMARY KEY, "
                       "e_dept INT NOT NULL, e_salary DOUBLE NOT NULL, "
                       "e_name VARCHAR(20) NOT NULL)")
                    .ok());
    std::vector<Row> depts;
    for (int i = 0; i < 8; ++i) {
      depts.push_back({Value::Int(i), Value::Str("dept" + std::to_string(i))});
    }
    ASSERT_TRUE(db_.BulkLoad("dept", std::move(depts)).ok());
    std::vector<Row> emps;
    for (int i = 0; i < 120; ++i) {
      emps.push_back({Value::Int(i), Value::Int(i % 8),
                      Value::Double(1000.0 + 37.0 * (i % 11)),
                      Value::Str("emp" + std::to_string(i))});
    }
    ASSERT_TRUE(db_.BulkLoad("emp", std::move(emps)).ok());
    ASSERT_TRUE(db_.AnalyzeAll().ok());
    db_.plan_cache().ResetStats();
  }

  Database db_;
};

TEST_F(PlanCacheTest, SecondCompileOfIdenticalSqlHits) {
  const std::string sql = "SELECT e_name FROM emp WHERE e_salary > 1200";
  auto cold = db_.Query(sql, OptimizerPath::kMySql);
  ASSERT_TRUE(cold.ok()) << cold.status().ToString();
  EXPECT_FALSE(cold->plan_cache_hit);
  auto warm = db_.Query(sql, OptimizerPath::kMySql);
  ASSERT_TRUE(warm.ok());
  EXPECT_TRUE(warm->plan_cache_hit);
  EXPECT_GE(warm->optimize_saved_ms, 0.0);
  EXPECT_EQ(RowsText(cold->rows), RowsText(warm->rows));
  EXPECT_EQ(db_.plan_cache().stats().hits, 1);
}

TEST_F(PlanCacheTest, WhitespaceAndCaseVariantsCollide) {
  auto cold = db_.Query("SELECT e_name FROM emp WHERE e_salary > 1200",
                        OptimizerPath::kMySql);
  ASSERT_TRUE(cold.ok());
  auto warm = db_.Query(
      "select   E_NAME\n  from EMP\n where e_Salary > 1200",
      OptimizerPath::kMySql);
  ASSERT_TRUE(warm.ok());
  EXPECT_TRUE(warm->plan_cache_hit);
  EXPECT_EQ(RowsText(cold->rows), RowsText(warm->rows));
}

TEST_F(PlanCacheTest, DifferentLiteralsMiss) {
  ASSERT_TRUE(
      db_.Query("SELECT e_name FROM emp WHERE e_salary > 1200").ok());
  auto other = db_.Query("SELECT e_name FROM emp WHERE e_salary > 1300");
  ASSERT_TRUE(other.ok());
  EXPECT_FALSE(other->plan_cache_hit);
}

TEST_F(PlanCacheTest, DifferentPathsDoNotShareEntries) {
  const std::string sql =
      "SELECT d_name, COUNT(*) FROM emp, dept "
      "WHERE e_dept = d_id GROUP BY d_name";
  auto mysql = db_.Query(sql, OptimizerPath::kMySql);
  ASSERT_TRUE(mysql.ok());
  auto orca = db_.Query(sql, OptimizerPath::kOrca);
  ASSERT_TRUE(orca.ok());
  // The Orca-forced compile must not reuse the MySQL-route entry.
  EXPECT_FALSE(orca->plan_cache_hit);
  EXPECT_TRUE(orca->used_orca);
  auto orca2 = db_.Query(sql, OptimizerPath::kOrca);
  ASSERT_TRUE(orca2.ok());
  EXPECT_TRUE(orca2->plan_cache_hit);
  EXPECT_TRUE(orca2->used_orca);
  EXPECT_EQ(RowsText(mysql->rows), RowsText(orca2->rows));
}

TEST_F(PlanCacheTest, LruEvictionAtCapacity) {
  db_.plan_cache_config().capacity = 2;
  auto q = [&](int cutoff) {
    return db_.Query("SELECT e_id FROM emp WHERE e_id < " +
                         std::to_string(cutoff),
                     OptimizerPath::kMySql);
  };
  ASSERT_TRUE(q(10).ok());
  ASSERT_TRUE(q(20).ok());
  ASSERT_TRUE(q(30).ok());  // evicts the cutoff-10 entry
  EXPECT_EQ(db_.plan_cache().size(), 2u);
  EXPECT_GE(db_.plan_cache().stats().evictions, 1);
  auto r10 = q(10);
  ASSERT_TRUE(r10.ok());
  EXPECT_FALSE(r10->plan_cache_hit);
  // cutoff-30 stayed resident through the re-insert of cutoff-10.
  auto r30 = q(30);
  ASSERT_TRUE(r30.ok());
  EXPECT_TRUE(r30->plan_cache_hit);
}

TEST_F(PlanCacheTest, CreateIndexInvalidates) {
  const std::string sql = "SELECT e_name FROM emp WHERE e_dept = 3";
  ASSERT_TRUE(db_.Query(sql).ok());
  auto warm = db_.Query(sql);
  ASSERT_TRUE(warm.ok());
  EXPECT_TRUE(warm->plan_cache_hit);

  ASSERT_TRUE(db_.ExecuteSql("CREATE INDEX e_dept_idx ON emp (e_dept)").ok());
  auto post_ddl = db_.Query(sql);
  ASSERT_TRUE(post_ddl.ok());
  EXPECT_FALSE(post_ddl->plan_cache_hit);  // schema version moved
  EXPECT_GE(db_.plan_cache().stats().invalidations, 1);
  EXPECT_EQ(RowsText(warm->rows), RowsText(post_ddl->rows));
  // The re-optimized plan is cached again.
  auto rewarm = db_.Query(sql);
  ASSERT_TRUE(rewarm.ok());
  EXPECT_TRUE(rewarm->plan_cache_hit);
}

TEST_F(PlanCacheTest, InsertThenAnalyzeInvalidates) {
  const std::string sql = "SELECT COUNT(*) FROM emp WHERE e_salary > 1100";
  auto cold = db_.Query(sql);
  ASSERT_TRUE(cold.ok());
  ASSERT_TRUE(db_.Query(sql)->plan_cache_hit);

  ASSERT_TRUE(db_.ExecuteSql("INSERT INTO emp VALUES "
                             "(200, 1, 2000.0, 'late'), "
                             "(201, 2, 2100.0, 'later')")
                  .ok());
  ASSERT_TRUE(db_.Analyze("emp").ok());
  auto post = db_.Query(sql);
  ASSERT_TRUE(post.ok());
  EXPECT_FALSE(post->plan_cache_hit);  // stats version moved
  // Correct results against the new data.
  EXPECT_EQ(post->rows[0][0].AsInt(), cold->rows[0][0].AsInt() + 2);
}

TEST_F(PlanCacheTest, OrcaRouteHitReplaysAstRewrites) {
  // Correlated scalar-aggregate subquery: the Orca route decorrelates it
  // into a grouped derived table before optimizing, and a cache hit must
  // replay that rewrite before thawing the skeleton.
  const std::string sql =
      "SELECT e_name FROM emp e1 WHERE e_salary > "
      "(SELECT AVG(e_salary) FROM emp e2 WHERE e2.e_dept = e1.e_dept)";
  auto cold = db_.Query(sql, OptimizerPath::kOrca);
  ASSERT_TRUE(cold.ok()) << cold.status().ToString();
  EXPECT_TRUE(cold->used_orca);
  EXPECT_FALSE(cold->plan_cache_hit);
  auto warm = db_.Query(sql, OptimizerPath::kOrca);
  ASSERT_TRUE(warm.ok()) << warm.status().ToString();
  EXPECT_TRUE(warm->plan_cache_hit);
  EXPECT_TRUE(warm->used_orca);
  EXPECT_EQ(RowsText(cold->rows), RowsText(warm->rows));
}

TEST_F(PlanCacheTest, ExplainMarksHitsButNotColdCompiles) {
  const std::string sql = "SELECT e_id FROM emp WHERE e_dept = 1";
  auto cold = db_.Explain(sql);
  ASSERT_TRUE(cold.ok());
  EXPECT_EQ(cold->find("plan cache hit"), std::string::npos);
  auto warm = db_.Explain(sql);
  ASSERT_TRUE(warm.ok());
  EXPECT_NE(warm->find("plan cache hit"), std::string::npos);
  // The first-line optimizer marker is unchanged on hits.
  EXPECT_EQ(warm->rfind("EXPLAIN\n", 0), 0u);
}

TEST_F(PlanCacheTest, DisablingTheCacheBypassesIt) {
  db_.plan_cache_config().enable = false;
  const std::string sql = "SELECT e_id FROM emp WHERE e_dept = 2";
  ASSERT_TRUE(db_.Query(sql).ok());
  auto again = db_.Query(sql);
  ASSERT_TRUE(again.ok());
  EXPECT_FALSE(again->plan_cache_hit);
  EXPECT_EQ(db_.plan_cache().size(), 0u);
}

TEST_F(PlanCacheTest, ClearForgetsEntries) {
  const std::string sql = "SELECT e_id FROM emp WHERE e_dept = 4";
  ASSERT_TRUE(db_.Query(sql).ok());
  db_.plan_cache().Clear();
  auto again = db_.Query(sql);
  ASSERT_TRUE(again.ok());
  EXPECT_FALSE(again->plan_cache_hit);
}

TEST_F(PlanCacheTest, RoutingMetadataIsRecorded) {
  const std::string sql =
      "SELECT d_name, COUNT(*) FROM emp, dept "
      "WHERE e_dept = d_id GROUP BY d_name";
  ASSERT_TRUE(db_.Query(sql, OptimizerPath::kOrca).ok());
  ASSERT_TRUE(db_.Query(sql, OptimizerPath::kMySql).ok());
  EXPECT_EQ(db_.plan_cache().size(), 2u);
  EXPECT_EQ(db_.plan_cache().stats().insertions, 2);
}

/// A bare entry compiled against catalog versions (1, 1).
PlanCacheEntry EntryFor(uint64_t fingerprint) {
  PlanCacheEntry entry;
  entry.fingerprint = fingerprint;
  entry.schema_version = 1;
  entry.stats_version = 1;
  return entry;
}

TEST(PlanCacheUnitTest, ExactLruAtCapacity64) {
  PlanCache cache(64);
  for (int i = 0; i < 64; ++i) {
    cache.Insert("k" + std::to_string(i), EntryFor(i + 1));
  }
  EXPECT_EQ(cache.size(), 64u);
  EXPECT_EQ(cache.stats().evictions, 0);

  // Touching k0 makes k1 the least recently used entry.
  ASSERT_NE(cache.Lookup("k0", 1, 1), nullptr);
  cache.Insert("k64", EntryFor(65));
  EXPECT_EQ(cache.size(), 64u);
  EXPECT_EQ(cache.stats().evictions, 1);
  EXPECT_EQ(cache.Lookup("k1", 1, 1), nullptr);
  for (int i = 0; i <= 64; ++i) {
    if (i == 1) continue;
    EXPECT_NE(cache.Lookup("k" + std::to_string(i), 1, 1), nullptr) << i;
  }
}

TEST(PlanCacheUnitTest, InsertAppliesAGivenCapacityFirst) {
  PlanCache cache(64);
  for (int i = 0; i < 4; ++i) {
    cache.Insert("k" + std::to_string(i), EntryFor(i + 1));
  }
  cache.Insert("k4", EntryFor(5), 2);
  EXPECT_EQ(cache.capacity(), 2u);
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(cache.stats().evictions, 3);
  EXPECT_NE(cache.Lookup("k3", 1, 1), nullptr);
  EXPECT_NE(cache.Lookup("k4", 1, 1), nullptr);

  // Replacing a resident key applies the capacity too; 0 stores nothing.
  cache.Insert("k4", EntryFor(5), 0);
  EXPECT_EQ(cache.size(), 0u);
  cache.Insert("k5", EntryFor(6));
  EXPECT_EQ(cache.size(), 0u);
}

/// Eight threads each run rounds over a key space four times the capacity:
/// insert a key, look it up fresh, then on one round in four look it up
/// with a moved stats version and on another with a moved schema version,
/// and look up one more key fresh. Each thread alone produces hits,
/// evictions and both kinds of invalidation, so the nonzero checks below
/// do not depend on threads overlapping. Once the threads join, every
/// counter must balance against the cache's size.
TEST(PlanCacheUnitTest, ConcurrentLookupsAndInsertsKeepTheBooksBalanced) {
  constexpr size_t kCapacity = 16;
  constexpr int kKeys = 64;
  constexpr int kThreads = 8;
  constexpr int kRoundsPerThread = 1000;
  PlanCache cache(kCapacity);
  std::atomic<int64_t> hook_calls{0};
  cache.SetInvalidationHook(
      [&hook_calls](uint64_t, const char*) { hook_calls.fetch_add(1); });

  std::atomic<int64_t> lookups{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&cache, &lookups, t] {
      auto key_of = [](int k) { return "k" + std::to_string(k % kKeys); };
      int64_t mine = 0;
      for (int round = 0; round < kRoundsPerThread; ++round) {
        const int k = t * 13 + round * 7;
        const std::string key = key_of(k);
        cache.Insert(key, EntryFor(static_cast<uint64_t>(k % kKeys) + 1));
        cache.Lookup(key, 1, 1);
        ++mine;
        if (round % 4 == 1) {
          cache.Lookup(key, 1, 2);  // stats version moved
          ++mine;
        } else if (round % 4 == 2) {
          cache.Lookup(key, 2, 1);  // schema version moved
          ++mine;
        }
        cache.Lookup(key_of(k + kKeys / 2), 1, 1);
        ++mine;
      }
      lookups.fetch_add(mine);
    });
  }
  for (std::thread& th : threads) th.join();

  const PlanCacheStats s = cache.stats();
  EXPECT_EQ(s.hits + s.misses, lookups.load());
  EXPECT_EQ(s.insertions - s.evictions - s.invalidations,
            static_cast<int64_t>(cache.size()));
  EXPECT_LE(cache.size(), kCapacity);
  EXPECT_GT(s.hits, 0);
  EXPECT_GT(s.evictions, 0);
  EXPECT_GT(s.invalidations, 0);
  EXPECT_EQ(hook_calls.load(), s.invalidations);
}

/// Cached compiles must agree with cold compiles on real TPC-H shapes, on
/// both optimizer routes (derived tables, semi-joins, CTE copies included).
class PlanCacheTpchTest : public ::testing::Test {
 protected:
  static Database* db() {
    static Database* instance = [] {
      auto* d = new Database();
      auto st = SetupTpch(d, 0.001);
      EXPECT_TRUE(st.ok()) << st.ToString();
      return d;
    }();
    return instance;
  }
};

TEST_F(PlanCacheTpchTest, CachedPlansMatchColdPlansOnBothPaths) {
  const auto& queries = TpchQueries();
  // A representative slice: scan+agg, big join, semi-join, correlated
  // subquery with decorrelation (Q17), and a CTE-free multi-join.
  for (int q : {0, 2, 3, 16, 9}) {
    const std::string& sql = queries[static_cast<size_t>(q)];
    for (OptimizerPath path : {OptimizerPath::kMySql, OptimizerPath::kOrca}) {
      db()->plan_cache().Clear();
      auto cold = db()->Query(sql, path);
      ASSERT_TRUE(cold.ok())
          << "Q" << q + 1 << ": " << cold.status().ToString();
      auto warm = db()->Query(sql, path);
      ASSERT_TRUE(warm.ok())
          << "Q" << q + 1 << ": " << warm.status().ToString();
      EXPECT_TRUE(warm->plan_cache_hit) << "Q" << q + 1;
      EXPECT_EQ(warm->used_orca, cold->used_orca) << "Q" << q + 1;
      EXPECT_EQ(RowsText(cold->rows), RowsText(warm->rows)) << "Q" << q + 1;
    }
  }
}

}  // namespace
}  // namespace taurus
