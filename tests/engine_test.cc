#include <gtest/gtest.h>

#include <algorithm>
#include <bit>

#include "engine/database.h"

namespace taurus {
namespace {

/// Sorts rows lexicographically for order-insensitive comparison.
void SortRows(std::vector<Row>* rows) {
  std::sort(rows->begin(), rows->end(), [](const Row& a, const Row& b) {
    for (size_t i = 0; i < a.size(); ++i) {
      int c = Value::Compare(a[i], b[i]);
      if (c != 0) return c < 0;
    }
    return false;
  });
}

std::string RowsToText(const std::vector<Row>& rows) {
  std::string out;
  for (const Row& r : rows) out += RowToString(r) + "\n";
  return out;
}

class EngineTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(db_.ExecuteSql(
                       "CREATE TABLE nation (n_id INT NOT NULL PRIMARY KEY, "
                       "n_name VARCHAR(25) NOT NULL)")
                    .ok());
    ASSERT_TRUE(db_.ExecuteSql(
                       "CREATE TABLE customer (c_id INT NOT NULL PRIMARY KEY, "
                       "c_nation INT NOT NULL, c_name VARCHAR(25) NOT NULL, "
                       "c_acct DOUBLE NOT NULL)")
                    .ok());
    ASSERT_TRUE(db_.ExecuteSql(
                       "CREATE TABLE orders (o_id INT NOT NULL PRIMARY KEY, "
                       "o_cust INT NOT NULL, o_date DATE NOT NULL, "
                       "o_total DOUBLE NOT NULL)")
                    .ok());
    ASSERT_TRUE(
        db_.ExecuteSql("CREATE INDEX o_cust_idx ON orders (o_cust)").ok());
    ASSERT_TRUE(db_.ExecuteSql(
                       "CREATE TABLE lineitem (l_oid INT NOT NULL, "
                       "l_item INT NOT NULL, l_qty INT NOT NULL, "
                       "l_price DOUBLE NOT NULL)")
                    .ok());
    ASSERT_TRUE(
        db_.ExecuteSql("CREATE INDEX l_oid_idx ON lineitem (l_oid)").ok());

    std::vector<Row> nations;
    for (int i = 0; i < 5; ++i) {
      nations.push_back({Value::Int(i), Value::Str("nation" + std::to_string(i))});
    }
    ASSERT_TRUE(db_.BulkLoad("nation", std::move(nations)).ok());

    std::vector<Row> customers;
    for (int i = 0; i < 40; ++i) {
      customers.push_back({Value::Int(i), Value::Int(i % 5),
                           Value::Str("cust" + std::to_string(i)),
                           Value::Double(100.0 * (i % 7))});
    }
    ASSERT_TRUE(db_.BulkLoad("customer", std::move(customers)).ok());

    std::vector<Row> orders;
    for (int i = 0; i < 200; ++i) {
      orders.push_back({Value::Int(i), Value::Int(i % 40),
                        Value::Date(9000 + i % 90),
                        Value::Double(10.0 + i % 13)});
    }
    ASSERT_TRUE(db_.BulkLoad("orders", std::move(orders)).ok());

    std::vector<Row> items;
    for (int i = 0; i < 600; ++i) {
      items.push_back({Value::Int(i % 200), Value::Int(i % 30),
                       Value::Int(1 + i % 9), Value::Double(2.5 * (i % 11))});
    }
    ASSERT_TRUE(db_.BulkLoad("lineitem", std::move(items)).ok());
    ASSERT_TRUE(db_.AnalyzeAll().ok());
  }

  /// Runs `sql` on both paths and EXPECTs identical result multisets.
  void ExpectPathsAgree(const std::string& sql) {
    auto mysql = db_.Query(sql, OptimizerPath::kMySql);
    ASSERT_TRUE(mysql.ok()) << "mysql path: " << mysql.status().ToString()
                            << "\n" << sql;
    auto orca = db_.Query(sql, OptimizerPath::kOrca);
    ASSERT_TRUE(orca.ok()) << "orca path: " << orca.status().ToString()
                           << "\n" << sql;
    EXPECT_TRUE(orca->used_orca);
    std::vector<Row> a = mysql->rows;
    std::vector<Row> b = orca->rows;
    SortRows(&a);
    SortRows(&b);
    EXPECT_EQ(RowsToText(a), RowsToText(b)) << sql;
  }

  Database db_;
};

TEST_F(EngineTest, DdlAndInsertSql) {
  ASSERT_TRUE(
      db_.ExecuteSql("CREATE TABLE tiny (a INT NOT NULL, b VARCHAR(5))").ok());
  ASSERT_TRUE(
      db_.ExecuteSql("INSERT INTO tiny VALUES (1, 'x'), (2, NULL)").ok());
  auto rows = db_.Query("SELECT a FROM tiny WHERE b IS NULL");
  ASSERT_TRUE(rows.ok()) << rows.status().ToString();
  ASSERT_EQ(rows->rows.size(), 1u);
  EXPECT_EQ(rows->rows[0][0].AsInt(), 2);
}

TEST_F(EngineTest, RouterThresholdControlsDetour) {
  db_.router_config().complex_query_threshold = 3;
  auto simple = db_.Query("SELECT COUNT(*) FROM orders");
  ASSERT_TRUE(simple.ok());
  EXPECT_FALSE(simple->used_orca);  // 1 table ref < 3
  auto complex = db_.Query(
      "SELECT COUNT(*) FROM customer, orders, lineitem "
      "WHERE c_id = o_cust AND o_id = l_oid");
  ASSERT_TRUE(complex.ok());
  EXPECT_TRUE(complex->used_orca);  // 3 table refs
}

TEST_F(EngineTest, ThresholdOneRoutesEverything) {
  db_.router_config().complex_query_threshold = 1;
  auto r = db_.Query("SELECT COUNT(*) FROM orders");
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r->used_orca);
}

TEST_F(EngineTest, OrcaDisabledNeverDetours) {
  db_.router_config().enable_orca = false;
  db_.router_config().complex_query_threshold = 1;
  auto r = db_.Query("SELECT COUNT(*) FROM orders, customer WHERE c_id=o_cust");
  ASSERT_TRUE(r.ok());
  EXPECT_FALSE(r->used_orca);
}

TEST_F(EngineTest, PathsAgreeSimpleAggregate) {
  ExpectPathsAgree("SELECT o_cust, COUNT(*), SUM(o_total) FROM orders "
                   "GROUP BY o_cust");
}

TEST_F(EngineTest, PathsAgreeThreeWayJoin) {
  ExpectPathsAgree(
      "SELECT n_name, COUNT(*) FROM nation, customer, orders "
      "WHERE n_id = c_nation AND c_id = o_cust AND o_total > 15 "
      "GROUP BY n_name ORDER BY n_name");
}

TEST_F(EngineTest, PathsAgreeFourWayJoinWithDates) {
  ExpectPathsAgree(
      "SELECT n_name, SUM(l_price) FROM nation, customer, orders, lineitem "
      "WHERE n_id = c_nation AND c_id = o_cust AND o_id = l_oid AND "
      "o_date >= DATE '1994-09-01' GROUP BY n_name ORDER BY 2 DESC");
}

TEST_F(EngineTest, PathsAgreeLeftJoin) {
  ExpectPathsAgree(
      "SELECT c_id, COUNT(o_id) FROM customer LEFT JOIN orders "
      "ON c_id = o_cust AND o_total > 20 GROUP BY c_id");
}

TEST_F(EngineTest, PathsAgreeSemiJoin) {
  ExpectPathsAgree(
      "SELECT c_name FROM customer WHERE EXISTS "
      "(SELECT 1 FROM orders WHERE o_cust = c_id AND o_total > 21)");
}

TEST_F(EngineTest, PathsAgreeAntiJoin) {
  ExpectPathsAgree(
      "SELECT c_name FROM customer WHERE NOT EXISTS "
      "(SELECT 1 FROM orders WHERE o_cust = c_id AND o_total > 21)");
}

TEST_F(EngineTest, PathsAgreeCorrelatedScalarSubquery) {
  ExpectPathsAgree(
      "SELECT l_oid, l_qty FROM lineitem, orders WHERE l_oid = o_id AND "
      "l_qty > (SELECT AVG(l2.l_qty) FROM lineitem l2 "
      "WHERE l2.l_item = lineitem.l_item)");
}

TEST_F(EngineTest, PathsAgreeDerivedTable) {
  ExpectPathsAgree(
      "SELECT d.cnt, COUNT(*) FROM (SELECT o_cust, COUNT(*) cnt FROM orders "
      "GROUP BY o_cust) d, customer WHERE d.o_cust = c_id GROUP BY d.cnt");
}

TEST_F(EngineTest, PathsAgreeCte) {
  ExpectPathsAgree(
      "WITH big AS (SELECT o_cust, SUM(o_total) s FROM orders GROUP BY "
      "o_cust) SELECT b1.o_cust FROM big b1, big b2 WHERE b1.o_cust = "
      "b2.o_cust AND b1.s > 50 ORDER BY 1");
}

TEST_F(EngineTest, PathsAgreeOrFactorableQuery) {
  // The TPC-DS Q41 pattern: OR with a common equality conjunct.
  ExpectPathsAgree(
      "SELECT COUNT(*) FROM customer, orders WHERE "
      "(c_id = o_cust AND o_total > 18) OR (c_id = o_cust AND c_acct > 500)");
}

TEST_F(EngineTest, PathsAgreeUnion) {
  ExpectPathsAgree(
      "SELECT c_id x FROM customer, nation WHERE c_nation = n_id AND c_id < 5 "
      "UNION SELECT o_cust FROM orders, customer WHERE o_cust = c_id AND "
      "o_id < 9");
}

TEST_F(EngineTest, CteProducerReuseMetric) {
  db_.router_config().complex_query_threshold = 1;
  auto r = db_.Query(
      "WITH big AS (SELECT o_cust, SUM(o_total) s FROM orders GROUP BY "
      "o_cust) SELECT COUNT(*) FROM big b1, big b2 WHERE b1.o_cust = "
      "b2.o_cust",
      OptimizerPath::kOrca);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  // The second CTE copy reused the producer skeleton.
  EXPECT_EQ(r->orca.cte_producers_reused, 1);
}

TEST_F(EngineTest, MdpCacheIsUsed) {
  auto r = db_.Query(
      "SELECT COUNT(*) FROM orders o1, orders o2, orders o3 WHERE "
      "o1.o_id = o2.o_id AND o2.o_id = o3.o_id AND o1.o_id < 4",
      OptimizerPath::kOrca);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  // Three references to `orders`, one DXL round trip.
  EXPECT_GE(r->orca.mdp_cache_hits, 1);
}

TEST_F(EngineTest, ExplainMarksOrcaPlans) {
  auto mysql_explain = db_.Explain(
      "SELECT COUNT(*) FROM orders, customer WHERE o_cust = c_id",
      OptimizerPath::kMySql);
  ASSERT_TRUE(mysql_explain.ok()) << mysql_explain.status().ToString();
  EXPECT_EQ(mysql_explain->rfind("EXPLAIN\n", 0), 0u);
  auto orca_explain = db_.Explain(
      "SELECT COUNT(*) FROM orders, customer WHERE o_cust = c_id",
      OptimizerPath::kOrca);
  ASSERT_TRUE(orca_explain.ok()) << orca_explain.status().ToString();
  EXPECT_EQ(orca_explain->rfind("EXPLAIN (ORCA)\n", 0), 0u);
  EXPECT_NE(orca_explain->find("join"), std::string::npos);
}

TEST_F(EngineTest, ExplainShowsCorrelatedMaterialization) {
  auto explain = db_.Explain(
      "SELECT c_id FROM customer, (SELECT AVG(o_total) a FROM orders "
      "WHERE o_cust = customer.c_id) d WHERE d.a > 12",
      OptimizerPath::kMySql);
  // Correlated derived tables in FROM are non-standard; if binding rejects
  // this form, use the subquery form instead.
  if (!explain.ok()) {
    explain = db_.Explain(
        "SELECT c_id FROM customer WHERE (SELECT AVG(o_total) FROM orders "
        "WHERE o_cust = c_id) > 12",
        OptimizerPath::kMySql);
  }
  ASSERT_TRUE(explain.ok()) << explain.status().ToString();
  EXPECT_NE(explain->find("correlated"), std::string::npos);
}

TEST_F(EngineTest, ForcedOrcaOnSingleTableWorks) {
  auto r = db_.Query("SELECT COUNT(*) FROM orders WHERE o_total > 12",
                     OptimizerPath::kOrca);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_TRUE(r->used_orca);
  auto m = db_.Query("SELECT COUNT(*) FROM orders WHERE o_total > 12",
                     OptimizerPath::kMySql);
  ASSERT_TRUE(m.ok());
  EXPECT_EQ(r->rows[0][0].AsInt(), m->rows[0][0].AsInt());
}

TEST_F(EngineTest, StrategiesProduceSameResults) {
  const std::string sql =
      "SELECT n_name, COUNT(*) FROM nation, customer, orders, lineitem "
      "WHERE n_id = c_nation AND c_id = o_cust AND o_id = l_oid "
      "GROUP BY n_name ORDER BY n_name";
  db_.orca_config().strategy = JoinSearchStrategy::kGreedy;
  auto greedy = db_.Query(sql, OptimizerPath::kOrca);
  ASSERT_TRUE(greedy.ok()) << greedy.status().ToString();
  db_.orca_config().strategy = JoinSearchStrategy::kExhaustive;
  auto ex1 = db_.Query(sql, OptimizerPath::kOrca);
  ASSERT_TRUE(ex1.ok()) << ex1.status().ToString();
  db_.orca_config().strategy = JoinSearchStrategy::kExhaustive2;
  auto ex2 = db_.Query(sql, OptimizerPath::kOrca);
  ASSERT_TRUE(ex2.ok()) << ex2.status().ToString();
  EXPECT_EQ(RowsToText(greedy->rows), RowsToText(ex1->rows));
  EXPECT_EQ(RowsToText(ex1->rows), RowsToText(ex2->rows));
}

TEST_F(EngineTest, Exhaustive2ExploresAtLeastAsMuch) {
  // Six units joined as a tree: nation-customer-o1-o2 with o1-l1-l2.
  // EXHAUSTIVE2 costs every split of a connected subset into two connected
  // halves, which includes every split a linear order can make without a
  // cross product. EXHAUSTIVE also costs cross products, so it now costs
  // more pairs in all.
  const std::string sql =
      "SELECT COUNT(*) FROM nation, customer, orders o1, orders o2, "
      "lineitem l1, lineitem l2 WHERE n_id = c_nation AND c_id = o1.o_cust "
      "AND o1.o_id = o2.o_id AND o1.o_id = l1.l_oid AND l1.l_item = "
      "l2.l_item";
  const std::pair<int, int> edges[] = {{0, 1}, {1, 2}, {2, 3}, {2, 4}, {4, 5}};
  // In a tree each edge of a connected subset splits it into two connected
  // halves, costed in both orientations; a linear split peels off one of
  // the subset's leaves.
  int64_t bushy = 0;
  int64_t linear = 0;
  for (unsigned set = 1; set < 64; ++set) {
    int edges_inside = 0;
    int degree[6] = {};
    for (auto [a, b] : edges) {
      if ((set >> a & 1) != 0 && (set >> b & 1) != 0) {
        ++edges_inside;
        ++degree[a];
        ++degree[b];
      }
    }
    if (edges_inside == 0 || edges_inside != std::popcount(set) - 1) continue;
    bushy += 2 * edges_inside;
    linear += std::count(std::begin(degree), std::end(degree), 1);
  }
  ASSERT_EQ(bushy, 94);
  ASSERT_EQ(linear, 42);
  db_.orca_config().strategy = JoinSearchStrategy::kExhaustive;
  auto exhaustive = db_.Query(sql, OptimizerPath::kOrca);
  ASSERT_TRUE(exhaustive.ok());
  EXPECT_EQ(exhaustive->orca.partitions_evaluated, 318);
  db_.orca_config().strategy = JoinSearchStrategy::kExhaustive2;
  auto exhaustive2 = db_.Query(sql, OptimizerPath::kOrca);
  ASSERT_TRUE(exhaustive2.ok());
  EXPECT_EQ(exhaustive2->orca.partitions_evaluated, bushy);
}

// Regression: an index range with no lower bound started at the index's
// first entry, and NULL keys sort first, so `k < 5` counted the NULL rows
// too (280 instead of 80 here) on both paths.
TEST_F(EngineTest, IndexRangeSkipsNullKeys) {
  ASSERT_TRUE(db_.ExecuteSql("CREATE TABLE t (id INT NOT NULL PRIMARY KEY, "
                             "k INT, v INT)")
                  .ok());
  ASSERT_TRUE(db_.ExecuteSql("CREATE INDEX k_idx ON t (k)").ok());
  std::vector<Row> rows;
  for (int i = 0; i < 2000; ++i) {
    rows.push_back({Value::Int(i),
                    i % 10 == 0 ? Value::Null() : Value::Int(i % 100),
                    Value::Int(i % 7)});
  }
  ASSERT_TRUE(db_.BulkLoad("t", std::move(rows)).ok());
  ASSERT_TRUE(db_.AnalyzeAll().ok());
  const std::pair<const char*, int64_t> cases[] = {
      {"SELECT COUNT(*) FROM t WHERE k < 5", 80},
      {"SELECT COUNT(*) FROM t WHERE k <= 1", 20},
      {"SELECT COUNT(*) FROM t WHERE k BETWEEN 0 AND 1", 20},
      {"SELECT COUNT(*) FROM t WHERE k = 1", 20},
      {"SELECT COUNT(*) FROM t WHERE k < NULL", 0},
      {"SELECT COUNT(*) FROM t WHERE k >= NULL", 0},
      {"SELECT COUNT(*) FROM t WHERE k = NULL", 0},
  };
  for (OptimizerPath path : {OptimizerPath::kMySql, OptimizerPath::kOrca}) {
    for (const auto& [sql, count] : cases) {
      auto r = db_.Query(sql, path);
      ASSERT_TRUE(r.ok()) << r.status().ToString() << "\n" << sql;
      EXPECT_EQ(r->rows[0][0].AsInt(), count)
          << sql << (path == OptimizerPath::kOrca ? " (orca)" : " (mysql)");
    }
    // The first two cases must run on the index for this test to bite.
    for (const char* sql : {cases[0].first, cases[1].first}) {
      auto e = db_.Explain(sql, path);
      ASSERT_TRUE(e.ok()) << e.status().ToString();
      EXPECT_NE(e->find("Index range scan on t using k_idx"),
                std::string::npos)
          << *e;
    }
  }
}

TEST_F(EngineTest, InnerJoinOnStaysInsideLeftJoinNest) {
  // The nest's own ON (i.a = t.a) belongs to the right side of the left
  // join: evaluated above it, it would drop the NULL-extended g rows. The
  // expected rows are the sqlite3 CLI's answer on the same data.
  ASSERT_TRUE(
      db_.ExecuteSql("CREATE TABLE g (g_id INT NOT NULL PRIMARY KEY)").ok());
  ASSERT_TRUE(db_.ExecuteSql("CREATE TABLE i (i_id INT NOT NULL PRIMARY KEY, "
                             "a INT NOT NULL, b INT NOT NULL)")
                  .ok());
  ASSERT_TRUE(db_.ExecuteSql("CREATE TABLE t (t_id INT NOT NULL PRIMARY KEY, "
                             "a INT NOT NULL)")
                  .ok());
  ASSERT_TRUE(db_.BulkLoad("g", {{Value::Int(1)}, {Value::Int(2)},
                                 {Value::Int(3)}})
                  .ok());
  ASSERT_TRUE(db_.BulkLoad("i", {{Value::Int(1), Value::Int(10), Value::Int(2)},
                                 {Value::Int(2), Value::Int(20), Value::Int(5)}})
                  .ok());
  ASSERT_TRUE(db_.BulkLoad("t", {{Value::Int(1), Value::Int(10)}}).ok());
  ASSERT_TRUE(db_.AnalyzeAll().ok());
  // The second and third nested ONs hold a conjunct that reads no leaf of
  // the block (a constant, a correlated outer column), which belongs to
  // the nest as well, not to the block's first leaf (g).
  const std::pair<std::string, std::string> cases[] = {
      {"SELECT g_id, i_id FROM g LEFT JOIN (i JOIN t ON i.a = t.a) "
       "ON i.b < g.g_id",
       "(1, NULL)\n(2, NULL)\n(3, 1)\n"},
      {"SELECT g_id, i_id FROM g LEFT JOIN (i JOIN t ON i.a = t.a AND 1 = 0) "
       "ON i.b < g.g_id",
       "(1, NULL)\n(2, NULL)\n(3, NULL)\n"},
      {"SELECT g_id, (SELECT COUNT(*) FROM g g2 LEFT JOIN (i JOIN t ON "
       "i.a = t.a AND g.g_id = 3) ON i.b < g2.g_id WHERE g2.g_id = 3) FROM g",
       "(1, 1)\n(2, 1)\n(3, 1)\n"},
  };
  for (const auto& [sql, want] : cases) {
    for (OptimizerPath path : {OptimizerPath::kMySql, OptimizerPath::kOrca}) {
      for (bool batch : {false, true}) {
        SCOPED_TRACE(sql + (path == OptimizerPath::kOrca ? " orca" : " mysql") +
                     " batch=" + std::to_string(batch));
        db_.exec_config().enable_batch = batch;
        auto r = db_.Query(sql, path);
        ASSERT_TRUE(r.ok()) << r.status().ToString();
        SortRows(&r->rows);
        EXPECT_EQ(RowsToText(r->rows), want);
      }
    }
  }
}

TEST_F(EngineTest, InSubqueryNullSemanticsMatchSqlite) {
  // Non-correlated IN probes binary-search the sorted subquery result when
  // its values share one kind, and scan it otherwise (case 9: double
  // values, integer probes). A NULL in the result makes a miss NULL; a
  // NULL probe is NULL over a non-empty result and FALSE over an empty
  // one. The expected rows are the sqlite3 CLI's answer on the same data.
  ASSERT_TRUE(db_.ExecuteSql("CREATE TABLE pa (id INT NOT NULL PRIMARY KEY, "
                             "x INT, s VARCHAR(8))")
                  .ok());
  ASSERT_TRUE(db_.ExecuteSql("CREATE TABLE pb (id INT NOT NULL PRIMARY KEY, "
                             "y INT, t VARCHAR(8))")
                  .ok());
  ASSERT_TRUE(db_.BulkLoad("pa", {{Value::Int(1), Value::Int(1), Value::Str("p")},
                                  {Value::Int(2), Value::Int(2), Value::Str("q")},
                                  {Value::Int(3), Value::Null(), Value::Null()},
                                  {Value::Int(4), Value::Int(4), Value::Str("r")},
                                  {Value::Int(5), Value::Int(7), Value::Str("s")}})
                  .ok());
  ASSERT_TRUE(db_.BulkLoad("pb", {{Value::Int(1), Value::Int(1), Value::Str("p")},
                                  {Value::Int(2), Value::Null(), Value::Str("q")},
                                  {Value::Int(3), Value::Int(4), Value::Null()},
                                  {Value::Int(4), Value::Int(9), Value::Str("z")}})
                  .ok());
  ASSERT_TRUE(db_.AnalyzeAll().ok());
  const std::pair<std::string, std::string> cases[] = {
      {"SELECT id, x IN (SELECT y FROM pb) FROM pa",
       "(1, 1)\n(2, NULL)\n(3, NULL)\n(4, 1)\n(5, NULL)\n"},
      {"SELECT id, x NOT IN (SELECT y FROM pb) FROM pa",
       "(1, 0)\n(2, NULL)\n(3, NULL)\n(4, 0)\n(5, NULL)\n"},
      {"SELECT id, x IN (SELECT y FROM pb WHERE y IS NOT NULL) FROM pa",
       "(1, 1)\n(2, 0)\n(3, NULL)\n(4, 1)\n(5, 0)\n"},
      {"SELECT id, x NOT IN (SELECT y FROM pb WHERE y IS NOT NULL) FROM pa",
       "(1, 0)\n(2, 1)\n(3, NULL)\n(4, 0)\n(5, 1)\n"},
      {"SELECT id, x IN (SELECT y FROM pb WHERE y > 100), "
       "x NOT IN (SELECT y FROM pb WHERE y > 100) FROM pa",
       "(1, 0, 1)\n(2, 0, 1)\n(3, 0, 1)\n(4, 0, 1)\n(5, 0, 1)\n"},
      {"SELECT id, s IN (SELECT t FROM pb), "
       "s NOT IN (SELECT t FROM pb WHERE t IS NOT NULL) FROM pa",
       "(1, 1, 0)\n(2, 1, 0)\n(3, NULL, NULL)\n(4, NULL, 1)\n(5, NULL, 1)\n"},
      {"SELECT id FROM pa WHERE x IN (SELECT y FROM pb)", "(1)\n(4)\n"},
      {"SELECT id FROM pa WHERE x NOT IN (SELECT y FROM pb WHERE y IS NOT "
       "NULL)",
       "(2)\n(5)\n"},
      {"SELECT id, x IN (SELECT y * 1.0 FROM pb) FROM pa",
       "(1, 1)\n(2, NULL)\n(3, NULL)\n(4, 1)\n(5, NULL)\n"},
  };
  for (const auto& [sql, want] : cases) {
    for (OptimizerPath path : {OptimizerPath::kMySql, OptimizerPath::kOrca}) {
      for (bool batch : {false, true}) {
        SCOPED_TRACE(sql + (path == OptimizerPath::kOrca ? " orca" : " mysql") +
                     " batch=" + std::to_string(batch));
        db_.exec_config().enable_batch = batch;
        auto r = db_.Query(sql, path);
        ASSERT_TRUE(r.ok()) << r.status().ToString();
        SortRows(&r->rows);
        EXPECT_EQ(RowsToText(r->rows), want);
      }
    }
  }
}

TEST_F(EngineTest, HashJoinCandidateOrderWithDuplicateAndNullKeys) {
  // Neither table has an index, so both paths join by hash. No ORDER BY:
  // the expected rows pin the probe's candidate order, which is the build
  // order reversed among equal keys (newest entry first, as
  // std::unordered_multimap returned them). The inner join builds on its
  // left child hp, where key 1 repeats (p_id 0 and 4); the left join builds
  // on hb, where key 1 repeats four times and key 2 three. NULL keys on
  // either side never match.
  ASSERT_TRUE(
      db_.ExecuteSql("CREATE TABLE hb (b_id INT NOT NULL, b_key INT, b_k2 INT)")
          .ok());
  ASSERT_TRUE(
      db_.ExecuteSql("CREATE TABLE hp (p_id INT NOT NULL, p_key INT, p_k2 INT)")
          .ok());
  auto key = [](int k) { return k < 0 ? Value::Null() : Value::Int(k); };
  std::vector<Row> build;
  const int build_keys[] = {1, 2, 1, -1, 1, 2, 3, -1, 1, 2};  // -1 is NULL
  for (int i = 0; i < 10; ++i) {
    build.push_back({Value::Int(i), key(build_keys[i]), Value::Int(i % 2)});
  }
  std::vector<Row> probe;
  const int probe_keys[] = {1, -1, 2, 4, 1, 3};
  for (int i = 0; i < 6; ++i) {
    probe.push_back({Value::Int(i), key(probe_keys[i]), Value::Int(i % 2)});
  }
  ASSERT_TRUE(db_.BulkLoad("hb", std::move(build)).ok());
  ASSERT_TRUE(db_.BulkLoad("hp", std::move(probe)).ok());
  ASSERT_TRUE(db_.AnalyzeAll().ok());
  const std::pair<std::string, std::string> cases[] = {
      {"SELECT p_id, b_id FROM hp JOIN hb ON b_key = p_key",
       "(4, 0)\n(0, 0)\n(2, 1)\n(4, 2)\n(0, 2)\n(4, 4)\n(0, 4)\n(2, 5)\n"
       "(5, 6)\n(4, 8)\n(0, 8)\n(2, 9)\n"},
      {"SELECT p_id, b_id FROM hp LEFT JOIN hb ON b_key = p_key",
       "(0, 8)\n(0, 4)\n(0, 2)\n(0, 0)\n(1, NULL)\n(2, 9)\n(2, 5)\n(2, 1)\n"
       "(3, NULL)\n(4, 8)\n(4, 4)\n(4, 2)\n(4, 0)\n(5, 6)\n"},
      {"SELECT p_id, b_id FROM hp JOIN hb ON b_key = p_key AND b_k2 = p_k2",
       "(4, 0)\n(0, 0)\n(4, 2)\n(0, 2)\n(4, 4)\n(0, 4)\n(4, 8)\n(0, 8)\n"},
  };
  for (const auto& [sql, want] : cases) {
    for (OptimizerPath path : {OptimizerPath::kMySql, OptimizerPath::kOrca}) {
      for (bool batch : {false, true}) {
        SCOPED_TRACE(sql + (path == OptimizerPath::kOrca ? " orca" : " mysql") +
                     " batch=" + std::to_string(batch));
        db_.exec_config().enable_batch = batch;
        auto e = db_.Explain(sql, path);
        ASSERT_TRUE(e.ok()) << e.status().ToString();
        EXPECT_NE(e->find(" hash join ("), std::string::npos) << *e;
        auto r = db_.Query(sql, path);
        ASSERT_TRUE(r.ok()) << r.status().ToString();
        EXPECT_EQ(RowsToText(r->rows), want);
      }
    }
  }
}

TEST_F(EngineTest, InstrumentationCountsSomething) {
  auto r = db_.Query(
      "SELECT c_name, o_id FROM customer JOIN orders ON o_cust = c_id "
      "WHERE c_id = 7");
  ASSERT_TRUE(r.ok());
  EXPECT_GT(r->rows_scanned, 0);
}

}  // namespace
}  // namespace taurus
