#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "engine/database.h"
#include "workloads/tpch.h"

namespace taurus {
namespace {

class ExplainTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(db_.ExecuteSql(
                       "CREATE TABLE part (p_id INT NOT NULL PRIMARY KEY, "
                       "p_brand VARCHAR(10) NOT NULL)")
                    .ok());
    ASSERT_TRUE(db_.ExecuteSql(
                       "CREATE TABLE li (l_pid INT NOT NULL, "
                       "l_qty INT NOT NULL)")
                    .ok());
    ASSERT_TRUE(db_.ExecuteSql("CREATE INDEX li_pid ON li (l_pid)").ok());
    std::vector<Row> parts;
    for (int i = 0; i < 50; ++i) {
      parts.push_back({Value::Int(i),
                       Value::Str("B" + std::to_string(i % 5))});
    }
    ASSERT_TRUE(db_.BulkLoad("part", std::move(parts)).ok());
    std::vector<Row> lis;
    for (int i = 0; i < 500; ++i) {
      lis.push_back({Value::Int(i % 50), Value::Int(i % 9)});
    }
    ASSERT_TRUE(db_.BulkLoad("li", std::move(lis)).ok());
    ASSERT_TRUE(db_.AnalyzeAll().ok());
  }

  Database db_;
};

TEST_F(ExplainTest, TreeShapeHasIndentedOperators) {
  auto e = db_.Explain(
      "SELECT p_brand, COUNT(*) FROM part, li WHERE p_id = l_pid "
      "GROUP BY p_brand ORDER BY 2 DESC LIMIT 3",
      OptimizerPath::kMySql);
  ASSERT_TRUE(e.ok()) << e.status().ToString();
  // Operators appear in MySQL's order: Limit, Sort, Aggregate, join, scans.
  size_t limit_pos = e->find("Limit: 3 row(s)");
  size_t sort_pos = e->find("Sort:");
  size_t agg_pos = e->find("Aggregate:");
  size_t join_pos = e->find("join");
  ASSERT_NE(limit_pos, std::string::npos) << *e;
  ASSERT_NE(sort_pos, std::string::npos);
  ASSERT_NE(agg_pos, std::string::npos);
  ASSERT_NE(join_pos, std::string::npos);
  EXPECT_LT(limit_pos, sort_pos);
  EXPECT_LT(sort_pos, agg_pos);
  EXPECT_LT(agg_pos, join_pos);
}

TEST_F(ExplainTest, CostsAndRowsShown) {
  auto e = db_.Explain("SELECT COUNT(*) FROM li WHERE l_qty = 3",
                       OptimizerPath::kMySql);
  ASSERT_TRUE(e.ok());
  EXPECT_NE(e->find("cost="), std::string::npos);
  EXPECT_NE(e->find("rows="), std::string::npos);
}

TEST_F(ExplainTest, IndexLookupShowsKeyBinding) {
  auto e = db_.Explain(
      "SELECT COUNT(*) FROM part, li WHERE p_id = l_pid AND p_brand = 'B2'",
      OptimizerPath::kMySql);
  ASSERT_TRUE(e.ok());
  EXPECT_NE(e->find("Index lookup on li using li_pid"), std::string::npos)
      << *e;
  EXPECT_NE(e->find("l_pid="), std::string::npos);
}

TEST_F(ExplainTest, OrcaHeaderAndEstimates) {
  auto e = db_.Explain(
      "SELECT COUNT(*) FROM part, li WHERE p_id = l_pid",
      OptimizerPath::kOrca);
  ASSERT_TRUE(e.ok()) << e.status().ToString();
  EXPECT_EQ(e->rfind("EXPLAIN (ORCA)\n", 0), 0u);
  EXPECT_NE(e->find("cost="), std::string::npos);
}

TEST_F(ExplainTest, SubqueryRenderedSeparately) {
  auto e = db_.Explain(
      "SELECT COUNT(*) FROM li WHERE l_qty > "
      "(SELECT AVG(l2.l_qty) FROM li l2 WHERE l2.l_pid = li.l_pid)",
      OptimizerPath::kMySql);
  ASSERT_TRUE(e.ok()) << e.status().ToString();
  EXPECT_NE(e->find("Subquery #1 (correlated)"), std::string::npos) << *e;
}

TEST_F(ExplainTest, SortElisionAnnotated) {
  auto e = db_.Explain("SELECT p_id FROM part WHERE p_id < 10 ORDER BY p_id",
                       OptimizerPath::kMySql);
  ASSERT_TRUE(e.ok());
  EXPECT_NE(e->find("Sort elided (index provides order)"),
            std::string::npos)
      << *e;
}

TEST_F(ExplainTest, HashJoinShowsKeys) {
  // No index on l_qty: equality forces a hash join on the MySQL path.
  auto e = db_.Explain(
      "SELECT COUNT(*) FROM part, li WHERE p_id = l_qty",
      OptimizerPath::kMySql);
  ASSERT_TRUE(e.ok());
  // l_qty joins p_id... li has no index on l_qty but part has p_id pk, so
  // a ref access may win; accept either rendering as long as the plan
  // prints a join with its predicate.
  EXPECT_NE(e->find("join"), std::string::npos);
}

/// The short-query regime's point statements on TPC-H: `o_orderkey = K` is
/// a point range on the orders primary key, on both optimizer paths.
class TpchPointLookupTest : public ::testing::Test {
 protected:
  static Database* db() {
    static Database* instance = [] {
      auto* d = new Database();
      Status st = SetupTpch(d, 0.001);
      EXPECT_TRUE(st.ok()) << st.ToString();
      return d;
    }();
    return instance;
  }

  /// Rows of `sql` with column 0 equal to `key`, from a full scan on a
  /// separate Volcano engine (forced MySQL path, batch execution off).
  static std::vector<Row> Reference(const std::string& sql, int64_t key) {
    static Database* ref = [] {
      auto* d = new Database();
      d->exec_config().enable_batch = false;
      Status st = SetupTpch(d, 0.001);
      EXPECT_TRUE(st.ok()) << st.ToString();
      return d;
    }();
    auto r = ref->Query(sql, OptimizerPath::kMySql);
    EXPECT_TRUE(r.ok()) << r.status().ToString();
    std::vector<Row> out;
    if (!r.ok()) return out;
    for (const Row& row : r->rows) {
      if (row[0].AsInt() == key) out.push_back(row);
    }
    return out;
  }

  /// Three order keys present at this scale (first, middle, last) plus one
  /// absent key.
  static std::vector<int64_t> Keys() {
    auto r = db()->Query("SELECT o_orderkey FROM orders ORDER BY o_orderkey",
                         OptimizerPath::kMySql);
    EXPECT_TRUE(r.ok());
    if (!r.ok() || r->rows.empty()) return {};
    const std::vector<Row>& rows = r->rows;
    return {rows.front()[0].AsInt(), rows[rows.size() / 2][0].AsInt(),
            rows.back()[0].AsInt(), rows.back()[0].AsInt() + 1};
  }

  static const char* PathName(OptimizerPath path) {
    return path == OptimizerPath::kOrca ? "orca" : "mysql";
  }
};

TEST_F(TpchPointLookupTest, KeyLookupScansOneRow) {
  for (OptimizerPath path : {OptimizerPath::kMySql, OptimizerPath::kOrca}) {
    for (int64_t key : Keys()) {
      const std::string sql =
          "SELECT o_orderkey, o_custkey FROM orders WHERE o_orderkey = " +
          std::to_string(key);
      auto e = db()->Explain(sql, path);
      ASSERT_TRUE(e.ok()) << e.status().ToString();
      EXPECT_NE(e->find("Index range scan on orders"), std::string::npos)
          << PathName(path) << "\n" << *e;
      EXPECT_EQ(e->find("Table scan"), std::string::npos) << *e;
      auto r = db()->Query(sql, path);
      ASSERT_TRUE(r.ok()) << r.status().ToString();
      std::vector<Row> expected =
          Reference("SELECT o_orderkey, o_custkey FROM orders", key);
      EXPECT_EQ(r->rows_scanned, static_cast<int64_t>(expected.size()))
          << PathName(path) << " " << sql;
      EXPECT_EQ(r->rows, expected) << PathName(path) << " " << sql;
    }
  }
}

TEST_F(TpchPointLookupTest, KeyJoinScansOneRowPerTable) {
  for (OptimizerPath path : {OptimizerPath::kMySql, OptimizerPath::kOrca}) {
    for (int64_t key : Keys()) {
      const std::string sql =
          "SELECT o_orderkey, c_name, c_acctbal, n_name FROM orders, "
          "customer, nation WHERE o_orderkey = " +
          std::to_string(key) +
          " AND o_custkey = c_custkey AND c_nationkey = n_nationkey";
      auto e = db()->Explain(sql, path);
      ASSERT_TRUE(e.ok()) << e.status().ToString();
      EXPECT_NE(e->find("Index range scan on orders"), std::string::npos)
          << PathName(path) << "\n" << *e;
      EXPECT_EQ(e->find("Table scan"), std::string::npos) << *e;
      auto r = db()->Query(sql, path);
      ASSERT_TRUE(r.ok()) << r.status().ToString();
      std::vector<Row> expected = Reference(
          "SELECT o_orderkey, c_name, c_acctbal, n_name FROM orders, "
          "customer, nation WHERE o_custkey = c_custkey AND "
          "c_nationkey = n_nationkey",
          key);
      EXPECT_EQ(r->rows_scanned, 3 * static_cast<int64_t>(expected.size()))
          << PathName(path) << " " << sql;
      EXPECT_EQ(r->rows, expected) << PathName(path) << " " << sql;
    }
  }
}

TEST_F(TpchPointLookupTest, RangeBoundWinsOverEquality) {
  std::vector<int64_t> keys = Keys();
  ASSERT_EQ(keys.size(), 4u);
  const int64_t key = keys[1];
  const std::string eq = "(o_orderkey = " + std::to_string(key) + ")";
  const std::string sql =
      "SELECT o_orderkey, o_custkey FROM orders WHERE o_orderkey = " +
      std::to_string(key) + " AND o_orderkey > " + std::to_string(key - 1);
  for (OptimizerPath path : {OptimizerPath::kMySql, OptimizerPath::kOrca}) {
    auto e = db()->Explain(sql, path);
    ASSERT_TRUE(e.ok()) << e.status().ToString();
    // The `>` bound drives the range; the equality stays a filter on it.
    EXPECT_NE(e->find("Index range scan on orders"), std::string::npos)
        << PathName(path) << "\n" << *e;
    EXPECT_NE(e->find("with filter: " + eq), std::string::npos)
        << PathName(path) << "\n" << *e;
    auto r = db()->Query(sql, path);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    EXPECT_GT(r->rows_scanned, 1) << PathName(path);
    EXPECT_EQ(r->rows,
              Reference("SELECT o_orderkey, o_custkey FROM orders", key))
        << PathName(path);
  }
}

}  // namespace
}  // namespace taurus
