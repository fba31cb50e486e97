// Correlated subqueries run on their index on both optimizer paths.
//
// TPC-H Q17 and Q20 filter an inner block on `l_partkey = <outer column>`.
// An index range on that conjunct cannot be bound (its bound is not a
// constant), so a plan that prescribes one falls back to scanning all of
// lineitem once per outer row: about 1.5M rows for MySQL-path Q17 and 483M
// for Q20 at SF 0.01. The bounds below sit orders of magnitude under those
// figures and well above what the index plans scan. At SF 0.001 both
// queries return no rows, so this test loads SF 0.01 (about a second).

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "workloads/tpch.h"

namespace taurus {
namespace {

Database* Db() {
  static Database* instance = [] {
    auto* d = new Database();
    auto st = SetupTpch(d, 0.01);
    EXPECT_TRUE(st.ok()) << st.ToString();
    d->exec_config().parallel_workers = 1;
    return d;
  }();
  return instance;
}

/// Sorted rows with doubles rounded, so two plans' float summation orders
/// compare equal.
std::vector<std::string> Canonical(const std::vector<Row>& rows) {
  std::vector<std::string> out;
  char buf[40];
  for (const Row& r : rows) {
    std::string line;
    for (const Value& v : r) {
      if (v.kind() == Value::Kind::kDouble) {
        std::snprintf(buf, sizeof(buf), "%.4f|", v.AsDouble());
        line += buf;
      } else {
        line += v.ToString() + "|";
      }
    }
    out.push_back(std::move(line));
  }
  std::sort(out.begin(), out.end());
  return out;
}

struct Bounded {
  int query;  ///< TPC-H query number
  int64_t mysql_max_rows;
  int64_t orca_max_rows;
};

TEST(CorrelatedSubqueryTest, ScansMatchesNotTables) {
  // Q17's Orca plan is the derived-table conversion (paper section 4.2.3):
  // it scans lineitem once, whatever the inner access, so its bound is the
  // table plus the part rows.
  const Bounded kQueries[] = {
      {17, 20'000, 150'000},
      {20, 1'000'000, 1'000'000},
  };
  for (const Bounded& q : kQueries) {
    SCOPED_TRACE("Q" + std::to_string(q.query));
    const std::string& sql = TpchQueries()[static_cast<size_t>(q.query - 1)];
    auto mysql = Db()->Query(sql, OptimizerPath::kMySql);
    ASSERT_TRUE(mysql.ok()) << mysql.status().ToString();
    auto orca = Db()->Query(sql, OptimizerPath::kOrca);
    ASSERT_TRUE(orca.ok()) << orca.status().ToString();
    ASSERT_TRUE(orca->used_orca);
    ASSERT_FALSE(mysql->rows.empty());
    EXPECT_FALSE(mysql->rows[0][0].is_null());
    EXPECT_EQ(Canonical(mysql->rows), Canonical(orca->rows));
    EXPECT_LE(mysql->rows_scanned, q.mysql_max_rows);
    EXPECT_LE(orca->rows_scanned, q.orca_max_rows);
  }
}

TEST(CorrelatedSubqueryTest, MySqlQ17LooksUpLineitemInSubquery) {
  auto explain = Db()->Explain(TpchQueries()[16], OptimizerPath::kMySql);
  ASSERT_TRUE(explain.ok()) << explain.status().ToString();
  size_t sub = explain->find("Subquery");
  ASSERT_NE(sub, std::string::npos) << *explain;
  EXPECT_NE(explain->find("Index lookup on lineitem", sub), std::string::npos)
      << *explain;
}

}  // namespace
}  // namespace taurus
