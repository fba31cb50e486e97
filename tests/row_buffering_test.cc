// Row buffering under the row-lifetime rule (DESIGN.md section 13).
// Hash-join builds, group-by representatives and sort buffers keep
// pointers to rows that live for the whole query and deep-copy only the
// slots whose rows do not. Each query below puts a buffered slot where a
// kept pointer would be wrong — on a correlated derived table that a
// nested loop re-materializes for every outer row, on a hash join that a
// nested loop rebuilds for every outer row, on derived rows that morsel
// workers buffer — and checks both optimizer paths in every executor mode
// against the serial row-at-a-time executor on the MySQL path. The strings
// are long enough to live on the heap, so reading a freed row is an
// AddressSanitizer report in the sanitizer leg
// (TAURUS_SANITIZE=address scripts/check.sh).

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "engine/database.h"
#include "exec/frame.h"

namespace taurus {
namespace {

/// Longer than the small-string buffer, so the characters are heap-owned.
std::string Long(const std::string& s) { return s + std::string(24, '.'); }

std::string RowsText(std::vector<Row> rows) {
  std::sort(rows.begin(), rows.end(), [](const Row& a, const Row& b) {
    for (size_t i = 0; i < a.size() && i < b.size(); ++i) {
      int c = Value::Compare(a[i], b[i]);
      if (c != 0) return c < 0;
    }
    return a.size() < b.size();
  });
  std::string out;
  for (const Row& r : rows) out += RowToString(r) + "\n";
  return out;
}

struct ExecMode {
  bool batch;
  int workers;
};

void Configure(Database* db, ExecMode mode) {
  db->exec_config() = ExecutorConfig();
  db->exec_config().enable_batch = mode.batch;
  db->exec_config().parallel_workers = mode.workers;
  if (mode.workers > 1) {
    db->exec_config().morsel_rows = 64;
    db->exec_config().parallel_min_driver_rows = 0;
  }
}

TEST(OwnedFrameTest, BorrowsSlotsAndCopiesOnlyTheNamedOnes) {
  Row stable{Value::Int(1)};
  Row rebound{Value::Str(Long("derived row"))};
  Frame frame{&stable, nullptr, &rebound};
  OwnedFrame owned(frame, /*copy_slots=*/{1, 2});
  EXPECT_EQ(owned.View()[0], &stable);
  EXPECT_EQ(owned.View()[1], nullptr);
  ASSERT_NE(owned.View()[2], &rebound);
  // The producer re-materializes; the buffer moves as its container grows.
  rebound[0] = Value::Str("overwritten");
  OwnedFrame moved = std::move(owned);
  EXPECT_EQ(moved.View()[0], &stable);
  EXPECT_EQ((*moved.View()[2])[0].AsString(), Long("derived row"));
}

class RowBufferingTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    db_ = std::make_unique<Database>();
    ASSERT_TRUE(db_->ExecuteSql("CREATE TABLE grp (g_id INT NOT NULL "
                                "PRIMARY KEY, g_name VARCHAR(64) NOT NULL)")
                    .ok());
    ASSERT_TRUE(db_->ExecuteSql("CREATE TABLE item (i_id INT NOT NULL "
                                "PRIMARY KEY, i_grp INT NOT NULL, i_val INT "
                                "NOT NULL, i_note VARCHAR(64) NOT NULL)")
                    .ok());
    ASSERT_TRUE(db_->ExecuteSql("CREATE TABLE tag (t_id INT NOT NULL "
                                "PRIMARY KEY, t_val INT NOT NULL, t_label "
                                "VARCHAR(64) NOT NULL)")
                    .ok());
    std::vector<Row> grp, item, tag;
    for (int g = 1; g <= 8; ++g) {
      grp.push_back(
          {Value::Int(g), Value::Str(Long("group " + std::to_string(g)))});
    }
    // Eight groups of 250 items; within a group i_val is unique, so a
    // match on it picks exactly one item.
    for (int i = 0; i < 2000; ++i) {
      item.push_back({Value::Int(i), Value::Int(1 + i % 8), Value::Int(i / 8),
                      Value::Str(Long("note " + std::to_string(i)))});
    }
    for (int t = 1; t <= 40; ++t) {
      tag.push_back({Value::Int(t), Value::Int(t),
                     Value::Str(Long("tag " + std::to_string(t)))});
    }
    ASSERT_TRUE(db_->BulkLoad("grp", std::move(grp)).ok());
    ASSERT_TRUE(db_->BulkLoad("item", std::move(item)).ok());
    ASSERT_TRUE(db_->BulkLoad("tag", std::move(tag)).ok());
    ASSERT_TRUE(db_->AnalyzeAll().ok());
  }

  static void TearDownTestSuite() { db_.reset(); }

  /// Runs `sql` on both optimizer paths in every executor mode and compares
  /// each result with the oracle's: the MySQL path with enable_batch = false
  /// and parallel_workers = 1. Returns the oracle's result.
  static QueryResult CheckAgainstOracle(const std::string& sql) {
    SCOPED_TRACE(sql);
    Configure(db_.get(), {false, 1});
    auto oracle = db_->Query(sql, OptimizerPath::kMySql);
    EXPECT_TRUE(oracle.ok()) << oracle.status().ToString();
    if (!oracle.ok()) return QueryResult();
    EXPECT_FALSE(oracle->rows.empty()) << "an empty result checks nothing";
    const std::string want = RowsText(oracle->rows);
    for (OptimizerPath path : {OptimizerPath::kMySql, OptimizerPath::kOrca}) {
      for (ExecMode mode : {ExecMode{false, 1}, ExecMode{true, 1},
                            ExecMode{false, 4}, ExecMode{true, 4}}) {
        SCOPED_TRACE(std::string(path == OptimizerPath::kOrca ? "orca"
                                                              : "mysql") +
                     " batch=" + std::to_string(mode.batch) +
                     " workers=" + std::to_string(mode.workers));
        Configure(db_.get(), mode);
        auto got = db_->Query(sql, path);
        EXPECT_TRUE(got.ok()) << got.status().ToString();
        if (got.ok()) {
          EXPECT_EQ(RowsText(got->rows), want);
        }
      }
    }
    Configure(db_.get(), {true, 1});
    return std::move(oracle).value();
  }

  static std::unique_ptr<Database> db_;
};

std::unique_ptr<Database> RowBufferingTest::db_;

/// The outer group's items as a derived table correlated to grp; the GROUP
/// BY keeps Prepare from merging it into the enclosing block.
const char kGroupItems[] =
    "(SELECT i_val AS val, MAX(i_note) AS note FROM item "
    "WHERE i_grp = g.g_id GROUP BY i_val) d";

TEST_F(RowBufferingTest, SortRowsFromCorrelatedDerivedTable) {
  // d is the right side of a nested-loop left join, re-materialized for
  // every tag row while the sort buffer still holds rows bound to earlier
  // materializations; d.note is projected only after the sort.
  QueryResult r = CheckAgainstOracle(
      std::string("SELECT g.g_id, (SELECT d.note FROM tag t LEFT JOIN ") +
      kGroupItems +
      " ON d.val > t.t_val ORDER BY d.val DESC, t.t_id LIMIT 1) FROM grp g");
  EXPECT_GT(r.rebinds, 0);
}

TEST_F(RowBufferingTest, GroupRepresentativesFromCorrelatedDerivedTable) {
  // One group per tag row, whose representative binds the one d row with
  // d.val = t.t_val; every representative's d.note is projected after the
  // last tag row has re-materialized d.
  QueryResult r = CheckAgainstOracle(
      std::string("SELECT g.g_id, (SELECT d.note FROM tag t LEFT JOIN ") +
      kGroupItems +
      " ON d.val >= t.t_val AND d.val <= t.t_val GROUP BY t.t_id "
      "ORDER BY t.t_id DESC LIMIT 1) FROM grp g");
  EXPECT_GT(r.rebinds, 0);
}

TEST_F(RowBufferingTest, JoinRebuiltUnderNestedLoop) {
  // The parenthesized inner join is the right side of a non-equi left
  // join, re-opened for every grp row, while the group and sort buffers
  // above keep rows it produced for earlier ones. (Its ON stays inside the
  // nest, so both optimizers plan the nest as a hash join, rebuilt for
  // every grp row.)
  const std::string from =
      " FROM grp g LEFT JOIN (item i JOIN tag t ON i.i_val = t.t_val) "
      "ON i.i_grp < g.g_id";
  auto plan = db_->Explain("SELECT g.g_id" + from, OptimizerPath::kMySql);
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  EXPECT_NE(plan->find("Nested loop left join"), std::string::npos) << *plan;

  CheckAgainstOracle("SELECT g.g_id, i.i_id, t.t_label, i.i_note, COUNT(*)" +
                     from + " GROUP BY g.g_id, i.i_id");
  CheckAgainstOracle("SELECT g.g_name, i.i_note, t.t_label" + from +
                     " ORDER BY g.g_id, i.i_id");
}

TEST_F(RowBufferingTest, MorselWorkersBufferDerivedRows) {
  // item drives a morsel-parallel pipeline that probes a hash table built
  // from a derived table. Refinement keeps derived tables off worker-side
  // inner loops, so the derived rows reach the workers through that
  // prebuilt table; the worker shards buffer them in their groups and
  // sort rows, which the main thread reads after the shards are gone.
  const std::string from =
      " FROM item i JOIN (SELECT g_id AS g, MAX(g_name) AS name FROM grp "
      "GROUP BY g_id) d ON i.i_grp = d.g";
  const std::string grouped =
      "SELECT d.g, d.name, COUNT(*), SUM(i.i_val)" + from + " GROUP BY d.g";
  CheckAgainstOracle(grouped);
  CheckAgainstOracle("SELECT d.name, i.i_id" + from +
                     " WHERE i.i_val < 10 ORDER BY i.i_id");

  Configure(db_.get(), {true, 4});
  auto par = db_->Query(grouped, OptimizerPath::kMySql);
  ASSERT_TRUE(par.ok()) << par.status().ToString();
  EXPECT_GT(par->parallel_pipelines, 0);
  Configure(db_.get(), {true, 1});
}

}  // namespace
}  // namespace taurus
