#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "engine/database.h"
#include "frontend/prepare.h"
#include "parser/ast_util.h"
#include "parser/parser.h"
#include "types/datetime.h"

namespace taurus {
namespace {

class PrepareTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(catalog_
                    .CreateTable("orders",
                                 {{"o_orderkey", TypeId::kLong, 0, false},
                                  {"o_orderdate", TypeId::kDate, 0, false},
                                  {"o_orderpriority", TypeId::kVarchar, 15,
                                   false}})
                    .ok());
    ASSERT_TRUE(catalog_
                    .CreateTable("lineitem",
                                 {{"l_orderkey", TypeId::kLong, 0, false},
                                  {"l_commitdate", TypeId::kDate, 0, false},
                                  {"l_receiptdate", TypeId::kDate, 0, false},
                                  {"l_note", TypeId::kVarchar, 10, true}})
                    .ok());
  }

  Result<BoundStatement> Prep(const std::string& sql,
                              PrepareOptions opts = PrepareOptions()) {
    auto q = ParseSelect(sql);
    if (!q.ok()) return q.status();
    auto bound = BindStatement(catalog_, std::move(*q));
    if (!bound.ok()) return bound.status();
    BoundStatement stmt = std::move(*bound);
    TAURUS_RETURN_IF_ERROR(PrepareStatement(&stmt, opts));
    return stmt;
  }

  Catalog catalog_;
};

TEST_F(PrepareTest, ConstantFoldingDateArithmetic) {
  // The TPC-H Q4 pattern: DATE '1995-01-01' + INTERVAL 3 MONTH folds.
  auto s = Prep(
      "SELECT 1 FROM orders WHERE o_orderdate < DATE '1995-01-01' + "
      "INTERVAL '3' MONTH");
  ASSERT_TRUE(s.ok()) << s.status().ToString();
  const Expr& cmp = *s->block->where;
  ASSERT_EQ(cmp.children[1]->kind, Expr::Kind::kLiteral);
  EXPECT_EQ(cmp.children[1]->literal.ToString(), "1995-04-01");
}

TEST_F(PrepareTest, ConstantFoldingArithmetic) {
  auto s = Prep("SELECT o_orderkey + (2 * 3 + 1) FROM orders");
  ASSERT_TRUE(s.ok());
  const Expr& add = *s->block->select_items[0].expr;
  ASSERT_EQ(add.children[1]->kind, Expr::Kind::kLiteral);
  EXPECT_EQ(add.children[1]->literal.AsInt(), 7);
}

TEST_F(PrepareTest, ExistsBecomesSemiJoin) {
  // TPC-H Q4 shape (Listing 2 -> Listing 3 in the paper).
  auto s = Prep(
      "SELECT o_orderpriority, COUNT(*) FROM orders WHERE "
      "o_orderdate >= DATE '1995-01-01' AND EXISTS (SELECT * FROM lineitem "
      "WHERE l_orderkey = o_orderkey AND l_commitdate < l_receiptdate) "
      "GROUP BY o_orderpriority");
  ASSERT_TRUE(s.ok()) << s.status().ToString();
  ASSERT_EQ(s->block->from.size(), 1u);
  const TableRef& top = *s->block->from[0];
  ASSERT_EQ(top.kind, TableRef::Kind::kJoin);
  EXPECT_EQ(top.join_type, JoinType::kSemi);
  // Subquery's WHERE moved into the semi-join ON.
  ASSERT_NE(top.on, nullptr);
  std::vector<const Expr*> on_conjuncts;
  SplitConjuncts(top.on.get(), &on_conjuncts);
  EXPECT_EQ(on_conjuncts.size(), 2u);
  // The date filter stays in WHERE.
  ASSERT_NE(s->block->where, nullptr);
  std::vector<const Expr*> where_conjuncts;
  SplitConjuncts(s->block->where.get(), &where_conjuncts);
  EXPECT_EQ(where_conjuncts.size(), 1u);
  // Moved leaves are re-owned by the outer block.
  for (const TableRef* leaf : s->block->Leaves()) {
    EXPECT_EQ(leaf->owner, s->block.get());
  }
}

TEST_F(PrepareTest, NotExistsBecomesAntiSemiJoin) {
  auto s = Prep(
      "SELECT 1 FROM orders WHERE NOT EXISTS "
      "(SELECT 1 FROM lineitem WHERE l_orderkey = o_orderkey)");
  ASSERT_TRUE(s.ok()) << s.status().ToString();
  // NOT EXISTS parses as NOT(EXISTS); conversion handles the pushed form.
  const TableRef& top = *s->block->from[0];
  ASSERT_EQ(top.kind, TableRef::Kind::kJoin);
  EXPECT_EQ(top.join_type, JoinType::kAntiSemi);
}

TEST_F(PrepareTest, InSubqueryBecomesSemiJoinWithEquality) {
  auto s = Prep(
      "SELECT 1 FROM orders WHERE o_orderkey IN "
      "(SELECT l_orderkey FROM lineitem WHERE l_commitdate < l_receiptdate)");
  ASSERT_TRUE(s.ok()) << s.status().ToString();
  const TableRef& top = *s->block->from[0];
  EXPECT_EQ(top.join_type, JoinType::kSemi);
  std::vector<const Expr*> on;
  SplitConjuncts(top.on.get(), &on);
  ASSERT_EQ(on.size(), 2u);
  // One conjunct is the synthesized equality o_orderkey = l_orderkey.
  bool has_eq = false;
  for (const Expr* c : on) {
    if (c->kind == Expr::Kind::kBinary && c->bop == BinaryOp::kEq &&
        c->children[0]->kind == Expr::Kind::kColumnRef &&
        c->children[1]->kind == Expr::Kind::kColumnRef) {
      has_eq = true;
    }
  }
  EXPECT_TRUE(has_eq);
}

TEST_F(PrepareTest, NotInNullableColumnStaysSubquery) {
  // l_note is nullable: NOT IN cannot become an anti-semi join.
  auto s = Prep(
      "SELECT 1 FROM orders WHERE o_orderpriority NOT IN "
      "(SELECT l_note FROM lineitem)");
  ASSERT_TRUE(s.ok()) << s.status().ToString();
  ASSERT_NE(s->block->where, nullptr);
  EXPECT_EQ(s->block->where->kind, Expr::Kind::kInSubquery);
  EXPECT_EQ(s->block->from.size(), 1u);
  EXPECT_EQ(s->block->from[0]->kind, TableRef::Kind::kBase);
}

TEST_F(PrepareTest, NotInNonNullableConverts) {
  auto s = Prep(
      "SELECT 1 FROM orders WHERE o_orderkey NOT IN "
      "(SELECT l_orderkey FROM lineitem)");
  ASSERT_TRUE(s.ok()) << s.status().ToString();
  const TableRef& top = *s->block->from[0];
  ASSERT_EQ(top.kind, TableRef::Kind::kJoin);
  EXPECT_EQ(top.join_type, JoinType::kAntiSemi);
}

TEST_F(PrepareTest, AggregatedSubqueryNotConverted) {
  auto s = Prep(
      "SELECT 1 FROM orders WHERE o_orderkey IN "
      "(SELECT MAX(l_orderkey) FROM lineitem)");
  ASSERT_TRUE(s.ok());
  EXPECT_EQ(s->block->where->kind, Expr::Kind::kInSubquery);
}

TEST_F(PrepareTest, LeftJoinSimplifiedWhenNullRejecting) {
  auto s = Prep(
      "SELECT 1 FROM orders LEFT JOIN lineitem ON l_orderkey = o_orderkey "
      "WHERE l_commitdate < l_receiptdate");
  ASSERT_TRUE(s.ok());
  EXPECT_EQ(s->block->from[0]->join_type, JoinType::kInner);
}

TEST_F(PrepareTest, LeftJoinKeptWithoutNullRejection) {
  auto s = Prep(
      "SELECT 1 FROM orders LEFT JOIN lineitem ON l_orderkey = o_orderkey "
      "WHERE o_orderkey > 5");
  ASSERT_TRUE(s.ok());
  EXPECT_EQ(s->block->from[0]->join_type, JoinType::kLeft);
}

TEST_F(PrepareTest, LeftJoinKeptWhenRewriteDisabled) {
  PrepareOptions opts;
  opts.simplify_outer_joins = false;
  auto s = Prep(
      "SELECT 1 FROM orders LEFT JOIN lineitem ON l_orderkey = o_orderkey "
      "WHERE l_commitdate < l_receiptdate",
      opts);
  ASSERT_TRUE(s.ok());
  EXPECT_EQ(s->block->from[0]->join_type, JoinType::kLeft);
}

TEST_F(PrepareTest, LeavesRecollectedAfterRewrites) {
  auto s = Prep(
      "SELECT 1 FROM orders WHERE EXISTS "
      "(SELECT 1 FROM lineitem WHERE l_orderkey = o_orderkey)");
  ASSERT_TRUE(s.ok());
  ASSERT_EQ(s->leaves.size(), 2u);
  for (int i = 0; i < 2; ++i) {
    ASSERT_NE(s->leaves[i], nullptr);
    EXPECT_EQ(s->leaves[i]->ref_id, i);
  }
}

TEST_F(PrepareTest, MultipleSubqueriesAllConvert) {
  auto s = Prep(
      "SELECT 1 FROM orders WHERE EXISTS (SELECT 1 FROM lineitem WHERE "
      "l_orderkey = o_orderkey) AND o_orderkey IN (SELECT l_orderkey FROM "
      "lineitem)");
  ASSERT_TRUE(s.ok()) << s.status().ToString();
  // Two nested semi joins.
  const TableRef& top = *s->block->from[0];
  ASSERT_EQ(top.kind, TableRef::Kind::kJoin);
  EXPECT_EQ(top.join_type, JoinType::kSemi);
  ASSERT_EQ(top.left->kind, TableRef::Kind::kJoin);
  EXPECT_EQ(top.left->join_type, JoinType::kSemi);
}

TEST_F(PrepareTest, StringComparedWithDateColumnBecomesDate) {
  auto s = Prep(
      "SELECT 1 FROM orders WHERE o_orderdate BETWEEN '1995-09-01' AND "
      "'1995-09-30' AND '1995-01-01' < o_orderdate AND "
      "o_orderdate IN ('1995-09-02', 'not a date')");
  ASSERT_TRUE(s.ok()) << s.status().ToString();
  std::vector<Expr*> conjs;
  SplitConjunctsMutable(s->block->where.get(), &conjs);
  ASSERT_EQ(conjs.size(), 3u);
  EXPECT_EQ(conjs[0]->children[1]->literal.type(), TypeId::kDate);
  EXPECT_EQ(conjs[0]->children[2]->literal.type(), TypeId::kDate);
  EXPECT_EQ(conjs[1]->children[0]->literal.type(), TypeId::kDate);
  EXPECT_EQ(conjs[2]->children[1]->literal.type(), TypeId::kDate);
  // A string that is not a date stays a string.
  EXPECT_EQ(conjs[2]->children[2]->literal.kind(), Value::Kind::kString);
}

/// A DATE or DATETIME column compared with a string constant selects the
/// rows the DATE '...' (or CAST) form selects, on both optimizer paths,
/// batched and row at a time. Before the Prepare coercion the string
/// compared as a number ('1995-09-01' as 1995), so BETWEEN and = found
/// nothing and >= found every row.
TEST(PrepareTemporalTest, StringConstantsCompareAsTheColumnType) {
  Database db;
  ASSERT_TRUE(db.ExecuteSql("CREATE TABLE ev (id INT NOT NULL PRIMARY KEY, "
                            "d DATE NOT NULL, ts DATETIME)")
                  .ok());
  auto first = ParseDate("1995-08-01");
  ASSERT_TRUE(first.ok());
  std::vector<Row> rows;
  for (int i = 0; i < 200; ++i) {  // every 8th day, 1995-08-01 .. 1999-12
    const int64_t day = *first + 8 * i;
    rows.push_back({Value::Int(i), Value::Date(day),
                    Value::Datetime(day * 86400 + 3600 * (i % 24))});
  }
  ASSERT_TRUE(db.BulkLoad("ev", std::move(rows)).ok());
  ASSERT_TRUE(db.AnalyzeAll().ok());

  const std::vector<std::pair<std::string, std::string>> cases = {
      {"d BETWEEN '1995-09-01' AND '1995-09-30'",
       "d BETWEEN DATE '1995-09-01' AND DATE '1995-09-30'"},
      {"d = '1995-09-02'", "d = DATE '1995-09-02'"},
      {"d IN ('1995-09-02', '1995-09-10')",
       "d IN (DATE '1995-09-02', DATE '1995-09-10')"},
      {"d >= '1998-12-01'", "d >= DATE '1998-12-01'"},
      {"'1998-12-01' > d", "DATE '1998-12-01' > d"},
      {"d <> '1995-09-02'", "d <> DATE '1995-09-02'"},
      {"ts < '1995-09-10 12:00:00'",
       "ts < CAST('1995-09-10 12:00:00' AS DATETIME)"},
      {"ts >= '1999-01-01'", "ts >= CAST('1999-01-01' AS DATETIME)"},
  };
  auto ids = [&db](const std::string& where, OptimizerPath path) {
    auto r = db.Query("SELECT id FROM ev WHERE " + where, path);
    EXPECT_TRUE(r.ok()) << where << ": " << r.status().ToString();
    std::vector<int64_t> out;
    if (r.ok()) {
      for (const Row& row : r->rows) out.push_back(row[0].AsInt());
    }
    std::sort(out.begin(), out.end());
    return out;
  };
  for (const auto& [text, typed] : cases) {
    for (OptimizerPath path : {OptimizerPath::kMySql, OptimizerPath::kOrca}) {
      for (bool batch : {false, true}) {
        SCOPED_TRACE(text +
                     (path == OptimizerPath::kOrca ? " orca" : " mysql") +
                     (batch ? " batch" : " volcano"));
        db.exec_config().enable_batch = batch;
        const std::vector<int64_t> want = ids(typed, path);
        // Not vacuous: each typed form keeps some rows and drops others.
        EXPECT_GT(want.size(), 0u);
        EXPECT_LT(want.size(), 200u);
        EXPECT_EQ(ids(text, path), want);
      }
    }
  }
}

}  // namespace
}  // namespace taurus
