#include <gtest/gtest.h>

#include <random>
#include <unordered_map>

#include "exec/block_executor.h"
#include "exec/exec_internal.h"
#include "exec/expr_eval.h"
#include "frontend/prepare.h"
#include "myopt/mysql_optimizer.h"
#include "myopt/refine.h"
#include "parser/parser.h"
#include "storage/storage.h"

namespace taurus {
namespace {

// ---------------------------------------------------------------------------
// Expression evaluation semantics (three-valued logic, functions, casts).
// ---------------------------------------------------------------------------

class ExprEvalTest : public ::testing::Test {
 protected:
  /// Evaluates a constant SQL expression through the full pipeline.
  Value Eval(const std::string& expr_sql) {
    auto q = ParseSelect("SELECT " + expr_sql);
    EXPECT_TRUE(q.ok()) << q.status().ToString();
    auto bound = BindStatement(catalog_, std::move(*q));
    EXPECT_TRUE(bound.ok()) << bound.status().ToString();
    Frame frame;
    auto v = EvalExpr(*(*bound).block->select_items[0].expr, frame, nullptr,
                      nullptr);
    EXPECT_TRUE(v.ok()) << v.status().ToString();
    return v.ok() ? *v : Value::Null();
  }

  Catalog catalog_;
};

TEST_F(ExprEvalTest, Arithmetic) {
  EXPECT_EQ(Eval("1 + 2 * 3").AsInt(), 7);
  EXPECT_DOUBLE_EQ(Eval("7 / 2").AsDouble(), 3.5);
  EXPECT_EQ(Eval("7 % 3").AsInt(), 1);
  EXPECT_EQ(Eval("-(5 - 9)").AsInt(), 4);
}

TEST_F(ExprEvalTest, DivisionByZeroIsNull) {
  EXPECT_TRUE(Eval("1 / 0").is_null());
  EXPECT_TRUE(Eval("1 % 0").is_null());
}

TEST_F(ExprEvalTest, NullPropagation) {
  EXPECT_TRUE(Eval("1 + NULL").is_null());
  EXPECT_TRUE(Eval("NULL = NULL").is_null());
  EXPECT_TRUE(Eval("NOT NULL").is_null());
  EXPECT_TRUE(Eval("NULL LIKE 'x'").is_null());
}

TEST_F(ExprEvalTest, ThreeValuedAndOr) {
  // FALSE dominates AND; TRUE dominates OR.
  EXPECT_EQ(Eval("NULL AND 0").AsInt(), 0);
  EXPECT_TRUE(Eval("NULL AND 1").is_null());
  EXPECT_EQ(Eval("NULL OR 1").AsInt(), 1);
  EXPECT_TRUE(Eval("NULL OR 0").is_null());
}

TEST_F(ExprEvalTest, IsNullOperators) {
  EXPECT_EQ(Eval("NULL IS NULL").AsInt(), 1);
  EXPECT_EQ(Eval("5 IS NULL").AsInt(), 0);
  EXPECT_EQ(Eval("5 IS NOT NULL").AsInt(), 1);
}

TEST_F(ExprEvalTest, InListThreeValued) {
  EXPECT_EQ(Eval("2 IN (1, 2, 3)").AsInt(), 1);
  EXPECT_EQ(Eval("5 IN (1, 2, 3)").AsInt(), 0);
  EXPECT_TRUE(Eval("5 IN (1, NULL)").is_null());   // unknown
  EXPECT_EQ(Eval("1 IN (1, NULL)").AsInt(), 1);    // found despite NULL
  EXPECT_TRUE(Eval("5 NOT IN (1, NULL)").is_null());
}

TEST_F(ExprEvalTest, CaseEvaluation) {
  EXPECT_EQ(Eval("CASE WHEN 1 = 2 THEN 'a' WHEN 2 = 2 THEN 'b' ELSE 'c' "
                 "END").AsString(),
            "b");
  EXPECT_EQ(Eval("CASE WHEN 1 = 2 THEN 'a' ELSE 'c' END").AsString(), "c");
  EXPECT_TRUE(Eval("CASE WHEN 1 = 2 THEN 'a' END").is_null());
}

TEST_F(ExprEvalTest, StringFunctions) {
  EXPECT_EQ(Eval("SUBSTRING('hello world', 7, 5)").AsString(), "world");
  EXPECT_EQ(Eval("UPPER('abc')").AsString(), "ABC");
  EXPECT_EQ(Eval("LOWER('AbC')").AsString(), "abc");
  EXPECT_EQ(Eval("CONCAT('a', 'b', 'c')").AsString(), "abc");
  EXPECT_EQ(Eval("LENGTH('hello')").AsInt(), 5);
  EXPECT_EQ(Eval("TRIM('  x  ')").AsString(), "x");
}

TEST_F(ExprEvalTest, NumericFunctions) {
  EXPECT_EQ(Eval("ABS(-4)").AsInt(), 4);
  EXPECT_DOUBLE_EQ(Eval("ROUND(2.567, 2)").AsDouble(), 2.57);
  EXPECT_EQ(Eval("MOD(10, 3)").AsInt(), 1);
  EXPECT_EQ(Eval("COALESCE(NULL, NULL, 7)").AsInt(), 7);
  EXPECT_EQ(Eval("IFNULL(NULL, 3)").AsInt(), 3);
  EXPECT_TRUE(Eval("NULLIF(4, 4)").is_null());
  EXPECT_EQ(Eval("IF(1 < 2, 'y', 'n')").AsString(), "y");
}

TEST_F(ExprEvalTest, DateFunctions) {
  EXPECT_EQ(Eval("YEAR(DATE '1997-03-01')").AsInt(), 1997);
  EXPECT_EQ(Eval("MONTH(DATE '1997-03-01')").AsInt(), 3);
  EXPECT_EQ(Eval("DAY(DATE '1997-03-09')").AsInt(), 9);
  EXPECT_EQ(Eval("DATE '1997-01-31' + INTERVAL 1 MONTH").ToString(),
            "1997-02-28");
  EXPECT_EQ(Eval("DATE '1997-03-05' - INTERVAL 10 DAY").ToString(),
            "1997-02-23");
}

TEST_F(ExprEvalTest, Casts) {
  EXPECT_EQ(Eval("CAST('42' AS INT)").AsInt(), 42);
  EXPECT_EQ(Eval("CAST(3.9 AS INT)").AsInt(), 3);
  EXPECT_EQ(Eval("CAST(7 AS CHAR(10))").AsString(), "7");
  EXPECT_EQ(Eval("CAST('1995-06-17' AS DATE)").ToString(), "1995-06-17");
}

TEST_F(ExprEvalTest, BetweenAndLike) {
  EXPECT_EQ(Eval("5 BETWEEN 1 AND 10").AsInt(), 1);
  EXPECT_EQ(Eval("15 NOT BETWEEN 1 AND 10").AsInt(), 1);
  EXPECT_EQ(Eval("'hello' LIKE 'he%'").AsInt(), 1);
  EXPECT_EQ(Eval("'hello' NOT LIKE '%z%'").AsInt(), 1);
}

TEST_F(ExprEvalTest, ConstFolding) {
  auto q = ParseSelect("SELECT 1 + 2");
  auto bound = BindStatement(catalog_, std::move(*q));
  ASSERT_TRUE(bound.ok());
  EXPECT_TRUE(IsConstExpr(*(*bound).block->select_items[0].expr));
  auto v = EvalConstExpr(*(*bound).block->select_items[0].expr);
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(v->AsInt(), 3);
}

// ---------------------------------------------------------------------------
// Executor behaviors that need precise coverage beyond the e2e suites.
// ---------------------------------------------------------------------------

class ExecutorTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto t = catalog_.CreateTable(
        "t", {{"a", TypeId::kLong, 0, false},
              {"b", TypeId::kLong, 0, true},
              {"s", TypeId::kVarchar, 10, true}});
    ASSERT_TRUE(t.ok());
    ASSERT_TRUE(catalog_.AddIndex("t", {"t_pk", {0}, true, true}).ok());
    TableData* data = storage_.CreateTable(*t);
    for (int i = 0; i < 20; ++i) {
      data->Append({Value::Int(i),
                    i % 4 == 0 ? Value::Null() : Value::Int(i % 5),
                    i % 3 == 0 ? Value::Null()
                               : Value::Str("s" + std::to_string(i % 4))});
    }
    data->BuildIndexes();
    catalog_.SetStats((*t)->id, ComputeTableStats(*data));

    auto u = catalog_.CreateTable("u", {{"x", TypeId::kLong, 0, false}});
    ASSERT_TRUE(u.ok());
    TableData* ud = storage_.CreateTable(*u);
    for (int i = 0; i < 5; ++i) ud->Append({Value::Int(i * 2)});
    ud->BuildIndexes();
    catalog_.SetStats((*u)->id, ComputeTableStats(*ud));
  }

  Result<std::vector<Row>> Run(const std::string& sql) {
    auto parsed = ParseSelect(sql);
    if (!parsed.ok()) return parsed.status();
    auto bound = BindStatement(catalog_, std::move(*parsed));
    if (!bound.ok()) return bound.status();
    BoundStatement stmt = std::move(*bound);
    TAURUS_RETURN_IF_ERROR(PrepareStatement(&stmt));
    auto skel = MySqlOptimize(catalog_, &stmt);
    if (!skel.ok()) return skel.status();
    auto compiled = RefinePlan(std::move(stmt), **skel, catalog_);
    if (!compiled.ok()) return compiled.status();
    query_ = std::move(*compiled);
    return ExecuteQuery(query_.get(), storage_, &ctx_);
  }

  Catalog catalog_;
  Storage storage_;
  std::unique_ptr<CompiledQuery> query_;
  ExecContext ctx_;
};

TEST_F(ExecutorTest, NullsNeverJoinOnEquality) {
  // b is NULL for multiples of 4; NULL = x must not match.
  auto rows = Run("SELECT COUNT(*) FROM t, u WHERE t.b = u.x");
  ASSERT_TRUE(rows.ok()) << rows.status().ToString();
  // b = i%5 where i%4 != 0; u has {0,2,4,6,8}. Matching b values are
  // {0, 2, 4}, three source rows each: 9 join matches, and the NULL b
  // rows (i % 4 == 0) never match.
  EXPECT_EQ((*rows)[0][0].AsInt(), 9);
}

TEST_F(ExecutorTest, GroupByNullGroupsTogether) {
  auto rows = Run("SELECT b, COUNT(*) FROM t GROUP BY b ORDER BY b");
  ASSERT_TRUE(rows.ok()) << rows.status().ToString();
  // NULL forms its own group and sorts first.
  EXPECT_TRUE((*rows)[0][0].is_null());
  EXPECT_EQ((*rows)[0][1].AsInt(), 5);  // i = 0,4,8,12,16
}

TEST_F(ExecutorTest, AggregatesIgnoreNulls) {
  auto rows = Run("SELECT COUNT(b), COUNT(*), SUM(b), AVG(b) FROM t");
  ASSERT_TRUE(rows.ok()) << rows.status().ToString();
  EXPECT_EQ((*rows)[0][0].AsInt(), 15);  // non-NULL b
  EXPECT_EQ((*rows)[0][1].AsInt(), 20);
  EXPECT_FALSE((*rows)[0][2].is_null());
  double avg = (*rows)[0][3].AsDouble();
  EXPECT_NEAR(avg, (*rows)[0][2].AsDouble() / 15.0, 1e-9);
}

TEST_F(ExecutorTest, OrderByNullsFirstAscLastDesc) {
  auto asc = Run("SELECT b FROM t ORDER BY b LIMIT 1");
  ASSERT_TRUE(asc.ok());
  EXPECT_TRUE((*asc)[0][0].is_null());
  auto desc = Run("SELECT b FROM t ORDER BY b DESC LIMIT 1");
  ASSERT_TRUE(desc.ok());
  EXPECT_FALSE((*desc)[0][0].is_null());
}

TEST_F(ExecutorTest, StableSortPreservesTieOrder) {
  auto rows = Run("SELECT a, b FROM t WHERE b IS NOT NULL ORDER BY b");
  ASSERT_TRUE(rows.ok());
  // Within equal b, rows keep scan (a) order because the sort is stable.
  for (size_t i = 1; i < rows->size(); ++i) {
    if (Value::Compare((*rows)[i - 1][1], (*rows)[i][1]) == 0) {
      EXPECT_LT((*rows)[i - 1][0].AsInt(), (*rows)[i][0].AsInt());
    }
  }
}

TEST_F(ExecutorTest, LimitShortCircuitsScan) {
  auto rows = Run("SELECT a FROM t LIMIT 3");
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(rows->size(), 3u);
  EXPECT_LT(ctx_.rows_scanned, 20);  // early exit before full scan
}

TEST_F(ExecutorTest, SubplanCacheForNonCorrelated) {
  auto rows = Run(
      "SELECT a FROM t WHERE a > (SELECT AVG(x) FROM u) ORDER BY a");
  ASSERT_TRUE(rows.ok()) << rows.status().ToString();
  EXPECT_EQ((*rows)[0][0].AsInt(), 5);  // avg(u.x) = 4
  // The u-scan ran once (5 rows), not once per t row.
  EXPECT_LE(ctx_.rows_scanned, 20 + 5);
}

TEST_F(ExecutorTest, CorrelatedRebindCounter) {
  auto rows = Run(
      "SELECT COUNT(*) FROM t WHERE b = (SELECT MAX(t2.b) FROM t t2 "
      "WHERE t2.a < t.a)");
  ASSERT_TRUE(rows.ok()) << rows.status().ToString();
  EXPECT_GE((*rows)[0][0].AsInt(), 0);
}

TEST_F(ExecutorTest, ScalarSubqueryMultipleRowsIsError) {
  auto rows = Run("SELECT (SELECT x FROM u) FROM t");
  EXPECT_EQ(rows.status().code(), StatusCode::kExecutionError);
}

TEST_F(ExecutorTest, EmptyScalarSubqueryIsNull) {
  auto rows = Run("SELECT (SELECT x FROM u WHERE x > 100) FROM t LIMIT 1");
  ASSERT_TRUE(rows.ok()) << rows.status().ToString();
  EXPECT_TRUE((*rows)[0][0].is_null());
}

TEST_F(ExecutorTest, StreamAndHashAggAgree) {
  // Force both modes through the plan and compare.
  auto parsed = ParseSelect("SELECT b, COUNT(*), SUM(a) FROM t GROUP BY b");
  auto bound = BindStatement(catalog_, std::move(*parsed));
  ASSERT_TRUE(bound.ok());
  BoundStatement stmt = std::move(*bound);
  ASSERT_TRUE(PrepareStatement(&stmt).ok());
  auto skel = MySqlOptimize(catalog_, &stmt);
  ASSERT_TRUE(skel.ok());
  (*skel)->stream_agg = false;
  auto hash_q = RefinePlan(std::move(stmt), **skel, catalog_);
  ASSERT_TRUE(hash_q.ok());
  auto hash_rows = ExecuteQuery(hash_q->get(), storage_);
  ASSERT_TRUE(hash_rows.ok());

  auto parsed2 = ParseSelect("SELECT b, COUNT(*), SUM(a) FROM t GROUP BY b");
  auto bound2 = BindStatement(catalog_, std::move(*parsed2));
  BoundStatement stmt2 = std::move(*bound2);
  ASSERT_TRUE(PrepareStatement(&stmt2).ok());
  auto skel2 = MySqlOptimize(catalog_, &stmt2);
  ASSERT_TRUE(skel2.ok());
  (*skel2)->stream_agg = true;
  auto stream_q = RefinePlan(std::move(stmt2), **skel2, catalog_);
  ASSERT_TRUE(stream_q.ok());
  EXPECT_EQ((*stream_q)->root->agg_mode, AggMode::kStream);
  auto stream_rows = ExecuteQuery(stream_q->get(), storage_);
  ASSERT_TRUE(stream_rows.ok());
  EXPECT_EQ(hash_rows->size(), stream_rows->size());
}

TEST_F(ExecutorTest, OwnedFrameRoundTrip) {
  Row r1{Value::Int(1)};
  Row r2{Value::Str("x")};
  Frame f{&r1, nullptr, &r2};
  OwnedFrame owned(f);
  Frame view = owned.View();
  ASSERT_EQ(view.size(), 3u);
  EXPECT_EQ((*view[0])[0].AsInt(), 1);
  EXPECT_EQ(view[1], nullptr);
  EXPECT_EQ((*view[2])[0].AsString(), "x");
}

// ---------------------------------------------------------------------------
// The hash-join table: candidate order and collision filtering.
// ---------------------------------------------------------------------------

/// The entries a probe for `key` with hash `hash` finds, in probe order.
std::vector<size_t> FindMatches(const HashJoinShared& state, uint64_t hash,
                                const Value& key) {
  std::vector<size_t> out;
  state.FindMatches(
      hash, [&](size_t) -> const Value& { return key; }, &out);
  return out;
}

TEST(HashJoinSharedTest, EqualHashesNewestFirstAndCollisionsFiltered) {
  HashJoinShared state;
  state.num_keys = 1;
  state.keys = {Value::Int(5), Value::Int(7), Value::Int(5), Value::Int(9),
                Value::Int(5)};
  state.hashes = {100, 100, 100, 200, 100};  // key 7 collides with key 5
  EXPECT_TRUE(FindMatches(state, 100, Value::Int(5)).empty());  // unbuilt
  state.BuildTable();
  EXPECT_EQ(FindMatches(state, 100, Value::Int(5)),
            (std::vector<size_t>{4, 2, 0}));
  EXPECT_EQ(FindMatches(state, 100, Value::Int(7)), (std::vector<size_t>{1}));
  EXPECT_EQ(FindMatches(state, 200, Value::Int(9)), (std::vector<size_t>{3}));
  EXPECT_TRUE(FindMatches(state, 200, Value::Int(5)).empty());
  EXPECT_TRUE(FindMatches(state, 300, Value::Int(5)).empty());
}

TEST(HashJoinSharedTest, CandidateOrderMatchesUnorderedMultimap) {
  // The table the flat one replaced: a probe walked equal_range(hash),
  // which libstdc++ returns newest first, rehashes included.
  std::mt19937_64 rng(20221014);
  for (size_t n : {0, 1, 7, 64, 3000}) {
    HashJoinShared state;
    state.num_keys = 1;
    std::unordered_multimap<uint64_t, size_t> reference;
    for (size_t e = 0; e < n; ++e) {
      // Few distinct hashes, spread over high and low bits.
      const uint64_t hash = (rng() % 97) * 0x0101010101010101ULL;
      state.keys.push_back(Value::Int(0));
      state.hashes.push_back(hash);
      reference.emplace(hash, e);
    }
    state.BuildTable();
    for (uint64_t h = 0; h < 97; ++h) {
      const uint64_t hash = h * 0x0101010101010101ULL;
      std::vector<size_t> want;
      auto [b, e] = reference.equal_range(hash);
      for (auto it = b; it != e; ++it) want.push_back(it->second);
      EXPECT_EQ(FindMatches(state, hash, Value::Int(0)), want)
          << "n=" << n << " hash " << hash;
    }
  }
}

}  // namespace
}  // namespace taurus
