// Vectorized batch executor: result equivalence against the row-at-a-time
// Volcano executor across every TPC-H and TPC-DS query on both optimizer
// paths, under serial and morsel-parallel execution, across a batch-size
// sweep that includes the degenerate size 1; selection-vector edge cases
// (all-pass / all-fail / alternating NULLs, column-vs-column compares);
// operand-view leaves (outer bindings, NULL-extended rows, coercions, NULL
// literals); vectorized index nested-loop join edge cases; and EXPLAIN
// ANALYZE actuals staying identical when rows move in batches.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <memory>
#include <regex>
#include <string>
#include <vector>

#include "engine/database.h"
#include "exec/expr_eval.h"
#include "exec/vector_ops.h"
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

std::string RowsText(std::vector<Row> rows) {
  SortRows(&rows);
  std::string out;
  for (const Row& r : rows) out += RowToString(r) + "\n";
  return out;
}

/// Arms the executor knobs for one comparison run. Batch mode changes only
/// *how* rows move, never which rows accumulate into which aggregate in
/// what order — so equality against Volcano is exact (doubles included),
/// unlike the serial-vs-parallel comparison where morsel partial sums
/// legitimately reassociate.
void Configure(Database* db, int workers, bool batch, int64_t batch_size) {
  db->exec_config() = ExecutorConfig();
  db->exec_config().parallel_workers = workers;
  if (workers > 1) {
    db->exec_config().morsel_rows = 64;
    db->exec_config().parallel_min_driver_rows = 0;
  }
  db->exec_config().enable_batch = batch;
  db->exec_config().batch_size = batch_size;
}

/// Runs every query of a workload in Volcano mode, then batched at each
/// batch size, asserting bitwise row equality per (query, workers) cell.
/// Returns how many batch runs actually engaged a batch pipeline.
int CheckWorkload(Database* db, const std::vector<std::string>& queries,
                  OptimizerPath path, const char* tag, int workers,
                  const std::vector<int64_t>& batch_sizes) {
  int engaged = 0;
  for (size_t qi = 0; qi < queries.size(); ++qi) {
    SCOPED_TRACE(std::string(tag) + " query #" + std::to_string(qi + 1) +
                 " workers=" + std::to_string(workers));
    Configure(db, workers, /*batch=*/false, 1024);
    auto volcano = db->Query(queries[qi], path);
    for (int64_t bs : batch_sizes) {
      SCOPED_TRACE("batch_size=" + std::to_string(bs));
      Configure(db, workers, /*batch=*/true, bs);
      auto batch = db->Query(queries[qi], path);
      if (!volcano.ok()) {
        // A query the path can't run must fail identically batched.
        EXPECT_FALSE(batch.ok());
        if (!batch.ok()) {
          EXPECT_EQ(batch.status().code(), volcano.status().code());
        }
        continue;
      }
      EXPECT_TRUE(batch.ok()) << batch.status().ToString();
      if (!batch.ok()) continue;
      EXPECT_EQ(RowsText(batch->rows), RowsText(volcano->rows));
      // Moving rows in batches must not change what was scanned/looked up.
      EXPECT_EQ(batch->rows_scanned, volcano->rows_scanned);
      EXPECT_EQ(batch->index_lookups, volcano->index_lookups);
      EXPECT_EQ(volcano->batch_pipelines, 0);
      // A pipeline can engage yet emit zero batches (everything filtered
      // out), so `batches` alone is not asserted here.
      if (batch->batch_pipelines > 0) ++engaged;
    }
  }
  Configure(db, 1, /*batch=*/true, 1024);
  return engaged;
}

const std::vector<int64_t>& FullSweep() {
  static const std::vector<int64_t> sizes{1, 3, 1024, 4096};
  return sizes;
}

// ---------------------------------------------------------------------------
// TPC-H
// ---------------------------------------------------------------------------

class TpchBatchTest : public ::testing::Test {
 protected:
  static Database* db() {
    static Database* instance = [] {
      auto* d = new Database();
      auto st = SetupTpch(d, 0.002);
      EXPECT_TRUE(st.ok()) << st.ToString();
      return d;
    }();
    return instance;
  }
};

TEST_F(TpchBatchTest, MySqlSerialMatchesVolcanoAcrossBatchSizes) {
  int engaged = CheckWorkload(db(), TpchQueries(), OptimizerPath::kMySql,
                              "tpch/mysql", /*workers=*/1, FullSweep());
  // Scan/filter/agg pipelines (Q1, Q6, ...) must actually run batched.
  EXPECT_GT(engaged, 0);
}

TEST_F(TpchBatchTest, OrcaSerialMatchesVolcanoAcrossBatchSizes) {
  int engaged = CheckWorkload(db(), TpchQueries(), OptimizerPath::kOrca,
                              "tpch/orca", /*workers=*/1, FullSweep());
  EXPECT_GT(engaged, 0);
}

TEST_F(TpchBatchTest, ParallelWorkersMatchVolcano) {
  int engaged = CheckWorkload(db(), TpchQueries(), OptimizerPath::kMySql,
                              "tpch/mysql", /*workers=*/4, {1024});
  engaged += CheckWorkload(db(), TpchQueries(), OptimizerPath::kOrca,
                           "tpch/orca", /*workers=*/4, {1024});
  // Batch chains must engage inside morsel worker clones too.
  EXPECT_GT(engaged, 0);
}

TEST_F(TpchBatchTest, BatchCountersSurfaceInQueryResult) {
  const std::string& q6 = TpchQueries()[5];  // single-table scan aggregate
  Configure(db(), 1, /*batch=*/true, 1024);
  auto res = db()->Query(q6, OptimizerPath::kMySql);
  ASSERT_TRUE(res.ok()) << res.status().ToString();
  EXPECT_GT(res->batch_pipelines, 0);
  EXPECT_GT(res->batches, 0);
  EXPECT_GT(res->batch_rows, 0);
  // The knob kills the whole machinery.
  Configure(db(), 1, /*batch=*/false, 1024);
  auto off = db()->Query(q6, OptimizerPath::kMySql);
  ASSERT_TRUE(off.ok());
  EXPECT_EQ(off->batch_pipelines, 0);
  EXPECT_EQ(off->batches, 0);
  Configure(db(), 1, /*batch=*/true, 1024);
}

TEST_F(TpchBatchTest, ExplainShowsBatchEligibility) {
  auto text = db()->Explain(TpchQueries()[5], OptimizerPath::kMySql);
  ASSERT_TRUE(text.ok()) << text.status().ToString();
  EXPECT_NE(text->find("Batch pipeline (vectorized eligible)"),
            std::string::npos)
      << *text;
  // Q6's top-level sort-free scan-aggregate is eligible; a query with an
  // index-lookup driver must render the row-mode marker with its reason.
  auto q2 = db()->Explain(TpchQueries()[1], OptimizerPath::kMySql);
  ASSERT_TRUE(q2.ok());
  EXPECT_NE(q2->find("pipeline ("), std::string::npos) << *q2;
}

/// EXPLAIN ANALYZE actuals (rows, loops, q-error) must be unchanged by
/// batching; only timings may differ. Compare the JSON dumps with time
/// fields scrubbed. Q12, Q14 and Q19 on the MySQL path and Q10 on the Orca
/// path run index nested-loop joins, whose inner lookup records its own
/// actuals (loops = probes, rows = rows past its filters).
TEST_F(TpchBatchTest, AnalyzeActualsUnchangedUnderBatchMode) {
  const std::regex time_re("\"(time_ms|execute_ms|optimize_ms)\": [0-9.]+");
  const std::regex native_nlj(
      "\"op\": \"nested_loop_join\"[^{]*\"batch_native\": true");
  const struct {
    size_t qi;
    OptimizerPath path;
    bool index_nlj;
  } cases[] = {{0, OptimizerPath::kMySql, false},
               {5, OptimizerPath::kMySql, false},
               {2, OptimizerPath::kMySql, false},
               {11, OptimizerPath::kMySql, true},
               {13, OptimizerPath::kMySql, true},
               {18, OptimizerPath::kMySql, true},
               {9, OptimizerPath::kOrca, true}};
  for (const auto& c : cases) {
    SCOPED_TRACE("query #" + std::to_string(c.qi + 1) +
                 (c.path == OptimizerPath::kOrca ? " orca" : " mysql"));
    Configure(db(), 1, /*batch=*/false, 1024);
    auto volcano = db()->ExplainAnalyzeJsonDump(TpchQueries()[c.qi], c.path);
    ASSERT_TRUE(volcano.ok()) << volcano.status().ToString();
    Configure(db(), 1, /*batch=*/true, 1024);
    auto batch = db()->ExplainAnalyzeJsonDump(TpchQueries()[c.qi], c.path);
    ASSERT_TRUE(batch.ok()) << batch.status().ToString();
    EXPECT_EQ(std::regex_replace(*batch, time_re, "\"$1\": X"),
              std::regex_replace(*volcano, time_re, "\"$1\": X"));
    if (c.index_nlj) {
      EXPECT_TRUE(std::regex_search(*batch, native_nlj)) << *batch;
    }
  }
  Configure(db(), 1, /*batch=*/true, 1024);
}

TEST_F(TpchBatchTest, MySqlIndexNestedLoopQueriesExplainBatched) {
  for (size_t qi : {11ul, 13ul, 18ul}) {  // Q12, Q14, Q19
    SCOPED_TRACE("query #" + std::to_string(qi + 1));
    auto text = db()->Explain(TpchQueries()[qi], OptimizerPath::kMySql);
    ASSERT_TRUE(text.ok()) << text.status().ToString();
    EXPECT_NE(text->find("Nested loop inner join"), std::string::npos)
        << *text;
    EXPECT_NE(text->find("Index lookup on lineitem"), std::string::npos)
        << *text;
    EXPECT_NE(text->find("Batch pipeline (vectorized eligible)"),
              std::string::npos)
        << *text;
  }
}

// ---------------------------------------------------------------------------
// TPC-DS
// ---------------------------------------------------------------------------

class TpcdsBatchTest : public ::testing::Test {
 protected:
  static Database* db() {
    static Database* instance = [] {
      auto* d = new Database();
      auto st = SetupTpcds(d, 0.0001);
      EXPECT_TRUE(st.ok()) << st.ToString();
      d->router_config().complex_query_threshold = 2;
      return d;
    }();
    return instance;
  }
};

TEST_F(TpcdsBatchTest, MySqlSerialMatchesVolcanoAcrossBatchSizes) {
  int engaged = CheckWorkload(db(), TpcdsQueries(), OptimizerPath::kMySql,
                              "tpcds/mysql", /*workers=*/1, FullSweep());
  EXPECT_GT(engaged, 0);
}

TEST_F(TpcdsBatchTest, OrcaSerialAndParallelMatchVolcano) {
  int engaged = CheckWorkload(db(), TpcdsQueries(), OptimizerPath::kOrca,
                              "tpcds/orca", /*workers=*/1, {3, 1024});
  engaged += CheckWorkload(db(), TpcdsQueries(), OptimizerPath::kMySql,
                           "tpcds/mysql", /*workers=*/4, {1024});
  EXPECT_GT(engaged, 0);
}

// ---------------------------------------------------------------------------
// Selection-vector edge cases
// ---------------------------------------------------------------------------

/// Own tiny engine: a nullable-column table whose predicates produce
/// all-pass, all-fail, and alternating-NULL selection vectors, compared
/// batch-vs-Volcano at boundary batch sizes (1, 3) and a size larger than
/// the table.
class SelectionEdgeTest : public ::testing::Test {
 protected:
  void SetUp() override {
    db_ = std::make_unique<Database>();
    ASSERT_TRUE(db_->ExecuteSql("CREATE TABLE t (id INT NOT NULL PRIMARY "
                                "KEY, v INT, s VARCHAR(8))")
                    .ok());
    std::vector<Row> rows;
    for (int i = 0; i < 257; ++i) {  // not a multiple of any batch size
      rows.push_back({Value::Int(i),
                      i % 2 == 0 ? Value::Null() : Value::Int(i % 10),
                      i % 3 == 0 ? Value::Null()
                                 : Value::Str("s" + std::to_string(i % 4))});
    }
    ASSERT_TRUE(db_->BulkLoad("t", std::move(rows)).ok());
    ASSERT_TRUE(db_->AnalyzeAll().ok());
  }

  void CheckBoth(const std::string& sql,
                 OptimizerPath path = OptimizerPath::kMySql) {
    SCOPED_TRACE(sql);
    Configure(db_.get(), 1, /*batch=*/false, 1024);
    auto volcano = db_->Query(sql, path);
    ASSERT_TRUE(volcano.ok()) << volcano.status().ToString();
    for (int64_t bs : {int64_t{1}, int64_t{3}, int64_t{4096}}) {
      SCOPED_TRACE("batch_size=" + std::to_string(bs));
      Configure(db_.get(), 1, /*batch=*/true, bs);
      auto batch = db_->Query(sql, path);
      ASSERT_TRUE(batch.ok()) << batch.status().ToString();
      EXPECT_EQ(RowsText(batch->rows), RowsText(volcano->rows));
      EXPECT_EQ(batch->rows_scanned, volcano->rows_scanned);
      last_batch_pipelines_ = batch->batch_pipelines;
    }
  }

  /// CheckBoth on both optimizer paths, requiring that the batch engine
  /// ran on each.
  void CheckBatched(const std::string& sql) {
    for (OptimizerPath path : {OptimizerPath::kMySql, OptimizerPath::kOrca}) {
      SCOPED_TRACE(path == OptimizerPath::kOrca ? "orca" : "mysql");
      CheckBoth(sql, path);
      EXPECT_GT(last_batch_pipelines_, 0);
    }
  }

  int last_batch_pipelines_ = 0;

  std::unique_ptr<Database> db_;
};

TEST_F(SelectionEdgeTest, AllPass) {
  CheckBoth("SELECT COUNT(*), SUM(id) FROM t WHERE id >= 0");
}

TEST_F(SelectionEdgeTest, AllFail) {
  CheckBoth("SELECT COUNT(*), SUM(id) FROM t WHERE id < 0");
}

TEST_F(SelectionEdgeTest, AlternatingNulls) {
  // v is NULL on every even row: the predicate's 3-valued logic must drop
  // NULL outcomes exactly as the row-at-a-time evaluator does.
  CheckBoth("SELECT COUNT(*), SUM(v) FROM t WHERE v > 4");
  CheckBoth("SELECT COUNT(*) FROM t WHERE v IS NULL");
  CheckBoth("SELECT COUNT(*) FROM t WHERE v IS NOT NULL AND s IS NULL");
  CheckBoth("SELECT id FROM t WHERE NOT (v > 4 OR s = 's1')");
  CheckBoth("SELECT id, v FROM t WHERE v > 2 AND v < 8 AND s <> 's2'");
  CheckBoth(
      "SELECT CASE WHEN v IS NULL THEN -1 ELSE v END, COUNT(*) FROM t "
      "GROUP BY CASE WHEN v IS NULL THEN -1 ELSE v END");
  CheckBoth("SELECT id FROM t WHERE v IN (1, 3, NULL)");
}

TEST_F(SelectionEdgeTest, ColumnVsColumnCompare) {
  // v is NULL on even rows: NULL on the left, then on the right.
  CheckBoth("SELECT COUNT(*), SUM(id) FROM t WHERE v < id");
  CheckBoth("SELECT COUNT(*), SUM(id) FROM t WHERE id >= v");
  CheckBoth("SELECT id FROM t WHERE v = v");
  CheckBoth("SELECT id FROM t WHERE v <> id AND id > 100");
  CheckBoth(
      "SELECT a.id, b.id FROM t a, t b WHERE a.id = b.id AND a.v <= b.v");
}

/// The column-vs-column kernel over a hand-built batch whose slots hold
/// NULL-extended rows (null pointers, as a left join emits) and NULL
/// values, checked row by row against the scalar interpreter. SQL cannot
/// put a NULL-extended row under a bare comparison: a WHERE comparison
/// turns the left join into an inner join.
TEST_F(SelectionEdgeTest, ColumnVsColumnOverNullExtendedRows) {
  std::vector<Row> lrows, rrows;
  for (int i = 0; i < 12; ++i) {
    lrows.push_back({i % 4 == 0 ? Value::Null() : Value::Int(i % 5)});
    rrows.push_back({i % 3 == 0 ? Value::Null() : Value::Int(i % 4)});
  }
  for (BinaryOp op : {BinaryOp::kEq, BinaryOp::kNe, BinaryOp::kLt,
                      BinaryOp::kLe, BinaryOp::kGt, BinaryOp::kGe}) {
    auto lcol = MakeColumnRef("l", "x");
    lcol->ref_id = 0;
    lcol->column_idx = 0;
    auto rcol = MakeColumnRef("r", "y");
    rcol->ref_id = 1;
    rcol->column_idx = 0;
    auto cmp = MakeBinary(op, std::move(lcol), std::move(rcol));
    Frame base(2, nullptr);
    Batch b;
    b.Reset(2, &base);
    b.Activate(0);
    b.Activate(1);
    std::vector<uint32_t> want;
    ExecContext ctx;
    for (size_t i = 0; i < lrows.size(); ++i) {
      // Every fifth row is NULL-extended on the left, every seventh on the
      // right.
      const Row* l = i % 5 == 4 ? nullptr : &lrows[i];
      const Row* r = i % 7 == 6 ? nullptr : &rrows[i];
      b.cols[0].push_back(l);
      b.cols[1].push_back(r);
      b.sel.push_back(static_cast<uint32_t>(i));
      ++b.size;
      Frame f{l, r};
      auto v = EvalExpr(*cmp, f, &ctx);
      ASSERT_TRUE(v.ok());
      if (!v->is_null() && v->IsTrue()) {
        want.push_back(static_cast<uint32_t>(i));
      }
    }
    ASSERT_TRUE(FilterBatch({cmp.get()}, &b, &ctx).ok());
    EXPECT_EQ(b.sel, want) << "op " << static_cast<int>(op);
  }
}

// Operand views (BatchValues): each leaf shape a kernel reads in place, in
// filters (both the in-place filter kernels and, under computed parents,
// the generic ones), projections, group keys and aggregate arguments.

TEST_F(SelectionEdgeTest, OperandViewOuterBindingColumn) {
  // Inside the subqueries, a.v, a.id and a.s are bound by the outer block:
  // one pointer for the whole inner batch, NULL on the outer's even rows.
  CheckBatched(
      "SELECT a.id, (SELECT COUNT(*) FROM t b WHERE b.v + 1 > a.v) FROM t a "
      "WHERE a.id < 40");
  CheckBatched(
      "SELECT a.id, (SELECT SUM(b.v * a.id) FROM t b WHERE b.s = a.s) "
      "FROM t a WHERE a.id < 40");
  CheckBatched(
      "SELECT a.id, (SELECT COUNT(*) FROM t b WHERE b.id BETWEEN a.v AND "
      "a.v + 20 AND b.s IN (a.s, 's1')) FROM t a WHERE a.id < 40");
}

TEST_F(SelectionEdgeTest, OperandViewNullExtendedRows) {
  // The Orca path runs these left joins as batched hash joins (the MySQL
  // path's left nested-loop joins run row by row). v <= 9, so for a.id > 9
  // every b column reads the shared NULL of a NULL-extended row, as keys,
  // aggregate arguments and operands; small a.id values match and share
  // batches with them.
  const std::string queries[] = {
      "SELECT a.id, b.id + 1, b.s, b.v * 2 > 5 FROM t a LEFT JOIN t b "
      "ON b.v = a.id",
      "SELECT b.s, COUNT(*), COUNT(b.v), SUM(b.v * 2), MIN(b.s) FROM t a "
      "LEFT JOIN t b ON b.v = a.id GROUP BY b.s",
      "SELECT b.v IS NULL, b.s IN ('s1', 's3'), COUNT(*), SUM(a.id - b.id) "
      "FROM t a LEFT JOIN t b ON b.id = a.v "
      "GROUP BY b.v IS NULL, b.s IN ('s1', 's3')",
  };
  for (const std::string& sql : queries) {
    CheckBoth(sql, OptimizerPath::kOrca);
    EXPECT_GT(last_batch_pipelines_, 0) << sql;
  }
}

TEST_F(SelectionEdgeTest, OperandViewIntColumnVsDoubleLiteral) {
  CheckBatched("SELECT COUNT(*) FROM t WHERE v > 2.5");
  CheckBatched("SELECT id FROM t WHERE v IN (3.0, 5, 7.5)");
  CheckBatched("SELECT COUNT(*) FROM t WHERE v + 0 > 2.5 OR v = 3.0");
  CheckBatched("SELECT id, v * 1.5, v < 4.5, v BETWEEN 1.5 AND 6.0 FROM t");
  CheckBatched("SELECT v = 5.0, COUNT(*), SUM(v - 0.5) FROM t GROUP BY v = 5.0");
}

TEST_F(SelectionEdgeTest, OperandViewStringColumnVsNumericLiteral) {
  // 's1' is not a number: Value::Compare coerces it to 0.
  CheckBatched("SELECT COUNT(*) FROM t WHERE s = 0");
  CheckBatched("SELECT COUNT(*) FROM t WHERE s < 1 AND id > 10");
  CheckBatched("SELECT id, s = 0, s > 0.5, s IN (0, 's2') FROM t");
  CheckBatched("SELECT id FROM t WHERE s IN (1, 's2') OR s NOT IN (0, 's1')");
  CheckBatched("SELECT id FROM t WHERE s NOT IN (1, 's2')");
  CheckBatched("SELECT s = 0 OR v > 3, COUNT(*) FROM t GROUP BY s = 0 OR v > 3");
}

TEST_F(SelectionEdgeTest, OperandViewNullLiterals) {
  CheckBatched("SELECT id FROM t WHERE v IN (1, NULL, 5)");
  CheckBatched("SELECT COUNT(*) FROM t WHERE v NOT IN (1, NULL)");
  CheckBatched("SELECT id, v IN (3, NULL), v NOT IN (NULL, 7) FROM t");
  CheckBatched("SELECT COUNT(*) FROM t WHERE v BETWEEN NULL AND 5");
  CheckBatched("SELECT COUNT(*) FROM t WHERE v NOT BETWEEN 2 AND NULL");
  CheckBatched(
      "SELECT id, v BETWEEN NULL AND 5, v NOT BETWEEN 2 AND NULL, "
      "v BETWEEN 2 AND 6 FROM t");
}

TEST_F(SelectionEdgeTest, LastBatchPartialFill) {
  // 257 rows with batch sizes 1/3/4096 exercises short final batches and
  // single-row batches; the join doubles as a probe-side boundary check.
  CheckBoth(
      "SELECT a.id, b.v FROM t a, t b WHERE a.id = b.id AND a.v > 3");
}

// ---------------------------------------------------------------------------
// Index nested-loop join edge cases
// ---------------------------------------------------------------------------

/// Own tiny engine for the vectorized index nested-loop join: `o` drives,
/// `i` is probed through its index on `k`. One key (k = 1) has ten matches,
/// so batch sizes 1 and 3 split a single outer row's run across output
/// batches; NULL keys sit on both sides.
class IndexNLJoinEdgeTest : public ::testing::Test {
 protected:
  void SetUp() override {
    db_ = std::make_unique<Database>();
    ASSERT_TRUE(
        db_->ExecuteSql("CREATE TABLE o (id INT NOT NULL PRIMARY KEY, k INT)")
            .ok());
    ASSERT_TRUE(db_->ExecuteSql("CREATE TABLE i (id INT NOT NULL PRIMARY "
                                "KEY, k INT, v INT)")
                    .ok());
    ASSERT_TRUE(db_->ExecuteSql("CREATE INDEX i_k ON i (k)").ok());
    ASSERT_TRUE(
        db_->ExecuteSql("CREATE TABLE p (id INT NOT NULL PRIMARY KEY)").ok());
    std::vector<Row> o;
    const int okeys[] = {1, 2, -1, 1, 3, -1, 7};
    for (int j = 0; j < 7; ++j) {
      o.push_back({Value::Int(j), okeys[j] < 0 ? Value::Null()
                                                : Value::Int(okeys[j])});
    }
    ASSERT_TRUE(db_->BulkLoad("o", std::move(o)).ok());
    std::vector<Row> in;
    for (int j = 0; j < 400; ++j) {
      Value k;
      if (j < 10) {
        k = Value::Int(1);  // ten matches for outer k = 1
      } else if (j < 14) {
        k = Value::Int(2);
      } else if (j < 20) {
        k = Value::Null();
      } else {
        k = Value::Int(3 + j % 97);
      }
      in.push_back({Value::Int(j), std::move(k),
                    j % 6 == 0 ? Value::Null() : Value::Int(j % 7)});
    }
    ASSERT_TRUE(db_->BulkLoad("i", std::move(in)).ok());
    std::vector<Row> p;
    for (int j = 0; j < 5; ++j) p.push_back({Value::Int(j)});
    ASSERT_TRUE(db_->BulkLoad("p", std::move(p)).ok());
    ASSERT_TRUE(db_->AnalyzeAll().ok());
  }

  /// Runs `sql` in Volcano mode, then batched at sizes 1, 3 and 4096,
  /// asserting equal rows, rows_scanned and index_lookups, and that the
  /// plan probes `i` through its index.
  void CheckBoth(const std::string& sql) {
    SCOPED_TRACE(sql);
    auto plan = db_->Explain(sql, OptimizerPath::kMySql);
    ASSERT_TRUE(plan.ok()) << plan.status().ToString();
    EXPECT_NE(plan->find("Index lookup on i using i_k"), std::string::npos)
        << *plan;
    Configure(db_.get(), 1, /*batch=*/false, 1024);
    auto volcano = db_->Query(sql, OptimizerPath::kMySql);
    ASSERT_TRUE(volcano.ok()) << volcano.status().ToString();
    EXPECT_GT(volcano->index_lookups, 0);
    for (int64_t bs : {int64_t{1}, int64_t{3}, int64_t{4096}}) {
      SCOPED_TRACE("batch_size=" + std::to_string(bs));
      Configure(db_.get(), 1, /*batch=*/true, bs);
      auto batch = db_->Query(sql, OptimizerPath::kMySql);
      ASSERT_TRUE(batch.ok()) << batch.status().ToString();
      EXPECT_EQ(RowsText(batch->rows), RowsText(volcano->rows));
      EXPECT_EQ(batch->rows_scanned, volcano->rows_scanned);
      EXPECT_EQ(batch->index_lookups, volcano->index_lookups);
      EXPECT_GT(batch->batch_pipelines, 0);
    }
  }

  std::unique_ptr<Database> db_;
};

TEST_F(IndexNLJoinEdgeTest, MatchRunLongerThanBatch) {
  const std::string sql = "SELECT o.id, i.id, i.v FROM o, i WHERE i.k = o.k";
  CheckBoth(sql);
  auto plan = db_->Explain(sql, OptimizerPath::kMySql);
  ASSERT_TRUE(plan.ok());
  EXPECT_NE(plan->find("Batch pipeline (vectorized eligible)"),
            std::string::npos)
      << *plan;
  // Emission order is the Volcano order, not just the same multiset.
  Configure(db_.get(), 1, /*batch=*/false, 1024);
  auto volcano = db_->Query(sql, OptimizerPath::kMySql);
  Configure(db_.get(), 1, /*batch=*/true, 3);
  auto batch = db_->Query(sql, OptimizerPath::kMySql);
  ASSERT_TRUE(volcano.ok() && batch.ok());
  EXPECT_EQ(batch->rows, volcano->rows);
  CheckBoth("SELECT COUNT(*), SUM(i.v) FROM o, i WHERE i.k = o.k");
}

TEST_F(IndexNLJoinEdgeTest, NullKeysProbeButNeverMatch) {
  // Outer rows 2 and 5 have NULL keys: each still counts one lookup.
  const std::string sql = "SELECT o.id, i.id FROM o, i WHERE i.k = o.k";
  Configure(db_.get(), 1, /*batch=*/true, 1024);
  auto res = db_->Query(sql, OptimizerPath::kMySql);
  ASSERT_TRUE(res.ok()) << res.status().ToString();
  EXPECT_EQ(res->index_lookups, 7);
  for (const Row& r : res->rows) {
    EXPECT_NE(r[0].AsInt(), 2);
    EXPECT_NE(r[0].AsInt(), 5);
  }
  CheckBoth(sql);
}

TEST_F(IndexNLJoinEdgeTest, LookupFiltersAndJoinConditions) {
  // Pushed-down lookup filters (i.v > 2), then a join condition between
  // both sides (o.id <> i.v, a column-vs-column compare).
  CheckBoth(
      "SELECT o.id, i.id FROM o, i WHERE i.k = o.k AND i.v > 2 AND "
      "o.id <> i.v");
  CheckBoth(
      "SELECT o.id, COUNT(*) FROM o, i WHERE i.k = o.k AND i.v IS NULL "
      "GROUP BY o.id");
}

TEST_F(IndexNLJoinEdgeTest, KeyFromOuterBindingInCorrelatedSubplan) {
  // Inside the scalar subquery, i is probed with o.k + p.id: o.k is a
  // slot bound by the outer block, read from the batch's base frame and
  // re-bound for every outer row; p.id comes from the batch itself.
  CheckBoth(
      "SELECT o.id, (SELECT SUM(i.v) FROM p, i WHERE i.k = o.k + p.id) "
      "FROM o");
  CheckBoth(
      "SELECT o.id, (SELECT COUNT(*) FROM p, i WHERE i.k = o.k + p.id AND "
      "i.v > p.id) FROM o WHERE o.id < 6");
}

TEST_F(IndexNLJoinEdgeTest, CrossJoinWithEmptyConds) {
  // p and i share no condition: every p row probes i with the constant
  // key, and the join has no conds to apply.
  const std::string sql = "SELECT p.id, i.id FROM p, i WHERE i.k = 1";
  auto plan = db_->Explain(sql, OptimizerPath::kMySql);
  ASSERT_TRUE(plan.ok());
  EXPECT_NE(plan->find("Nested loop inner join (cost"), std::string::npos)
      << *plan;
  CheckBoth(sql);
}

// ---------------------------------------------------------------------------
// Aggregation kernel edge cases
// ---------------------------------------------------------------------------

/// The batch engine's aggregation folds numeric arguments from typed
/// vectors, resolves group ids a batch at a time and binds HAVING, ORDER BY
/// and select-list references to the group's output row. Each case runs
/// the Volcano executor and the batch executor, serially and at 4 workers
/// (64-row morsels, so the partial states' Merge runs), and requires the
/// same rows value for value: same kinds, same doubles.
class AggregateKernelEdgeTest : public ::testing::Test {
 protected:
  void SetUp() override {
    db_ = std::make_unique<Database>();
    ASSERT_TRUE(db_->ExecuteSql(
                      "CREATE TABLE ak (id INT NOT NULL PRIMARY KEY, g INT, "
                      "iv INT, dv DOUBLE, s VARCHAR(8), kd DOUBLE, a INT, "
                      "b INT)")
                    .ok());
    std::vector<Row> rows;
    for (int i = 0; i < 517; ++i) {  // eight 64-row morsels and a tail
      const int g = i % 9;
      // Group 7's iv is all NULL; elsewhere every fourth iv is NULL.
      const Value iv =
          g == 7 || i % 4 == 1 ? Value::Null() : Value::Int(i % 50 - 20);
      const Value dv =
          i % 4 == 0 ? Value::Null() : Value::Double(0.1 * (i % 37) - 1.3);
      const Value s = i % 5 == 0 ? Value::Null()
                                 : Value::Str("s" + std::to_string(i % 13));
      // -0.0 and 0.0 alternate in kd, next to a few other keys.
      const Value kd = Value::Double(i % 3 == 0 ? (i % 2 == 0 ? -0.0 : 0.0)
                                                : static_cast<double>(i % 3));
      rows.push_back({Value::Int(i), Value::Int(g), iv, dv, s, kd,
                      Value::Int(i % 6), Value::Int(i % 4)});
    }
    ASSERT_TRUE(db_->BulkLoad("ak", std::move(rows)).ok());
    ASSERT_TRUE(db_->AnalyzeAll().ok());
  }

  /// Runs `sql` in Volcano and batch mode at 1 and 4 workers and requires
  /// identical rows; returns the serial Volcano result.
  std::vector<Row> Check(const std::string& sql) {
    SCOPED_TRACE(sql);
    std::vector<Row> serial;
    for (int workers : {1, 4}) {
      SCOPED_TRACE("workers=" + std::to_string(workers));
      Configure(db_.get(), workers, /*batch=*/false, 1024);
      auto volcano = db_->Query(sql, OptimizerPath::kMySql);
      EXPECT_TRUE(volcano.ok()) << volcano.status().ToString();
      if (!volcano.ok()) return {};
      for (int64_t bs : {int64_t{3}, int64_t{1024}}) {
        SCOPED_TRACE("batch_size=" + std::to_string(bs));
        Configure(db_.get(), workers, /*batch=*/true, bs);
        auto batch = db_->Query(sql, OptimizerPath::kMySql);
        EXPECT_TRUE(batch.ok()) << batch.status().ToString();
        if (!batch.ok()) continue;
        EXPECT_GT(batch->batch_pipelines, 0);
        ExpectSameRows(batch->rows, volcano->rows);
      }
      if (workers == 1) serial = volcano->rows;
    }
    Configure(db_.get(), 1, /*batch=*/true, 1024);
    return serial;
  }

  /// Row multisets equal value for value: kind, type and value.
  static void ExpectSameRows(std::vector<Row> got, std::vector<Row> want) {
    SortRows(&got);
    SortRows(&want);
    ASSERT_EQ(got.size(), want.size());
    for (size_t r = 0; r < got.size(); ++r) {
      ASSERT_EQ(got[r].size(), want[r].size());
      for (size_t c = 0; c < got[r].size(); ++c) {
        const Value& x = got[r][c];
        const Value& y = want[r][c];
        EXPECT_EQ(x.kind(), y.kind()) << RowToString(got[r]);
        EXPECT_EQ(x.type(), y.type()) << RowToString(got[r]);
        if (x.kind() == Value::Kind::kDouble &&
            y.kind() == Value::Kind::kDouble) {
          EXPECT_EQ(x.AsDouble(), y.AsDouble()) << RowToString(got[r]);
        } else {
          EXPECT_EQ(Value::Compare(x, y), 0) << RowToString(got[r]);
        }
      }
    }
  }

  std::unique_ptr<Database> db_;
};

TEST_F(AggregateKernelEdgeTest, NullArgumentsAndAnAllNullGroup) {
  auto rows = Check(
      "SELECT g, SUM(iv), AVG(iv), SUM(dv), AVG(dv), COUNT(iv), "
      "STDDEV(dv) FROM ak GROUP BY g");
  ASSERT_EQ(rows.size(), 9u);
  for (const Row& r : rows) {
    if (r[0].AsInt() != 7) continue;
    EXPECT_TRUE(r[1].is_null());  // SUM over no values
    EXPECT_TRUE(r[2].is_null());  // AVG over no values
    EXPECT_EQ(r[5].AsInt(), 0);   // COUNT(iv)
  }
}

TEST_F(AggregateKernelEdgeTest, SumOverAnIntColumnStaysAnInteger) {
  auto rows = Check("SELECT g, SUM(iv), SUM(id) FROM ak GROUP BY g");
  for (const Row& r : rows) {
    if (!r[1].is_null()) {
      EXPECT_EQ(r[1].kind(), Value::Kind::kInt);
    }
    EXPECT_EQ(r[2].kind(), Value::Kind::kInt);
  }
  auto total = Check("SELECT SUM(id) FROM ak");
  ASSERT_EQ(total.size(), 1u);
  EXPECT_EQ(total[0][0].kind(), Value::Kind::kInt);
  EXPECT_EQ(total[0][0].AsInt(), 516 * 517 / 2);
}

TEST_F(AggregateKernelEdgeTest, IntTimesIntStaysIntAndIntTimesDoubleIsDouble) {
  auto rows = Check(
      "SELECT g, SUM(iv * 2), SUM(iv * 1.5), SUM(a - b + 1), "
      "AVG(dv * (1 - a)) FROM ak GROUP BY g");
  ASSERT_EQ(rows.size(), 9u);
  for (const Row& r : rows) {
    if (r[0].AsInt() == 7) continue;  // iv all NULL
    EXPECT_EQ(r[1].kind(), Value::Kind::kInt);
    EXPECT_EQ(r[2].kind(), Value::Kind::kDouble);
    EXPECT_EQ(r[3].kind(), Value::Kind::kInt);
    EXPECT_EQ(r[2].AsDouble(), 0.75 * static_cast<double>(r[1].AsInt()));
  }
}

TEST_F(AggregateKernelEdgeTest, NegativeZeroAndIntDoubleKeysShareAGroup) {
  auto zeros = Check("SELECT kd, COUNT(*) FROM ak GROUP BY kd");
  ASSERT_EQ(zeros.size(), 3u);  // 0 (with -0.0), 1 and 2
  for (const Row& r : zeros) {
    if (r[0].AsDouble() == 0.0) {
      EXPECT_EQ(r[1].AsInt(), 173);  // i % 3 == 0
    }
  }
  auto mixed = Check(
      "SELECT COUNT(*) FROM ak GROUP BY "
      "CASE WHEN id % 2 = 0 THEN 3 ELSE 3.0 END");
  ASSERT_EQ(mixed.size(), 1u);
  EXPECT_EQ(mixed[0][0].AsInt(), 517);
}

TEST_F(AggregateKernelEdgeTest, CountDistinctAndStringMinMax) {
  auto rows = Check(
      "SELECT g, COUNT(DISTINCT s), MIN(s), MAX(s), COUNT(DISTINCT iv), "
      "SUM(DISTINCT dv) FROM ak GROUP BY g");
  ASSERT_EQ(rows.size(), 9u);
  for (const Row& r : rows) {
    EXPECT_EQ(r[2].kind(), Value::Kind::kString);
    EXPECT_LE(Value::Compare(r[2], r[3]), 0);
  }
}

TEST_F(AggregateKernelEdgeTest, HavingOnAnAggregateOutsideTheSelectList) {
  auto rows = Check(
      "SELECT g FROM ak GROUP BY g HAVING SUM(dv) > 20 ORDER BY MAX(id)");
  EXPECT_EQ(rows.size(), 5u);  // groups 2, 3, 6, 7 and 8
}

TEST_F(AggregateKernelEdgeTest, GroupByAnExpressionWithHavingOnIt) {
  auto rows = Check(
      "SELECT a + b, COUNT(*), SUM(iv) FROM ak GROUP BY a + b "
      "HAVING a + b > 3 ORDER BY a + b");
  ASSERT_EQ(rows.size(), 3u);  // a + b is 4, 6 or 8 above 3
  EXPECT_EQ(rows[0][0].AsInt(), 4);
}

TEST_F(AggregateKernelEdgeTest, LooseGroupByColumnReadsTheRepresentativeRow) {
  // `s` is neither grouped nor aggregated: each group reports its first
  // row's value, so the group keeps a representative row.
  auto rows = Check("SELECT g, id, s, COUNT(*) FROM ak GROUP BY g");
  ASSERT_EQ(rows.size(), 9u);
  for (const Row& r : rows) EXPECT_EQ(r[1].AsInt(), r[0].AsInt());
}

TEST_F(AggregateKernelEdgeTest, HavingWithAScalarSubquery) {
  auto rows = Check(
      "SELECT g, SUM(iv) FROM ak GROUP BY g "
      "HAVING SUM(iv) > (SELECT AVG(iv) * 40 FROM ak)");
  EXPECT_EQ(rows.size(), 5u);  // groups 1, 2, 3, 4 and 6
  // Correlated: the subquery reads the group's representative row.
  auto correlated = Check(
      "SELECT g, COUNT(*) FROM ak o GROUP BY g "
      "HAVING COUNT(*) >= (SELECT COUNT(*) FROM ak i WHERE i.g = o.g "
      "AND i.iv IS NOT NULL)");
  EXPECT_EQ(correlated.size(), 9u);
}

}  // namespace
}  // namespace taurus
