#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "bridge/parse_tree_converter.h"
#include "frontend/prepare.h"
#include "mdp/stats_adapter.h"
#include "frontend/normalize.h"
#include "orca/optimizer.h"
#include "parser/parser.h"
#include "storage/storage.h"
#include "workloads/tpch.h"

namespace taurus {
namespace {

/// Fixture with a small star schema: fact(1000) -> dim_a(10), dim_b(100).
class OrcaTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto fact = catalog_.CreateTable(
        "fact", {{"f_id", TypeId::kLong, 0, false},
                 {"f_a", TypeId::kLong, 0, false},
                 {"f_b", TypeId::kLong, 0, false},
                 {"f_val", TypeId::kDouble, 0, false}});
    ASSERT_TRUE(fact.ok());
    ASSERT_TRUE(catalog_.AddIndex("fact", {"fact_pk", {0}, true, true}).ok());
    ASSERT_TRUE(catalog_.AddIndex("fact", {"fact_a", {1}, false, false}).ok());
    auto dim_a = catalog_.CreateTable(
        "dim_a", {{"a_id", TypeId::kLong, 0, false},
                  {"a_name", TypeId::kVarchar, 20, false}});
    ASSERT_TRUE(dim_a.ok());
    ASSERT_TRUE(catalog_.AddIndex("dim_a", {"a_pk", {0}, true, true}).ok());
    auto dim_b = catalog_.CreateTable(
        "dim_b", {{"b_id", TypeId::kLong, 0, false},
                  {"b_name", TypeId::kVarchar, 20, false}});
    ASSERT_TRUE(dim_b.ok());
    ASSERT_TRUE(catalog_.AddIndex("dim_b", {"b_pk", {0}, true, true}).ok());

    TableData* fd = storage_.CreateTable(*fact);
    for (int i = 0; i < 1000; ++i) {
      fd->Append({Value::Int(i), Value::Int(i % 10), Value::Int(i % 100),
                  Value::Double(i * 0.5)});
    }
    fd->BuildIndexes();
    catalog_.SetStats((*fact)->id, ComputeTableStats(*fd));
    TableData* ad = storage_.CreateTable(*dim_a);
    for (int i = 0; i < 10; ++i) {
      ad->Append({Value::Int(i), Value::Str("a" + std::to_string(i))});
    }
    ad->BuildIndexes();
    catalog_.SetStats((*dim_a)->id, ComputeTableStats(*ad));
    TableData* bd = storage_.CreateTable(*dim_b);
    for (int i = 0; i < 100; ++i) {
      bd->Append({Value::Int(i), Value::Str("b" + std::to_string(i))});
    }
    bd->BuildIndexes();
    catalog_.SetStats((*dim_b)->id, ComputeTableStats(*bd));
    mdp_ = std::make_unique<MetadataProvider>(catalog_);
  }

  /// Parses, binds, prepares, converts, optimizes; returns the physical
  /// plan (keeps the statement alive in stmt_).
  Result<std::unique_ptr<OrcaPhysicalOp>> OptimizeSql(
      const std::string& sql, const OrcaConfig& config) {
    auto parsed = ParseSelect(sql);
    if (!parsed.ok()) return parsed.status();
    auto bound = BindStatement(catalog_, std::move(*parsed));
    if (!bound.ok()) return bound.status();
    stmt_ = std::move(*bound);
    TAURUS_RETURN_IF_ERROR(PrepareStatement(&stmt_));
    TAURUS_ASSIGN_OR_RETURN(
        logical_, ConvertBlockToOrcaLogical(stmt_.block.get(),
                                            stmt_.num_refs, mdp_.get(),
                                            config));
    stats_ = std::make_unique<MdpStatsProvider>(catalog_, stmt_.leaves,
                                                mdp_.get());
    OrcaOptimizer optimizer(config, stats_.get(), stmt_.num_refs);
    auto plan = optimizer.Optimize(logical_.get());
    last_partitions_ = optimizer.partitions_evaluated();
    last_groups_ = optimizer.num_groups();
    return plan;
  }

  static int CountKind(const OrcaPhysicalOp& op, OrcaPhysicalOp::Kind kind) {
    int n = op.kind == kind ? 1 : 0;
    for (const auto& c : op.children) n += CountKind(*c, kind);
    return n;
  }

  Catalog catalog_;
  Storage storage_;
  std::unique_ptr<MetadataProvider> mdp_;
  BoundStatement stmt_;
  std::unique_ptr<OrcaLogicalOp> logical_;
  std::unique_ptr<MdpStatsProvider> stats_;
  int64_t last_partitions_ = 0;
  int last_groups_ = 0;
};

TEST_F(OrcaTest, ConverterSegregatesPredicates) {
  OrcaConfig config;
  auto parsed = ParseSelect(
      "SELECT COUNT(*) FROM fact, dim_a WHERE f_a = a_id AND a_name = 'a3' "
      "AND f_val > 100");
  auto bound = BindStatement(catalog_, std::move(*parsed));
  ASSERT_TRUE(bound.ok());
  stmt_ = std::move(*bound);
  ASSERT_TRUE(PrepareStatement(&stmt_).ok());
  auto logical = ConvertBlockToOrcaLogical(stmt_.block.get(), stmt_.num_refs,
                                           mdp_.get(), config);
  ASSERT_TRUE(logical.ok()) << logical.status().ToString();
  std::string tree = (*logical)->ToString();
  // Local predicates became Selects over the Gets; the join predicate
  // stayed at the join (the paper's Listing 3 -> Listing 4 segregation).
  EXPECT_NE(tree.find("LogicalSelect[(a_name = 'a3')]"), std::string::npos)
      << tree;
  EXPECT_NE(tree.find("LogicalSelect[(f_val > 100)]"), std::string::npos)
      << tree;
  EXPECT_NE(tree.find("LogicalJoin(inner)[(f_a = a_id)]"), std::string::npos)
      << tree;
}

TEST_F(OrcaTest, ConverterEmbellishesOids) {
  OrcaConfig config;
  auto parsed = ParseSelect("SELECT COUNT(*) FROM fact WHERE f_a = 3");
  auto bound = BindStatement(catalog_, std::move(*parsed));
  stmt_ = std::move(*bound);
  ASSERT_TRUE(PrepareStatement(&stmt_).ok());
  auto logical = ConvertBlockToOrcaLogical(stmt_.block.get(), stmt_.num_refs,
                                           mdp_.get(), config);
  ASSERT_TRUE(logical.ok());
  // Single-table query: Select over Get with the relation OID and the
  // INT4_EQ_INT8 comparison OID (literal ints are BIGINT).
  const OrcaLogicalOp* node = logical->get();
  ASSERT_EQ(node->kind, OrcaLogicalOp::Kind::kSelect);
  ASSERT_EQ(node->children[0]->kind, OrcaLogicalOp::Kind::kGet);
  EXPECT_EQ(node->children[0]->relation_oid, RelationOid(0));
  ASSERT_EQ(node->cond_oids.size(), 1u);
  EXPECT_EQ(ExprOidName(node->cond_oids[0]), "INT4_EQ_INT8");
}

TEST_F(OrcaTest, PicksHashJoinForLargeBuild) {
  OrcaConfig config;
  auto plan = OptimizeSql(
      "SELECT COUNT(*) FROM fact, dim_b WHERE f_b = b_id", config);
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  // No usable index on f_b: hash join, probing the big fact side.
  EXPECT_EQ(CountKind(**plan, OrcaPhysicalOp::Kind::kHashJoin), 1);
}

TEST_F(OrcaTest, PicksIndexNljForSelectiveOuter) {
  OrcaConfig config;
  auto plan = OptimizeSql(
      "SELECT COUNT(*) FROM fact, dim_a WHERE f_a = a_id AND "
      "a_name = 'a3'",
      config);
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  // One dim row -> index lookups into fact via fact_a beat a hash build.
  EXPECT_EQ(CountKind(**plan, OrcaPhysicalOp::Kind::kIndexLookup), 1)
      << (*plan)->ToString();
}

TEST_F(OrcaTest, IndexNljDisabledFallsBackToHash) {
  OrcaConfig config;
  config.enable_index_nlj = false;
  auto plan = OptimizeSql(
      "SELECT COUNT(*) FROM fact, dim_a WHERE f_a = a_id AND "
      "a_name = 'a3'",
      config);
  ASSERT_TRUE(plan.ok());
  // No index lookups; the optimizer falls back to a hash join or (with a
  // one-row outer) a plain nested-loop rescan — either way, not a lookup.
  EXPECT_EQ(CountKind(**plan, OrcaPhysicalOp::Kind::kIndexLookup), 0);
  EXPECT_EQ(CountKind(**plan, OrcaPhysicalOp::Kind::kHashJoin) +
                CountKind(**plan, OrcaPhysicalOp::Kind::kNLJoin),
            1);
}

TEST_F(OrcaTest, MemoGroupIdsAssigned) {
  OrcaConfig config;
  auto plan = OptimizeSql(
      "SELECT COUNT(*) FROM fact, dim_a, dim_b WHERE f_a = a_id AND "
      "f_b = b_id",
      config);
  ASSERT_TRUE(plan.ok());
  EXPECT_GE((*plan)->memo_group, 0);
  EXPECT_GT(last_groups_, 3);  // at least leaves + joins
  EXPECT_GT(last_partitions_, 0);
}

TEST_F(OrcaTest, GreedyCheaperThanExhaustive2InEffort) {
  // A 4-unit chain, dim_a - f1 - f2 - dim_b. The name dates from when
  // EXHAUSTIVE2 also costed cross products; costing connected pairs only,
  // it now does less work than GREEDY, whose GreedyPlan plans every subset
  // left after removing units (ROADMAP item 12). Both counts are pinned.
  const std::string sql =
      "SELECT COUNT(*) FROM fact f1, fact f2, dim_a, dim_b WHERE "
      "f1.f_id = f2.f_id AND f1.f_a = a_id AND f2.f_b = b_id";
  OrcaConfig config;
  config.strategy = JoinSearchStrategy::kGreedy;
  ASSERT_TRUE(OptimizeSql(sql, config).ok());
  EXPECT_EQ(last_partitions_, 26);
  config.strategy = JoinSearchStrategy::kExhaustive2;
  ASSERT_TRUE(OptimizeSql(sql, config).ok());
  // The chain closed form (n^3 - n) / 3 at n = 4.
  EXPECT_EQ(last_partitions_, 20);
}

TEST_F(OrcaTest, DependentUnitsRespectOrdering) {
  OrcaConfig config;
  auto plan = OptimizeSql(
      "SELECT COUNT(*) FROM dim_a WHERE EXISTS "
      "(SELECT 1 FROM fact WHERE f_a = a_id AND f_val > 400)",
      config);
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  // The semi join must keep dim_a on the outer side.
  const OrcaPhysicalOp* root = plan->get();
  ASSERT_TRUE(root->kind == OrcaPhysicalOp::Kind::kHashJoin ||
              root->kind == OrcaPhysicalOp::Kind::kNLJoin);
  EXPECT_EQ(root->join_type, JoinType::kSemi);
  std::vector<TableRef*> left_leaves;
  EXPECT_EQ(root->children[0]->leaf->table_name, "dim_a");
}

TEST_F(OrcaTest, CostsAndRowsPopulated) {
  OrcaConfig config;
  auto plan = OptimizeSql(
      "SELECT COUNT(*) FROM fact, dim_a WHERE f_a = a_id", config);
  ASSERT_TRUE(plan.ok());
  EXPECT_GT((*plan)->cost, 0.0);
  EXPECT_GT((*plan)->rows, 100.0);  // ~1000 rows expected
  EXPECT_LT((*plan)->rows, 10000.0);
}

// ---------------------------------------------------------------------------
// EXHAUSTIVE2 join enumeration: connected pairs, cross-product fallback
// ---------------------------------------------------------------------------

class JoinEnumerationTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    db_ = std::make_unique<Database>();
    ASSERT_TRUE(db_->ExecuteSql("CREATE TABLE nation (n_nationkey INT NOT "
                                "NULL PRIMARY KEY, n_name VARCHAR(25) NOT "
                                "NULL)")
                    .ok());
    std::vector<Row> nations;
    for (int i = 0; i < 25; ++i) {
      nations.push_back({Value::Int(i), Value::Str("n" + std::to_string(i))});
    }
    ASSERT_TRUE(db_->BulkLoad("nation", std::move(nations)).ok());
    for (const char* name : {"a", "b", "c"}) {
      ASSERT_TRUE(db_->ExecuteSql(std::string("CREATE TABLE ") + name +
                                  " (x INT NOT NULL, y INT NOT NULL, "
                                  "z INT NOT NULL)")
                      .ok());
      std::vector<Row> rows;
      for (int i = 0; i < 12; ++i) {
        rows.push_back({Value::Int(i % 4), Value::Int(i % 3), Value::Int(i)});
      }
      ASSERT_TRUE(db_->BulkLoad(name, std::move(rows)).ok());
    }
    ASSERT_TRUE(db_->AnalyzeAll().ok());
    db_->orca_config().strategy = JoinSearchStrategy::kExhaustive2;
  }
  static void TearDownTestSuite() { db_.reset(); }

  /// The search effort of EXHAUSTIVE2 on `sql`, on the Orca path.
  static OrcaPathMetrics Exhaustive2Effort(const std::string& sql) {
    auto r = db_->Query(sql, OptimizerPath::kOrca);
    EXPECT_TRUE(r.ok()) << r.status().ToString();
    EXPECT_TRUE(r.ok() && r->used_orca && !r->fell_back) << sql;
    return r.ok() ? r->orca : OrcaPathMetrics{};
  }

  /// Plans `sql` with EXHAUSTIVE2 and checks its rows against the MySQL
  /// path's, which must not be empty.
  static void ExpectMySqlRows(const std::string& sql, int64_t pairs) {
    SCOPED_TRACE(sql);
    auto want = db_->Query(sql, OptimizerPath::kMySql);
    ASSERT_TRUE(want.ok()) << want.status().ToString();
    EXPECT_FALSE(want->rows.empty()) << "an empty result checks nothing";
    auto got = db_->Query(sql, OptimizerPath::kOrca);
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    EXPECT_TRUE(got->used_orca && !got->fell_back);
    EXPECT_EQ(got->orca.partitions_evaluated, pairs);
    EXPECT_EQ(SortedText(got->rows), SortedText(want->rows));
  }

  static std::string SortedText(std::vector<Row> rows) {
    std::vector<std::string> lines;
    for (const Row& r : rows) lines.push_back(RowToString(r));
    std::sort(lines.begin(), lines.end());
    std::string out;
    for (const std::string& l : lines) out += l + "\n";
    return out;
  }

  static std::unique_ptr<Database> db_;
};

std::unique_ptr<Database> JoinEnumerationTest::db_;

// The closed forms count the connected subsets (groups) and the
// connected-subgraph/complement pairs in both orientations (Moerkotte &
// Neumann, VLDB 2006): no cross product is costed, and no pair is missed.
TEST_F(JoinEnumerationTest, CostsConnectedPairsOnly) {
  for (int n : {3, 4, 8, 12}) {
    SCOPED_TRACE("n=" + std::to_string(n));
    const int64_t m = n;
    OrcaPathMetrics chain =
        Exhaustive2Effort(NationJoinGraphQuery(NationJoinShape::kChain, n));
    EXPECT_EQ(chain.partitions_evaluated, (m * m * m - m) / 3);
    EXPECT_EQ(chain.memo_groups, m * (m + 1) / 2);
    OrcaPathMetrics star =
        Exhaustive2Effort(NationJoinGraphQuery(NationJoinShape::kStar, n));
    EXPECT_EQ(star.partitions_evaluated, (m - 1) << (m - 1));
    EXPECT_EQ(star.memo_groups, (int64_t{1} << (m - 1)) + m - 1);
    OrcaPathMetrics cycle =
        Exhaustive2Effort(NationJoinGraphQuery(NationJoinShape::kCycle, n));
    EXPECT_EQ(cycle.partitions_evaluated, m * m * m - 2 * m * m + m);
    EXPECT_EQ(cycle.memo_groups, m * m - m + 1);
  }
}

TEST_F(JoinEnumerationTest, DenseGraphOverBudgetCompletesGreedily) {
  // Eight aliases joined pairwise: the full set alone has 127 cuts, more
  // than the budget, so the search plans greedily instead of holding them.
  std::string where;
  for (int i = 0; i < 8; ++i) {
    for (int j = i + 1; j < 8; ++j) {
      where += std::string(where.empty() ? "" : " AND ") + "t" +
               std::to_string(i) + ".n_nationkey = t" + std::to_string(j) +
               ".n_nationkey";
    }
  }
  const std::string sql =
      "SELECT count(*) FROM nation t0, nation t1, nation t2, nation t3, "
      "nation t4, nation t5, nation t6, nation t7 WHERE " + where;
  auto want = db_->Query(sql, OptimizerPath::kMySql);
  ASSERT_TRUE(want.ok()) << want.status().ToString();
  db_->orca_config().exhaustive2_pair_budget = 100;
  auto got = db_->Query(sql, OptimizerPath::kOrca);
  db_->orca_config().exhaustive2_pair_budget =
      OrcaConfig().exhaustive2_pair_budget;
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  const OrcaPathMetrics effort = got->orca;
  EXPECT_TRUE(got->used_orca && !got->fell_back);
  // Without the budget: 3^8 - 2^9 + 1 = 6,050 pairs. Over it, every pair
  // is GreedyPlan's, which plans all 2^8 - 1 subsets of a clique (ROADMAP
  // item 12), so this count is pinned as well as bounded.
  EXPECT_LT(effort.partitions_evaluated, 6050);
  EXPECT_EQ(effort.partitions_evaluated, 1016);
  EXPECT_EQ(SortedText(got->rows), SortedText(want->rows));
}

// Shapes where no split has two connected halves that can be joined, so
// the search falls back to cross products (pass 1). The pair counts are
// pass 1's alone.
TEST_F(JoinEnumerationTest, DisconnectedGraphFallsBackToCrossProducts) {
  // Both orientations of the one split.
  ExpectMySqlRows("SELECT a.z, b.z FROM a, b WHERE a.x = 1 AND b.y = 2", 2);
}

TEST_F(JoinEnumerationTest, ThreeUnitConjunctFallsBackToCrossProducts) {
  // The conjunct joins all three units only once all three are present:
  // 3 splits of {a, b, c} and 1 of each pair, in both orientations.
  ExpectMySqlRows("SELECT a.z, b.z, c.z FROM a, b, c WHERE a.x + b.y = c.z",
                  12);
}

TEST_F(JoinEnumerationTest, LeftJoinDependencyFallsBackToCrossProducts) {
  // b depends on {a, c}, and a and c share no conjunct: every split with
  // two connected halves leaves b without its dependency. Pass 1 costs
  // {a, c} then b, and both orientations of {a, c}.
  ExpectMySqlRows(
      "SELECT a.z, b.z, c.z FROM a CROSS JOIN c LEFT JOIN b ON b.x = c.x "
      "AND b.y = a.y WHERE a.z < 3 AND c.z < 5",
      3);
}

// ---------------------------------------------------------------------------
// OR factoring (normalize.cc)
// ---------------------------------------------------------------------------

class OrFactorTest : public ::testing::Test {
 protected:
  std::unique_ptr<Expr> ParseExprFromWhere(const std::string& cond) {
    auto q = ParseSelect("SELECT 1 FROM t WHERE " + cond);
    EXPECT_TRUE(q.ok());
    return std::move((*q)->where);
  }
};

TEST_F(OrFactorTest, FactorsCommonConjunct) {
  auto e = ParseExprFromWhere("(a = b AND c = 1) OR (a = b AND d = 2)");
  EXPECT_TRUE(FactorOrCommonConjuncts(&e));
  // (a = b) AND ((c = 1) OR (d = 2))
  ASSERT_EQ(e->bop, BinaryOp::kAnd);
  EXPECT_EQ(e->children[0]->ToString(), "(a = b)");
  EXPECT_EQ(e->children[1]->bop, BinaryOp::kOr);
}

TEST_F(OrFactorTest, FactorsAcrossThreeBranches) {
  auto e = ParseExprFromWhere(
      "(a = b AND c = 1) OR (a = b AND d = 2) OR (a = b AND f = 3)");
  EXPECT_TRUE(FactorOrCommonConjuncts(&e));
  ASSERT_EQ(e->bop, BinaryOp::kAnd);
  EXPECT_EQ(e->children[0]->ToString(), "(a = b)");
}

TEST_F(OrFactorTest, NoCommonConjunctNoChange) {
  auto e = ParseExprFromWhere("(a = 1 AND b = 2) OR (c = 3 AND d = 4)");
  EXPECT_FALSE(FactorOrCommonConjuncts(&e));
  EXPECT_EQ(e->bop, BinaryOp::kOr);
}

TEST_F(OrFactorTest, BranchEqualToCommonMakesOrVacuous) {
  // (a = b) OR (a = b AND c = 1)  ->  a = b
  auto e = ParseExprFromWhere("(a = b) OR (a = b AND c = 1)");
  EXPECT_TRUE(FactorOrCommonConjuncts(&e));
  EXPECT_EQ(e->ToString(), "(a = b)");
}

TEST_F(OrFactorTest, MultipleCommonConjuncts) {
  auto e = ParseExprFromWhere(
      "(a = b AND x = y AND c = 1) OR (a = b AND x = y AND d = 2)");
  EXPECT_TRUE(FactorOrCommonConjuncts(&e));
  std::string s = e->ToString();
  EXPECT_NE(s.find("(a = b)"), std::string::npos);
  EXPECT_NE(s.find("(x = y)"), std::string::npos);
}

TEST_F(OrFactorTest, RecursesIntoNestedExpressions) {
  auto e = ParseExprFromWhere(
      "z = 9 AND ((a = b AND c = 1) OR (a = b AND d = 2))");
  EXPECT_TRUE(FactorOrCommonConjuncts(&e));
  EXPECT_NE(e->ToString().find("(a = b)"), std::string::npos);
}

}  // namespace
}  // namespace taurus
