#include <gtest/gtest.h>

#include "exec/block_executor.h"
#include "frontend/prepare.h"
#include "myopt/access_path.h"
#include "myopt/cardinality.h"
#include "parser/ast_util.h"
#include "myopt/join_graph.h"
#include "myopt/mysql_optimizer.h"
#include "myopt/refine.h"
#include "parser/parser.h"
#include "storage/storage.h"
#include "verify/block_verifier.h"

namespace taurus {
namespace {

class MyOptTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto big = catalog_.CreateTable(
        "big", {{"b_id", TypeId::kLong, 0, false},
                {"b_fk", TypeId::kLong, 0, false},
                {"b_v", TypeId::kDouble, 0, false}});
    ASSERT_TRUE(big.ok());
    ASSERT_TRUE(catalog_.AddIndex("big", {"big_pk", {0}, true, true}).ok());
    ASSERT_TRUE(catalog_.AddIndex("big", {"big_fk", {1}, false, false}).ok());
    auto small = catalog_.CreateTable(
        "small", {{"s_id", TypeId::kLong, 0, false},
                  {"s_name", TypeId::kVarchar, 20, false}});
    ASSERT_TRUE(small.ok());
    ASSERT_TRUE(catalog_.AddIndex("small", {"small_pk", {0}, true, true}).ok());

    TableData* bd = storage_.CreateTable(*big);
    for (int i = 0; i < 5000; ++i) {
      bd->Append({Value::Int(i), Value::Int(i % 50),
                  Value::Double(0.25 * i)});
    }
    bd->BuildIndexes();
    catalog_.SetStats((*big)->id, ComputeTableStats(*bd));
    TableData* sd = storage_.CreateTable(*small);
    for (int i = 0; i < 50; ++i) {
      sd->Append({Value::Int(i), Value::Str("n" + std::to_string(i))});
    }
    sd->BuildIndexes();
    catalog_.SetStats((*small)->id, ComputeTableStats(*sd));
  }

  Result<BoundStatement> Prep(const std::string& sql) {
    auto parsed = ParseSelect(sql);
    if (!parsed.ok()) return parsed.status();
    auto bound = BindStatement(catalog_, std::move(*parsed));
    if (!bound.ok()) return bound.status();
    BoundStatement stmt = std::move(*bound);
    TAURUS_RETURN_IF_ERROR(PrepareStatement(&stmt));
    return stmt;
  }

  Catalog catalog_;
  Storage storage_;
};

// ---------------------------------------------------------------------------
// Join graph
// ---------------------------------------------------------------------------

TEST_F(MyOptTest, JoinGraphFlattensInnerJoins) {
  auto stmt = Prep(
      "SELECT 1 FROM big b1 JOIN big b2 ON b1.b_id = b2.b_id "
      "JOIN small ON b2.b_fk = s_id WHERE b1.b_v > 3");
  ASSERT_TRUE(stmt.ok());
  auto graph = BuildJoinGraph(stmt->block.get(), stmt->num_refs);
  ASSERT_TRUE(graph.ok());
  EXPECT_EQ(graph->units.size(), 3u);  // all freely reorderable
  for (const JoinUnit& u : graph->units) {
    EXPECT_EQ(u.join_type, JoinType::kInner);
    EXPECT_EQ(u.dependency, 0u);
  }
  // Conjuncts: 2 ON equalities + 1 WHERE filter.
  EXPECT_EQ(graph->conjuncts.size(), 3u);
}

TEST_F(MyOptTest, JoinGraphDependentUnits) {
  auto stmt = Prep(
      "SELECT 1 FROM big LEFT JOIN small ON b_fk = s_id WHERE b_v >= 0");
  ASSERT_TRUE(stmt.ok());
  auto graph = BuildJoinGraph(stmt->block.get(), stmt->num_refs);
  ASSERT_TRUE(graph.ok());
  ASSERT_EQ(graph->units.size(), 2u);
  EXPECT_EQ(graph->units[0].join_type, JoinType::kInner);
  EXPECT_EQ(graph->units[1].join_type, JoinType::kLeft);
  EXPECT_EQ(graph->units[1].dependency, 1u);  // depends on unit 0
  ASSERT_EQ(graph->units[1].join_conds.size(), 1u);
}

TEST_F(MyOptTest, JoinGraphConjunctMasks) {
  auto stmt = Prep(
      "SELECT 1 FROM big, small WHERE b_fk = s_id AND b_v > 5 AND 1 = 1");
  ASSERT_TRUE(stmt.ok());
  auto graph = BuildJoinGraph(stmt->block.get(), stmt->num_refs);
  ASSERT_TRUE(graph.ok());
  // Masks: join cond covers both units; local cond covers one; the
  // constant folds to a literal with no units.
  uint64_t masks[3] = {0, 0, 0};
  for (size_t i = 0; i < graph->conjuncts.size(); ++i) {
    masks[i] = graph->conjuncts[i].units;
  }
  EXPECT_EQ(masks[0], 0b11u);
  EXPECT_EQ(masks[1], 0b01u);
  EXPECT_EQ(masks[2], 0u);
}

// ---------------------------------------------------------------------------
// Cardinality estimation
// ---------------------------------------------------------------------------

TEST_F(MyOptTest, SelectivityFromHistograms) {
  auto stmt = Prep(
      "SELECT 1 FROM big WHERE b_id < 1000 AND b_fk = 7 AND "
      "b_v BETWEEN 100 AND 200");
  ASSERT_TRUE(stmt.ok());
  StatsProvider stats(catalog_, stmt->leaves);
  std::vector<const Expr*> conjs;
  SplitConjuncts(stmt->block->where.get(), &conjs);
  ASSERT_EQ(conjs.size(), 3u);
  EXPECT_NEAR(stats.ConjunctSelectivity(*conjs[0]), 0.2, 0.05);    // < 1000
  EXPECT_NEAR(stats.ConjunctSelectivity(*conjs[1]), 0.02, 0.005);  // = 7
  // b_v in [100, 200] of [0, 1249.75] ~ 8%.
  EXPECT_NEAR(stats.ConjunctSelectivity(*conjs[2]), 0.08, 0.03);
}

TEST_F(MyOptTest, EqJoinSelectivityUsesMaxNdv) {
  auto stmt = Prep("SELECT 1 FROM big, small WHERE b_fk = s_id");
  ASSERT_TRUE(stmt.ok());
  StatsProvider stats(catalog_, stmt->leaves);
  std::vector<const Expr*> conjs;
  SplitConjuncts(stmt->block->where.get(), &conjs);
  // ndv(b_fk) = ndv(s_id) = 50 -> selectivity 1/50.
  EXPECT_NEAR(stats.EqJoinSelectivity(*conjs[0]), 1.0 / 50, 1e-9);
}

TEST_F(MyOptTest, LeafBaseRowsAndDerivedOverride) {
  auto stmt = Prep("SELECT 1 FROM big, (SELECT s_id FROM small) d "
                   "WHERE b_fk = d.s_id");
  ASSERT_TRUE(stmt.ok());
  StatsProvider stats(catalog_, stmt->leaves);
  auto leaves = stmt->block->Leaves();
  EXPECT_DOUBLE_EQ(stats.LeafBaseRows(*leaves[0]), 5000.0);
  stats.SetDerivedRows(leaves[1], 42.0);
  EXPECT_DOUBLE_EQ(stats.LeafBaseRows(*leaves[1]), 42.0);
}

// ---------------------------------------------------------------------------
// Greedy optimizer & skeleton
// ---------------------------------------------------------------------------

TEST_F(MyOptTest, GreedyPrefersRefAccess) {
  auto stmt = Prep(
      "SELECT 1 FROM small, big WHERE s_id = b_fk AND s_name = 'n3'");
  ASSERT_TRUE(stmt.ok());
  auto skel = MySqlOptimize(catalog_, &*stmt);
  ASSERT_TRUE(skel.ok()) << skel.status().ToString();
  std::vector<const SkeletonNode*> bpa;
  (*skel)->root->BestPositionArray(&bpa);
  ASSERT_EQ(bpa.size(), 2u);
  // small (1 row after filter) drives; big accessed via the b_fk index.
  EXPECT_EQ(bpa[0]->leaf->table_name, "small");
  EXPECT_EQ(bpa[1]->leaf->table_name, "big");
  EXPECT_EQ(bpa[1]->access, AccessMethod::kIndexLookup);
}

TEST_F(MyOptTest, GreedyUsesHashJoinWithoutIndex) {
  // Join on non-indexed columns: MySQL's non-cost-based hash fallback.
  auto stmt = Prep("SELECT 1 FROM big b1, big b2 WHERE b1.b_v = b2.b_v");
  ASSERT_TRUE(stmt.ok());
  auto skel = MySqlOptimize(catalog_, &*stmt);
  ASSERT_TRUE(skel.ok());
  ASSERT_TRUE((*skel)->root->is_join);
  EXPECT_EQ((*skel)->root->method, JoinMethod::kHash);
}

TEST_F(MyOptTest, DependentUnitPlacedAfterOuter) {
  auto stmt = Prep(
      "SELECT 1 FROM small LEFT JOIN big ON s_id = b_fk");
  ASSERT_TRUE(stmt.ok());
  auto skel = MySqlOptimize(catalog_, &*stmt);
  ASSERT_TRUE(skel.ok());
  std::vector<const SkeletonNode*> bpa;
  (*skel)->root->BestPositionArray(&bpa);
  ASSERT_EQ(bpa.size(), 2u);
  EXPECT_EQ(bpa[0]->leaf->table_name, "small");
  EXPECT_EQ((*skel)->root->join_type, JoinType::kLeft);
}

TEST_F(MyOptTest, RangeAccessChosenForSelectiveRange) {
  auto stmt = Prep("SELECT 1 FROM big WHERE b_id < 100");
  ASSERT_TRUE(stmt.ok());
  auto skel = MySqlOptimize(catalog_, &*stmt);
  ASSERT_TRUE(skel.ok());
  EXPECT_EQ((*skel)->root->access, AccessMethod::kIndexRange);
  EXPECT_EQ((*skel)->root->index_id, 0);  // big_pk
}

TEST_F(MyOptTest, FullScanForUnselectiveRange) {
  auto stmt = Prep("SELECT 1 FROM big WHERE b_id < 4900");
  ASSERT_TRUE(stmt.ok());
  auto skel = MySqlOptimize(catalog_, &*stmt);
  ASSERT_TRUE(skel.ok());
  EXPECT_EQ((*skel)->root->access, AccessMethod::kTableScan);
}

// ---------------------------------------------------------------------------
// Refinement: predicate placement
// ---------------------------------------------------------------------------

TEST_F(MyOptTest, RefinementPushesLocalFiltersToScans) {
  auto stmt = Prep(
      "SELECT 1 FROM big, small WHERE b_fk = s_id AND s_name = 'n3' AND "
      "b_v > 100");
  ASSERT_TRUE(stmt.ok());
  auto skel = MySqlOptimize(catalog_, &*stmt);
  ASSERT_TRUE(skel.ok());
  auto q = RefinePlan(std::move(*stmt), **skel, catalog_);
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  // Every leaf-local conjunct must sit on a scan, not on the join.
  std::vector<const PhysOp*> leaves;
  (*q)->root->join_root->CollectLeaves(&leaves);
  int filtered_leaves = 0;
  for (const PhysOp* leaf : leaves) {
    if (!leaf->filters.empty() || !leaf->lookup_keys.empty()) {
      ++filtered_leaves;
    }
  }
  EXPECT_EQ(filtered_leaves, 2);
}

TEST_F(MyOptTest, RefinementKeepsWhereAboveLeftJoinInner) {
  auto stmt = Prep(
      "SELECT 1 FROM small LEFT JOIN big ON s_id = b_fk "
      "WHERE b_id IS NULL");
  ASSERT_TRUE(stmt.ok());
  auto skel = MySqlOptimize(catalog_, &*stmt);
  ASSERT_TRUE(skel.ok());
  auto q = RefinePlan(std::move(*stmt), **skel, catalog_);
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  // The IS NULL probe must evaluate above the left join: the root becomes
  // a Filter node.
  EXPECT_EQ((*q)->root->join_root->kind, PhysOp::Kind::kFilter);
}

TEST_F(MyOptTest, RefinementBindsLookupKeys) {
  auto stmt = Prep(
      "SELECT 1 FROM small, big WHERE s_id = b_fk AND s_name = 'n3'");
  ASSERT_TRUE(stmt.ok());
  auto skel = MySqlOptimize(catalog_, &*stmt);
  ASSERT_TRUE(skel.ok());
  auto q = RefinePlan(std::move(*stmt), **skel, catalog_);
  ASSERT_TRUE(q.ok());
  std::vector<const PhysOp*> leaves;
  (*q)->root->join_root->CollectLeaves(&leaves);
  bool found_lookup = false;
  for (const PhysOp* leaf : leaves) {
    if (leaf->kind == PhysOp::Kind::kIndexLookup) {
      found_lookup = true;
      EXPECT_EQ(leaf->lookup_keys.size(), 1u);
    }
  }
  EXPECT_TRUE(found_lookup);
}

TEST_F(MyOptTest, RefinementDowngradesUnbindableLookup) {
  // Force skeletons whose index access cannot be bound: no conjunct binds
  // big_pk's key (b_id). Refinement must degrade to a scan rather than
  // fail, and block-verifier rule B005 must report each downgrade.
  for (AccessMethod forced :
       {AccessMethod::kIndexLookup, AccessMethod::kIndexRange}) {
    SCOPED_TRACE(static_cast<int>(forced));
    auto stmt = Prep("SELECT 1 FROM big WHERE b_v > 100");
    ASSERT_TRUE(stmt.ok());
    auto skel = MySqlOptimize(catalog_, &*stmt);
    ASSERT_TRUE(skel.ok());
    (*skel)->root->access = forced;
    (*skel)->root->index_id = 0;
    auto q = RefinePlan(std::move(*stmt), **skel, catalog_);
    ASSERT_TRUE(q.ok()) << q.status().ToString();
    EXPECT_EQ((*q)->root->join_root->kind, PhysOp::Kind::kTableScan);
    VerifyReport report;
    VerifyBlockPlan(**q, &report);
    EXPECT_TRUE(report.HasRule("B005")) << report.ToString();
    EXPECT_EQ(report.violations(), 1) << report.ToString();
  }
}

// One table of conjunct shapes and the access each gets. Both optimizers
// choose leaf access through ChooseLeafAccess, so this covers both.
TEST_F(MyOptTest, LeafAccessByConjunctShape) {
  struct Case {
    const char* where;
    AccessMethod access;
    bool range_bound;  ///< RangeBound accepts the conjunct
  };
  const Case kCases[] = {
      {"b_id < 5", AccessMethod::kIndexRange, true},
      {"5 > b_id", AccessMethod::kIndexRange, true},
      {"b_id BETWEEN 1 AND 9", AccessMethod::kIndexRange, true},
      {"b_fk = s_id", AccessMethod::kIndexLookup, false},
      {"b_id BETWEEN s_id AND 9", AccessMethod::kTableScan, false},
      {"b_id < b_fk", AccessMethod::kTableScan, false},
      {"b_id NOT BETWEEN 1 AND 9", AccessMethod::kTableScan, false},
  };
  for (const Case& c : kCases) {
    SCOPED_TRACE(c.where);
    // Bound but not Prepared, so every conjunct keeps its written shape.
    auto parsed =
        ParseSelect(std::string("SELECT 1 FROM big, small WHERE ") + c.where);
    ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
    auto stmt = BindStatement(catalog_, std::move(*parsed));
    ASSERT_TRUE(stmt.ok()) << stmt.status().ToString();
    const TableRef& big = *stmt->leaves[0];
    ASSERT_EQ(big.table_name, "big");
    Expr* conjunct = stmt->block->where.get();
    // `small` plays the outer block: the only refs a ref key may read.
    auto outer = [&](int ref_id) { return ref_id != big.ref_id; };
    StatsProvider stats(catalog_, stmt->leaves);
    LeafAccess access =
        ChooseLeafAccess(big, {conjunct}, stats.LeafBaseRows(big), stats,
                         CostParams(), outer);
    EXPECT_EQ(access.method, c.access);
    EXPECT_EQ(RangeBound(*conjunct, big).has_value(), c.range_bound);
  }
}

TEST_F(MyOptTest, RefinementCollectsAggregates) {
  auto stmt = Prep(
      "SELECT b_fk, COUNT(*), SUM(b_v) FROM big GROUP BY b_fk "
      "HAVING COUNT(*) > 10 ORDER BY SUM(b_v) DESC");
  ASSERT_TRUE(stmt.ok());
  auto skel = MySqlOptimize(catalog_, &*stmt);
  ASSERT_TRUE(skel.ok());
  auto q = RefinePlan(std::move(*stmt), **skel, catalog_);
  ASSERT_TRUE(q.ok());
  const BlockPlan& plan = *(*q)->root;
  EXPECT_EQ(plan.agg_mode, AggMode::kHash);
  // count(*) and sum(b_v) collected once each (deduplicated structurally).
  EXPECT_EQ(plan.agg_exprs.size(), 2u);
  EXPECT_EQ(plan.group_exprs.size(), 1u);
  ASSERT_NE(plan.having, nullptr);
  EXPECT_EQ(plan.order_keys.size(), 1u);
}

TEST_F(MyOptTest, MySqlIndexGatedOrFactoring) {
  // The common equality b_id = s_id leads the big_pk index, so stock
  // MySQL's limited OR refactoring applies and produces hash keys.
  auto stmt = Prep(
      "SELECT 1 FROM big, small WHERE (b_id = s_id AND b_v > 10) OR "
      "(b_id = s_id AND s_name = 'n5')");
  ASSERT_TRUE(stmt.ok());
  auto skel = MySqlOptimize(catalog_, &*stmt);
  ASSERT_TRUE(skel.ok());
  ASSERT_TRUE((*stmt).block->where != nullptr);
  std::vector<const Expr*> conjs;
  SplitConjuncts(stmt->block->where.get(), &conjs);
  EXPECT_GE(conjs.size(), 2u);  // factored: eq AND (residual OR residual)
}

TEST_F(MyOptTest, SortElidedWhenIndexProvidesOrder) {
  auto stmt = Prep("SELECT b_id FROM big WHERE b_id < 100 ORDER BY b_id");
  ASSERT_TRUE(stmt.ok());
  auto skel = MySqlOptimize(catalog_, &*stmt);
  ASSERT_TRUE(skel.ok());
  ASSERT_EQ((*skel)->root->access, AccessMethod::kIndexRange);
  auto q = RefinePlan(std::move(*stmt), **skel, catalog_);
  ASSERT_TRUE(q.ok());
  EXPECT_TRUE((*q)->root->order_satisfied);
  // Rows still come back ordered (the index range scan provides it).
  auto rows = ExecuteQuery(q->get(), storage_);
  ASSERT_TRUE(rows.ok()) << rows.status().ToString();
  ASSERT_EQ(rows->size(), 100u);
  for (size_t i = 1; i < rows->size(); ++i) {
    EXPECT_LE((*rows)[i - 1][0].AsInt(), (*rows)[i][0].AsInt());
  }
}

TEST_F(MyOptTest, SortKeptForDescOrNonIndexOrder) {
  auto stmt = Prep("SELECT b_id FROM big WHERE b_id < 100 ORDER BY b_id "
                   "DESC");
  ASSERT_TRUE(stmt.ok());
  auto skel = MySqlOptimize(catalog_, &*stmt);
  ASSERT_TRUE(skel.ok());
  auto q = RefinePlan(std::move(*stmt), **skel, catalog_);
  ASSERT_TRUE(q.ok());
  EXPECT_FALSE((*q)->root->order_satisfied);
  auto rows = ExecuteQuery(q->get(), storage_);
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ((*rows)[0][0].AsInt(), 99);
}

}  // namespace
}  // namespace taurus
