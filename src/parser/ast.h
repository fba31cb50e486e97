#ifndef TAURUS_PARSER_AST_H_
#define TAURUS_PARSER_AST_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "catalog/schema.h"
#include "types/datetime.h"
#include "types/value.h"

namespace taurus {

struct QueryBlock;

/// Binary operators (arithmetic, comparison, boolean connectives).
enum class BinaryOp {
  kAdd,
  kSub,
  kMul,
  kDiv,
  kMod,
  kEq,
  kNe,
  kLt,
  kLe,
  kGt,
  kGe,
  kAnd,
  kOr,
};

/// True for =, <>, <, <=, >, >=.
bool IsComparisonOp(BinaryOp op);
/// True for +, -, *, /, %.
bool IsArithmeticOp(BinaryOp op);
/// SQL spelling of an operator ("=", "<", "AND", ...).
const char* BinaryOpName(BinaryOp op);
/// Commuted comparison (a < b  ->  b > a); identity for = and <>.
BinaryOp CommuteComparison(BinaryOp op);
/// Negated comparison (a < b  ->  a >= b).
BinaryOp InverseComparison(BinaryOp op);

enum class UnaryOp { kNot, kNeg, kIsNull, kIsNotNull };

/// SQL aggregate functions. kCountStar is COUNT(*); the metadata provider
/// models it with the special STAR type category (Section 5.2).
enum class AggFunc { kCountStar, kCount, kSum, kAvg, kMin, kMax, kStddev };

/// Name of an aggregate ("count", "sum", ...).
const char* AggFuncName(AggFunc f);

/// Expression tree node. One tagged struct rather than a class hierarchy:
/// the frontend rewrites, both optimizers and the bridge all pattern-match
/// on `kind`, and a flat struct keeps cloning and hashing simple.
struct Expr {
  enum class Kind {
    kLiteral,         ///< `literal`
    kColumnRef,       ///< table_name.column_name; resolved to (ref, column)
    kBinary,          ///< bop over children[0], children[1]
    kUnary,           ///< uop over children[0]
    kFuncCall,        ///< func_name over children (non-aggregate)
    kAgg,             ///< agg_func over children[0] (absent for COUNT(*))
    kCase,            ///< searched CASE: children = w1,t1,...,wk,tk[,else]
    kInList,          ///< children[0] IN (children[1..]); `negated` for NOT
    kBetween,         ///< children[0] BETWEEN children[1] AND children[2]
    kLike,            ///< children[0] LIKE children[1]; `negated` for NOT
    kExists,          ///< EXISTS (subquery); `negated` for NOT EXISTS
    kInSubquery,      ///< children[0] IN (subquery); `negated` for NOT IN
    kScalarSubquery,  ///< scalar (subquery)
    kCast,            ///< CAST(children[0] AS cast_type)
    kIntervalAdd,     ///< children[0] +/- INTERVAL interval_amount unit
  };

  Kind kind = Kind::kLiteral;

  // kLiteral
  Value literal;

  // kColumnRef (unresolved names; binder fills ref_id/column_idx).
  std::string table_name;
  std::string column_name;
  int ref_id = -1;
  int column_idx = -1;
  /// For resolved base-table column refs: declared NULLability. Drives the
  /// NOT IN -> anti-semi-join legality check (Section 4.1).
  bool column_nullable = true;

  // kBinary / kUnary
  BinaryOp bop = BinaryOp::kEq;
  UnaryOp uop = UnaryOp::kNot;

  /// NOT modifier for LIKE / IN / BETWEEN / EXISTS.
  bool negated = false;

  std::vector<std::unique_ptr<Expr>> children;

  // kFuncCall
  std::string func_name;

  // kAgg
  AggFunc agg_func = AggFunc::kCountStar;
  bool agg_distinct = false;

  // kCase
  bool case_has_else = false;

  // kExists / kInSubquery / kScalarSubquery
  std::unique_ptr<QueryBlock> subquery;

  // kCast
  TypeId cast_type = TypeId::kLong;

  // kIntervalAdd
  IntervalUnit interval_unit = IntervalUnit::kDay;
  int64_t interval_amount = 0;  ///< signed; subtraction uses negative amount

  /// Result type filled in by the binder.
  TypeId result_type = TypeId::kNull;

  /// Planning annotation: index into CompiledQuery::subplans for
  /// kExists/kInSubquery/kScalarSubquery nodes that survived the Prepare
  /// rewrites; -1 before planning.
  int subplan_id = -1;

  /// Planning annotation, set by plan refinement on the nodes of an
  /// aggregating block's HAVING, ORDER BY and select list that name an
  /// aggregate or a group key: the node evaluates to column `group_col` of
  /// the group's output row (its keys, then its aggregates), which the
  /// executor places in frame slot `group_slot`. -1 when unbound.
  int group_slot = -1;
  int group_col = -1;

  /// Deep copy (subqueries included).
  std::unique_ptr<Expr> Clone() const;

  /// SQL-ish rendering, used by EXPLAIN output and tests.
  std::string ToString() const;
};

/// Convenience constructors.
std::unique_ptr<Expr> MakeLiteral(Value v);
std::unique_ptr<Expr> MakeColumnRef(std::string table, std::string column);
std::unique_ptr<Expr> MakeBinary(BinaryOp op, std::unique_ptr<Expr> l,
                                 std::unique_ptr<Expr> r);
std::unique_ptr<Expr> MakeUnary(UnaryOp op, std::unique_ptr<Expr> operand);

/// Join types. Semi/anti-semi joins never come from the parser directly —
/// the Prepare phase creates them from EXISTS/IN subqueries, exactly as
/// MySQL does.
enum class JoinType { kInner, kCross, kLeft, kSemi, kAntiSemi };

/// Name of a join type ("inner", "left", "semi", ...).
const char* JoinTypeName(JoinType t);

/// A FROM-clause element: base table, derived table (subquery in FROM or a
/// CTE reference) or a join nest. Base/derived leaves play the role of
/// MySQL's TABLE_LIST entries: after binding each carries a unique `ref_id`
/// and a back-pointer to its owning query block, which the Orca plan
/// converter relies on (Section 4.2.1).
struct TableRef {
  enum class Kind { kBase, kDerived, kJoin };

  Kind kind = Kind::kBase;

  // kBase
  std::string table_name;
  std::string alias;  ///< effective name; defaults to table_name

  // kDerived (subquery in FROM, or expansion of a CTE reference)
  std::unique_ptr<QueryBlock> derived;
  bool from_cte = false;
  std::string cte_name;

  // kJoin
  JoinType join_type = JoinType::kInner;
  std::unique_ptr<TableRef> left;
  std::unique_ptr<TableRef> right;
  std::unique_ptr<Expr> on;

  // Filled by the binder (leaves only).
  int ref_id = -1;
  const TableDef* table = nullptr;
  QueryBlock* owner = nullptr;  ///< containing query block (TABLE_LIST link)

  std::unique_ptr<TableRef> Clone() const;
};

/// SELECT-list item.
struct SelectItem {
  std::unique_ptr<Expr> expr;
  std::string alias;
};

/// ORDER BY item.
struct OrderItem {
  std::unique_ptr<Expr> expr;
  bool ascending = true;
};

/// Common table expression definition (non-recursive only; the paper notes
/// the same restriction).
struct CteDef {
  std::string name;
  std::unique_ptr<QueryBlock> query;
};

/// One SELECT block. MySQL optimizes one block at a time; the integration
/// keeps the block structure intact and lets Orca optimize within it
/// (Section 9 "conservative approach").
struct QueryBlock {
  std::vector<CteDef> ctes;
  bool distinct = false;
  std::vector<SelectItem> select_items;
  /// Comma-separated FROM list; each element may itself be a join tree.
  std::vector<std::unique_ptr<TableRef>> from;
  std::unique_ptr<Expr> where;
  std::vector<std::unique_ptr<Expr>> group_by;
  std::unique_ptr<Expr> having;
  std::vector<OrderItem> order_by;
  int64_t limit = -1;  ///< -1 = no LIMIT
  int64_t offset = 0;

  /// UNION [ALL] continuation (same-arity block), or null.
  std::unique_ptr<QueryBlock> union_next;
  bool union_all = false;

  /// Filled by the binder: unique id within the statement.
  int block_id = -1;

  std::unique_ptr<QueryBlock> Clone() const;

  /// Collects the base/derived leaves of the FROM clause (left-to-right).
  std::vector<TableRef*> Leaves();
  std::vector<const TableRef*> Leaves() const;
};

/// Top-level SQL statement.
struct Statement {
  enum class Kind {
    kSelect,
    kCreateTable,
    kCreateIndex,
    kInsert,
    kAnalyze,
    kExplain,            ///< EXPLAIN <select>
    kExplainAnalyze,     ///< EXPLAIN ANALYZE <select>
    kShowStatus,         ///< SHOW STATUS [LIKE 'pattern']
    kShowDigests,        ///< SHOW DIGESTS [LIKE 'pattern']
    kShowFlightRecorder, ///< SHOW FLIGHT RECORDER
    kShowProfile,        ///< SHOW PROFILE FOR <event seq>
  };

  Kind kind = Kind::kSelect;

  // kSelect / kExplain / kExplainAnalyze
  std::unique_ptr<QueryBlock> select;

  // kCreateTable
  std::string table_name;
  std::vector<ColumnDef> columns;
  std::vector<int> primary_key;  ///< column positions, may be empty

  // kCreateIndex
  IndexDef index;

  // kInsert
  std::vector<std::vector<std::unique_ptr<Expr>>> insert_rows;

  // kAnalyze: table_name reused.
  // kShowStatus / kShowDigests: table_name reused for the LIKE pattern
  // (empty = all).

  // kShowProfile: the flight-recorder event sequence number.
  int64_t profile_seq = 0;
};

}  // namespace taurus

#endif  // TAURUS_PARSER_AST_H_
