#ifndef TAURUS_MYOPT_SKELETON_H_
#define TAURUS_MYOPT_SKELETON_H_

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "parser/ast.h"

namespace taurus {

/// Table access methods a skeleton plan can prescribe.
enum class AccessMethod { kTableScan, kIndexRange, kIndexLookup };

/// Join methods a skeleton plan can prescribe.
enum class JoinMethod { kNestedLoop, kHash };

/// One node of a skeleton plan: the "most important plan elements" — join
/// order (tree shape), join method per join, and access method per table —
/// with everything else (predicates, aggregation, ordering, limits) left to
/// plan refinement (Section 3). MySQL's native skeleton is the
/// best-position array (left-deep); this tree form is the paper's "slightly
/// extended" variant that can also express Orca's bushy plans (Section 7
/// item 1).
struct SkeletonNode {
  bool is_join = false;

  // Leaf.
  TableRef* leaf = nullptr;
  AccessMethod access = AccessMethod::kTableScan;
  int index_id = -1;  ///< index within leaf->table->indexes

  // Join.
  JoinMethod method = JoinMethod::kNestedLoop;
  JoinType join_type = JoinType::kInner;
  std::unique_ptr<SkeletonNode> left;
  std::unique_ptr<SkeletonNode> right;

  // Optimizer estimates carried into EXPLAIN (Section 4.2.2).
  double est_rows = 0.0;
  double est_cost = 0.0;

  /// Pre-order leaves — MySQL's best-position array for this (sub)tree.
  void BestPositionArray(std::vector<const SkeletonNode*>* out) const {
    if (is_join) {
      left->BestPositionArray(out);
      right->BestPositionArray(out);
    } else {
      out->push_back(this);
    }
  }
};

/// A skeleton plan for one query block plus the recursively-optimized
/// skeletons of its derived tables, expression subqueries and UNION arms.
struct BlockSkeleton {
  QueryBlock* block = nullptr;
  std::unique_ptr<SkeletonNode> root;  ///< null when the block has no FROM

  /// Estimated output rows / total cost for the block.
  double out_rows = 1.0;
  double cost = 0.0;

  /// Aggregation method hint: true = sort + streaming aggregate,
  /// false = hash aggregate.
  bool stream_agg = false;

  std::map<const TableRef*, std::unique_ptr<BlockSkeleton>> derived;
  std::map<const Expr*, std::unique_ptr<BlockSkeleton>> subqueries;
  std::vector<std::unique_ptr<BlockSkeleton>> union_arms;
};

/// Renders the best-position arrays of a skeleton (one line per block,
/// recursing into derived tables), e.g.
/// "block 0: [part(scan), derived_1_2(scan), lineitem(ref:lineitem_fk2)]".
/// Used by tests and the Fig. 7 reproduction.
std::string RenderBestPositionArrays(const BlockSkeleton& skel);

}  // namespace taurus

#endif  // TAURUS_MYOPT_SKELETON_H_
