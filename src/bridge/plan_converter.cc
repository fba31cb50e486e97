#include "bridge/plan_converter.h"

#include "common/fault_injector.h"

namespace taurus {

namespace {

/// Pass 1: pre-order leaf walk with query-block discovery through the
/// TABLE_LIST (owner) links.
Status DiscoverQueryBlocks(const OrcaPhysicalOp& op, const QueryBlock& block,
                           int* leaves_seen) {
  if (op.leaf != nullptr && op.children.empty()) {
    ++*leaves_seen;
    if (op.leaf->owner != &block) {
      // Orca rearranged the query-block structure — abort the conversion
      // so the caller can resort to the MySQL optimizer (Section 4.2.1).
      return Status::NotSupported(
          "Orca plan crosses query-block boundaries; aborting conversion");
    }
  }
  for (const auto& child : op.children) {
    TAURUS_RETURN_IF_ERROR(DiscoverQueryBlocks(*child, block, leaves_seen));
  }
  return Status::OK();
}

/// Pass 2: structural conversion.
Result<std::unique_ptr<SkeletonNode>> Convert(const OrcaPhysicalOp& op,
                                              const OrcaConfig& config) {
  auto node = std::make_unique<SkeletonNode>();
  node->est_rows = op.rows;
  node->est_cost = op.cost;
  switch (op.kind) {
    case OrcaPhysicalOp::Kind::kTableScan:
      node->is_join = false;
      node->leaf = op.leaf;
      node->access = AccessMethod::kTableScan;
      return node;
    case OrcaPhysicalOp::Kind::kIndexRangeScan:
      node->is_join = false;
      node->leaf = op.leaf;
      node->access = AccessMethod::kIndexRange;
      node->index_id = op.index_id;
      return node;
    case OrcaPhysicalOp::Kind::kIndexLookup:
      node->is_join = false;
      node->leaf = op.leaf;
      node->access = AccessMethod::kIndexLookup;
      node->index_id = op.index_id;
      return node;
    case OrcaPhysicalOp::Kind::kNLJoin: {
      node->is_join = true;
      node->method = JoinMethod::kNestedLoop;
      node->join_type = op.join_type;
      TAURUS_ASSIGN_OR_RETURN(node->left, Convert(*op.children[0], config));
      TAURUS_ASSIGN_OR_RETURN(node->right, Convert(*op.children[1], config));
      return node;
    }
    case OrcaPhysicalOp::Kind::kHashJoin: {
      node->is_join = true;
      node->method = JoinMethod::kHash;
      node->join_type = op.join_type;
      TAURUS_ASSIGN_OR_RETURN(auto left, Convert(*op.children[0], config));
      TAURUS_ASSIGN_OR_RETURN(auto right, Convert(*op.children[1], config));
      if (op.join_type == JoinType::kInner && config.flip_inner_hash_build) {
        // Orca: probe left / build right. MySQL inner hash joins build
        // from the LEFT input, so swap the children to keep Orca's chosen
        // build side (Section 7 item 2).
        node->left = std::move(right);
        node->right = std::move(left);
      } else {
        node->left = std::move(left);
        node->right = std::move(right);
      }
      return node;
    }
  }
  return Status::Internal("unreachable physical kind");
}

}  // namespace

Result<std::unique_ptr<SkeletonNode>> ConvertOrcaPlanToSkeleton(
    const OrcaPhysicalOp& plan, const QueryBlock& block,
    const OrcaConfig& config) {
  TAURUS_FAULT_POINT("bridge.plan_convert");
  int leaves_seen = 0;
  TAURUS_RETURN_IF_ERROR(DiscoverQueryBlocks(plan, block, &leaves_seen));
  if (leaves_seen != static_cast<int>(block.Leaves().size())) {
    return Status::NotSupported(
        "Orca plan does not cover the block's tables; aborting conversion");
  }
  return Convert(plan, config);
}

}  // namespace taurus
