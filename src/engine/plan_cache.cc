#include "engine/plan_cache.h"

#include <algorithm>
#include <utility>

#include "common/fault_injector.h"

namespace taurus {

namespace {

/// Walks a block's own expressions (not into subquery bodies) collecting
/// subquery expression nodes in a deterministic order. Freeze and Thaw
/// both use this enumerator over structurally identical ASTs, so the
/// ordinal of a subquery is stable across re-parses.
void CollectSubqueryExprs(Expr* e, std::vector<Expr*>* out) {
  if (e->subquery) out->push_back(e);
  for (auto& c : e->children) CollectSubqueryExprs(c.get(), out);
}

void CollectBlockSubqueries(QueryBlock* block, std::vector<Expr*>* out) {
  for (auto& item : block->select_items) {
    CollectSubqueryExprs(item.expr.get(), out);
  }
  if (block->where) CollectSubqueryExprs(block->where.get(), out);
  for (auto& g : block->group_by) CollectSubqueryExprs(g.get(), out);
  if (block->having) CollectSubqueryExprs(block->having.get(), out);
  for (auto& o : block->order_by) CollectSubqueryExprs(o.expr.get(), out);
  std::vector<TableRef*> stack;
  for (auto& t : block->from) stack.push_back(t.get());
  while (!stack.empty()) {
    TableRef* r = stack.back();
    stack.pop_back();
    if (r->kind == TableRef::Kind::kJoin) {
      if (r->on) CollectSubqueryExprs(r->on.get(), out);
      stack.push_back(r->left.get());
      stack.push_back(r->right.get());
    }
  }
}

Result<std::unique_ptr<FrozenSkeletonNode>> FreezeNode(
    const SkeletonNode& node) {
  auto out = std::make_unique<FrozenSkeletonNode>();
  out->is_join = node.is_join;
  out->est_rows = node.est_rows;
  out->est_cost = node.est_cost;
  if (node.is_join) {
    out->method = node.method;
    out->join_type = node.join_type;
    TAURUS_ASSIGN_OR_RETURN(out->left, FreezeNode(*node.left));
    TAURUS_ASSIGN_OR_RETURN(out->right, FreezeNode(*node.right));
    return out;
  }
  if (node.leaf == nullptr || node.leaf->ref_id < 0) {
    return Status::Internal("freeze: skeleton leaf has no ref_id");
  }
  out->leaf_ref_id = node.leaf->ref_id;
  out->access = node.access;
  out->index_id = node.index_id;
  return out;
}

Result<FrozenBlockSkeleton> FreezeBlock(const BlockSkeleton& skel) {
  if (skel.block == nullptr) {
    return Status::Internal("freeze: skeleton has no block");
  }
  FrozenBlockSkeleton out;
  out.out_rows = skel.out_rows;
  out.cost = skel.cost;
  out.stream_agg = skel.stream_agg;
  if (skel.root != nullptr) {
    TAURUS_ASSIGN_OR_RETURN(out.root, FreezeNode(*skel.root));
  }
  // Derived-table sub-skeletons, keyed by the leaf's ref_id (std::map over
  // pointers would be a nondeterministic order; sort by ref_id instead).
  for (const auto& [leaf, sub] : skel.derived) {
    if (leaf == nullptr || leaf->ref_id < 0) {
      return Status::Internal("freeze: derived leaf has no ref_id");
    }
    TAURUS_ASSIGN_OR_RETURN(auto frozen_sub, FreezeBlock(*sub));
    out.derived.emplace_back(leaf->ref_id, std::move(frozen_sub));
  }
  std::sort(out.derived.begin(), out.derived.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  // Expression subqueries, by canonical traversal ordinal. Every enumerated
  // subquery must have a sub-skeleton and vice versa, else the positional
  // pairing at thaw time would be wrong.
  std::vector<Expr*> sub_exprs;
  CollectBlockSubqueries(skel.block, &sub_exprs);
  if (sub_exprs.size() != skel.subqueries.size()) {
    return Status::Internal("freeze: subquery count mismatch");
  }
  for (Expr* e : sub_exprs) {
    auto it = skel.subqueries.find(e);
    if (it == skel.subqueries.end()) {
      return Status::Internal("freeze: subquery skeleton missing");
    }
    TAURUS_ASSIGN_OR_RETURN(auto frozen_sub, FreezeBlock(*it->second));
    out.subqueries.push_back(std::move(frozen_sub));
  }
  for (const auto& arm : skel.union_arms) {
    TAURUS_ASSIGN_OR_RETURN(auto frozen_arm, FreezeBlock(*arm));
    out.union_arms.push_back(std::move(frozen_arm));
  }
  return out;
}

Result<std::unique_ptr<SkeletonNode>> ThawNode(const FrozenSkeletonNode& node,
                                               const QueryBlock* block,
                                               const BoundStatement& stmt) {
  auto out = std::make_unique<SkeletonNode>();
  out->is_join = node.is_join;
  out->est_rows = node.est_rows;
  out->est_cost = node.est_cost;
  if (node.is_join) {
    if (!node.left || !node.right) {
      return Status::Internal("thaw: join node missing children");
    }
    out->method = node.method;
    out->join_type = node.join_type;
    TAURUS_ASSIGN_OR_RETURN(out->left, ThawNode(*node.left, block, stmt));
    TAURUS_ASSIGN_OR_RETURN(out->right, ThawNode(*node.right, block, stmt));
    return out;
  }
  if (node.leaf_ref_id < 0 || node.leaf_ref_id >= stmt.num_refs) {
    return Status::Internal("thaw: leaf ref_id out of range");
  }
  TableRef* leaf = stmt.leaves[static_cast<size_t>(node.leaf_ref_id)];
  if (leaf == nullptr || leaf->kind == TableRef::Kind::kJoin ||
      leaf->owner != block) {
    return Status::Internal("thaw: leaf ref does not match block structure");
  }
  if (node.access != AccessMethod::kTableScan) {
    if (leaf->table == nullptr || node.index_id < 0 ||
        node.index_id >= static_cast<int>(leaf->table->indexes.size())) {
      return Status::Internal("thaw: index id out of range");
    }
  }
  out->leaf = leaf;
  out->access = node.access;
  out->index_id = node.index_id;
  return out;
}

Result<std::unique_ptr<BlockSkeleton>> ThawBlock(
    const FrozenBlockSkeleton& frozen, QueryBlock* block,
    const BoundStatement& stmt) {
  auto out = std::make_unique<BlockSkeleton>();
  out->block = block;
  out->out_rows = frozen.out_rows;
  out->cost = frozen.cost;
  out->stream_agg = frozen.stream_agg;
  if ((frozen.root != nullptr) != !block->from.empty()) {
    return Status::Internal("thaw: FROM shape mismatch");
  }
  if (frozen.root != nullptr) {
    TAURUS_ASSIGN_OR_RETURN(out->root, ThawNode(*frozen.root, block, stmt));
  }
  for (const auto& [ref_id, sub] : frozen.derived) {
    if (ref_id < 0 || ref_id >= stmt.num_refs) {
      return Status::Internal("thaw: derived ref_id out of range");
    }
    TableRef* leaf = stmt.leaves[static_cast<size_t>(ref_id)];
    if (leaf == nullptr || leaf->kind != TableRef::Kind::kDerived ||
        leaf->owner != block || leaf->derived == nullptr) {
      return Status::Internal("thaw: derived ref does not match structure");
    }
    TAURUS_ASSIGN_OR_RETURN(auto live_sub,
                            ThawBlock(sub, leaf->derived.get(), stmt));
    out->derived[leaf] = std::move(live_sub);
  }
  std::vector<Expr*> sub_exprs;
  CollectBlockSubqueries(block, &sub_exprs);
  if (sub_exprs.size() != frozen.subqueries.size()) {
    return Status::Internal("thaw: subquery count mismatch");
  }
  for (size_t i = 0; i < sub_exprs.size(); ++i) {
    TAURUS_ASSIGN_OR_RETURN(
        auto live_sub,
        ThawBlock(frozen.subqueries[i], sub_exprs[i]->subquery.get(), stmt));
    out->subqueries[sub_exprs[i]] = std::move(live_sub);
  }
  // The union continuation chain is recursive: union_arms holds at most the
  // immediate next arm, which carries its own continuation.
  if (frozen.union_arms.size() !=
      static_cast<size_t>(block->union_next != nullptr ? 1 : 0)) {
    return Status::Internal("thaw: union shape mismatch");
  }
  for (const auto& arm : frozen.union_arms) {
    TAURUS_ASSIGN_OR_RETURN(auto live_arm,
                            ThawBlock(arm, block->union_next.get(), stmt));
    out->union_arms.push_back(std::move(live_arm));
  }
  return out;
}

}  // namespace

Result<FrozenBlockSkeleton> FreezeSkeleton(const BlockSkeleton& skel) {
  TAURUS_FAULT_POINT("plan_cache.freeze");
  return FreezeBlock(skel);
}

Result<std::unique_ptr<BlockSkeleton>> ThawSkeleton(
    const FrozenBlockSkeleton& frozen, const BoundStatement& stmt) {
  TAURUS_FAULT_POINT("plan_cache.thaw");
  return ThawBlock(frozen, stmt.block.get(), stmt);
}

std::shared_ptr<const PlanCacheEntry> PlanCache::Lookup(
    const std::string& key, uint64_t schema_version, uint64_t stats_version) {
  uint64_t invalidated_fingerprint = 0;
  const char* invalidation_cause = nullptr;
  {
    MutexLock lock(&mu_);
    auto it = index_.find(key);
    if (it == index_.end()) {
      ++stats_.misses;
      return nullptr;
    }
    const PlanCacheEntry& entry = *it->second->second;
    bool schema_stale = entry.schema_version != schema_version;
    if (!schema_stale && entry.stats_version == stats_version) {
      lru_.splice(lru_.begin(), lru_, it->second);
      ++stats_.hits;
      return it->second->second;
    }
    // Stale entry: compiled against an older catalog (DDL/ANALYZE happened
    // since). Which stamp moved decides the digest plan-epoch cause.
    invalidation_cause = schema_stale ? "ddl" : "analyze";
    invalidated_fingerprint = entry.fingerprint;
    ++stats_.invalidations;
    ++stats_.misses;
    lru_.erase(it->second);
    index_.erase(it);
  }
  // The hook runs outside the cache lock: it feeds the leaf-ranked digest
  // store, and the invalidation is already committed above.
  if (invalidation_hook_ != nullptr && invalidated_fingerprint != 0) {
    invalidation_hook_(invalidated_fingerprint, invalidation_cause);
  }
  return nullptr;
}

void PlanCache::Insert(const std::string& key, PlanCacheEntry entry,
                       std::optional<size_t> capacity) {
  auto node = std::make_shared<const PlanCacheEntry>(std::move(entry));
  MutexLock lock(&mu_);
  if (capacity.has_value()) capacity_ = *capacity;
  auto it = index_.find(key);
  if (it != index_.end()) {
    // Replace in place; readers holding the old shared_ptr keep a valid
    // (if superseded) entry.
    it->second->second = std::move(node);
    lru_.splice(lru_.begin(), lru_, it->second);
  } else if (capacity_ > 0) {
    lru_.emplace_front(key, std::move(node));
    index_.emplace(key, lru_.begin());
    ++stats_.insertions;
  }
  EvictOverCapacityLocked();
}

void PlanCache::EvictOverCapacityLocked() {
  while (lru_.size() > capacity_) {
    index_.erase(lru_.back().first);
    lru_.pop_back();
    ++stats_.evictions;
  }
}

void PlanCache::Clear() {
  MutexLock lock(&mu_);
  index_.clear();
  lru_.clear();
}

void PlanCache::set_capacity(size_t capacity) {
  MutexLock lock(&mu_);
  capacity_ = capacity;
  EvictOverCapacityLocked();
}

size_t PlanCache::capacity() const {
  MutexLock lock(&mu_);
  return capacity_;
}

size_t PlanCache::size() const {
  MutexLock lock(&mu_);
  return lru_.size();
}

PlanCacheStats PlanCache::stats() const {
  MutexLock lock(&mu_);
  return stats_;
}

void PlanCache::ResetStats() {
  MutexLock lock(&mu_);
  stats_ = PlanCacheStats{};
}

}  // namespace taurus
