#include "exec/block_executor.h"

#include <algorithm>
#include <atomic>
#include <bit>
#include <cmath>
#include <cstdint>
#include <memory>
#include <set>
#include <type_traits>
#include <unordered_map>

#include "common/strings.h"
#include "common/thread_pool.h"
#include "exec/batch_executor.h"
#include "exec/exec_internal.h"
#include "exec/expr_eval.h"
#include "exec/vector_ops.h"

namespace taurus {

std::vector<int> SubtreeRefs(const PhysOp& op) {
  std::vector<const PhysOp*> leaves;
  op.CollectLeaves(&leaves);
  std::vector<int> refs;
  refs.reserve(leaves.size());
  for (const PhysOp* leaf : leaves) refs.push_back(leaf->leaf->ref_id);
  return refs;
}

void ClearSlots(Frame* frame, const std::vector<int>& refs) {
  for (int r : refs) (*frame)[static_cast<size_t>(r)] = nullptr;
}

std::vector<int> UnstableSlots(const PhysOp& op, bool worker_shard) {
  std::vector<const PhysOp*> leaves;
  op.CollectLeaves(&leaves);
  std::vector<int> slots;
  for (const PhysOp* leaf : leaves) {
    // Every other leaf binds TableData rows, which outlive the query's
    // operators; only derived tables materialize rows of their own.
    if (leaf->kind == PhysOp::Kind::kDerivedScan &&
        (leaf->invalidate_on_rebind || worker_shard)) {
      slots.push_back(leaf->leaf->ref_id);
    }
  }
  return slots;
}

// ---------------------------------------------------------------------------
// Frame iterators
// ---------------------------------------------------------------------------

namespace {

class TableScanIter : public FrameIter {
 public:
  explicit TableScanIter(const PhysOp* op) : op_(op) {}

  /// Restricts the scan to rows [begin, end): the morsel-driven executor
  /// drives one worker-private instance per chain, repositioning it with
  /// SetRange + Open for each morsel it claims.
  void SetRange(size_t begin, size_t end) {
    ranged_ = true;
    range_begin_ = begin;
    range_end_ = end;
  }

  const PhysOp* Op() const { return op_; }

  Status Open(Frame* frame, ExecContext* ctx) override {
    (void)frame;
    data_ = ctx->storage->Get(op_->leaf->table->id);
    if (data_ == nullptr) {
      return Status::Internal("no storage for table " + op_->leaf->table_name);
    }
    pos_ = ranged_ ? range_begin_ : 0;
    end_ = ranged_ ? std::min(range_end_, data_->NumRows()) : data_->NumRows();
    return Status::OK();
  }

  Result<bool> Next(Frame* frame, ExecContext* ctx) override {
    size_t slot = static_cast<size_t>(op_->leaf->ref_id);
    while (pos_ < end_) {
      (*frame)[slot] = &data_->row(pos_++);
      TAURUS_RETURN_IF_ERROR(ctx->ChargeScannedRow());
      TAURUS_ASSIGN_OR_RETURN(bool ok,
                              EvalConjuncts(op_->filters, *frame, ctx));
      if (ok) return true;
    }
    (*frame)[slot] = nullptr;
    return false;
  }

 private:
  const PhysOp* op_;
  const TableData* data_ = nullptr;
  size_t pos_ = 0;
  size_t end_ = 0;
  bool ranged_ = false;
  size_t range_begin_ = 0, range_end_ = 0;
};

class IndexRangeIter : public FrameIter {
 public:
  explicit IndexRangeIter(const PhysOp* op) : op_(op) {}

  Status Open(Frame* frame, ExecContext* ctx) override {
    data_ = ctx->storage->Get(op_->leaf->table->id);
    if (data_ == nullptr || op_->index_id < 0 ||
        op_->index_id >= data_->NumIndexes()) {
      return Status::Internal("bad index range target");
    }
    const OrderedIndex& index = data_->index(op_->index_id);
    Value lo, hi;
    const Value* lo_ptr = nullptr;
    const Value* hi_ptr = nullptr;
    if (op_->range_lo != nullptr) {
      TAURUS_ASSIGN_OR_RETURN(lo, EvalExpr(*op_->range_lo, *frame, ctx));
      lo_ptr = &lo;
    }
    if (op_->range_hi != nullptr) {
      TAURUS_ASSIGN_OR_RETURN(hi, EvalExpr(*op_->range_hi, *frame, ctx));
      hi_ptr = &hi;
    }
    auto [b, e] = index.Range(lo_ptr, op_->lo_inclusive, hi_ptr,
                              op_->hi_inclusive);
    begin_ = b;
    end_ = e;
    pos_ = b;
    return Status::OK();
  }

  Result<bool> Next(Frame* frame, ExecContext* ctx) override {
    size_t slot = static_cast<size_t>(op_->leaf->ref_id);
    const OrderedIndex& index = data_->index(op_->index_id);
    while (pos_ < end_) {
      (*frame)[slot] = &data_->row(index.row_id(pos_++));
      TAURUS_RETURN_IF_ERROR(ctx->ChargeScannedRow());
      TAURUS_ASSIGN_OR_RETURN(bool ok,
                              EvalConjuncts(op_->filters, *frame, ctx));
      if (ok) return true;
    }
    (*frame)[slot] = nullptr;
    return false;
  }

 private:
  const PhysOp* op_;
  const TableData* data_ = nullptr;
  size_t begin_ = 0, end_ = 0, pos_ = 0;
};

class IndexLookupIter : public FrameIter {
 public:
  explicit IndexLookupIter(const PhysOp* op) : op_(op) {}

  Status Open(Frame* frame, ExecContext* ctx) override {
    data_ = ctx->storage->Get(op_->leaf->table->id);
    if (data_ == nullptr || op_->index_id < 0 ||
        op_->index_id >= data_->NumIndexes()) {
      return Status::Internal("bad index lookup target");
    }
    key_.resize(op_->lookup_keys.size());
    bool has_null = false;
    for (size_t k = 0; k < key_.size(); ++k) {
      TAURUS_ASSIGN_OR_RETURN(
          key_[k], EvalExpr(*op_->lookup_keys[k], *frame, ctx));
      if (key_[k].is_null()) has_null = true;
    }
    ++ctx->index_lookups;
    if (has_null) {  // equality with NULL never matches
      begin_ = end_ = pos_ = 0;
      empty_ = true;
      return Status::OK();
    }
    empty_ = false;
    auto [b, e] = data_->index(op_->index_id).EqualRange(key_);
    begin_ = b;
    end_ = e;
    pos_ = b;
    return Status::OK();
  }

  Result<bool> Next(Frame* frame, ExecContext* ctx) override {
    size_t slot = static_cast<size_t>(op_->leaf->ref_id);
    if (!empty_) {
      const OrderedIndex& index = data_->index(op_->index_id);
      while (pos_ < end_) {
        (*frame)[slot] = &data_->row(index.row_id(pos_++));
        TAURUS_RETURN_IF_ERROR(ctx->ChargeScannedRow());
        TAURUS_ASSIGN_OR_RETURN(
            bool ok, EvalConjuncts(op_->filters, *frame, ctx));
        if (ok) return true;
      }
    }
    (*frame)[slot] = nullptr;
    return false;
  }

 private:
  const PhysOp* op_;
  const TableData* data_ = nullptr;
  size_t begin_ = 0, end_ = 0, pos_ = 0;
  bool empty_ = false;
  Row key_;  ///< reused per Open
};

class DerivedScanIter : public FrameIter {
 public:
  explicit DerivedScanIter(const PhysOp* op) : op_(op) {}

  Status Open(Frame* frame, ExecContext* ctx) override {
    if (op_->invalidate_on_rebind) {
      if (materialized_) ++ctx->rebinds;
      TAURUS_ASSIGN_OR_RETURN(rows_,
                              ExecuteBlock(*op_->derived_plan, *frame, ctx));
      materialized_ = true;
    } else if (!materialized_) {
      // Non-correlated derived tables (incl. CTE copies) materialize once
      // per query, shared across subplan re-executions.
      auto it = ctx->derived_cache.find(op_->derived_plan);
      if (it == ctx->derived_cache.end()) {
        TAURUS_ASSIGN_OR_RETURN(
            std::vector<Row> rows,
            ExecuteBlock(*op_->derived_plan, *frame, ctx));
        it = ctx->derived_cache.emplace(op_->derived_plan, std::move(rows))
                 .first;
      }
      cached_rows_ = &it->second;
      materialized_ = true;
    }
    pos_ = 0;
    return Status::OK();
  }

  Result<bool> Next(Frame* frame, ExecContext* ctx) override {
    size_t slot = static_cast<size_t>(op_->leaf->ref_id);
    const std::vector<Row>& rows =
        cached_rows_ != nullptr ? *cached_rows_ : rows_;
    while (pos_ < rows.size()) {
      (*frame)[slot] = &rows[pos_++];
      TAURUS_ASSIGN_OR_RETURN(bool ok,
                              EvalConjuncts(op_->filters, *frame, ctx));
      if (ok) return true;
    }
    (*frame)[slot] = nullptr;
    return false;
  }

 private:
  const PhysOp* op_;
  std::vector<Row> rows_;
  const std::vector<Row>* cached_rows_ = nullptr;
  size_t pos_ = 0;
  bool materialized_ = false;
};

class FilterIter : public FrameIter {
 public:
  FilterIter(const PhysOp* op, std::unique_ptr<FrameIter> child)
      : op_(op), child_(std::move(child)) {}

  Status Open(Frame* frame, ExecContext* ctx) override {
    return child_->Open(frame, ctx);
  }

  Result<bool> Next(Frame* frame, ExecContext* ctx) override {
    while (true) {
      TAURUS_ASSIGN_OR_RETURN(bool has, child_->Next(frame, ctx));
      if (!has) return false;
      TAURUS_ASSIGN_OR_RETURN(bool ok,
                              EvalConjuncts(op_->conds, *frame, ctx));
      if (ok) return true;
    }
  }

 private:
  const PhysOp* op_;
  std::unique_ptr<FrameIter> child_;
};

class NLJoinIter : public FrameIter {
 public:
  NLJoinIter(const PhysOp* op, std::unique_ptr<FrameIter> left,
             std::unique_ptr<FrameIter> right)
      : op_(op),
        left_(std::move(left)),
        right_(std::move(right)),
        right_refs_(SubtreeRefs(*op->right)) {}

  Status Open(Frame* frame, ExecContext* ctx) override {
    TAURUS_RETURN_IF_ERROR(left_->Open(frame, ctx));
    have_left_ = false;
    return Status::OK();
  }

  Result<bool> Next(Frame* frame, ExecContext* ctx) override {
    const JoinType jt = op_->join_type;
    while (true) {
      if (!have_left_) {
        TAURUS_ASSIGN_OR_RETURN(bool has, left_->Next(frame, ctx));
        if (!has) return false;
        have_left_ = true;
        matched_ = false;
        TAURUS_RETURN_IF_ERROR(right_->Open(frame, ctx));  // rebind
      }
      while (true) {
        TAURUS_ASSIGN_OR_RETURN(bool has, right_->Next(frame, ctx));
        if (!has) break;
        TAURUS_ASSIGN_OR_RETURN(bool ok,
                                EvalConjuncts(op_->conds, *frame, ctx));
        if (!ok) continue;
        matched_ = true;
        if (jt == JoinType::kSemi) {
          ClearSlots(frame, right_refs_);
          have_left_ = false;
          return true;
        }
        if (jt == JoinType::kAntiSemi) break;  // reject this left row
        return true;  // inner / cross / left
      }
      // Right side exhausted (or anti-semi matched).
      bool emit_unmatched =
          (jt == JoinType::kLeft || jt == JoinType::kAntiSemi) && !matched_;
      have_left_ = false;
      if (emit_unmatched) {
        ClearSlots(frame, right_refs_);  // NULL-extend / project left only
        return true;
      }
    }
  }

 private:
  const PhysOp* op_;
  std::unique_ptr<FrameIter> left_;
  std::unique_ptr<FrameIter> right_;
  std::vector<int> right_refs_;
  bool have_left_ = false;
  bool matched_ = false;
};

}  // namespace

// ---------------------------------------------------------------------------
// Hash join
// ---------------------------------------------------------------------------

/// Convention: the build side is the right child — except for INNER hash
/// joins, where (matching the MySQL quirk the paper reports in Section 7
/// item 2) the BUILD side is the LEFT child and the probe side the right.
/// The Orca plan converter flips Orca's children for inner hash joins so
/// that Orca's intended build side lands on the left.
HashJoinLayout MakeHashJoinLayout(const PhysOp& op) {
  HashJoinLayout layout;
  layout.build_is_left = (op.join_type == JoinType::kInner ||
                          op.join_type == JoinType::kCross);
  layout.build_refs =
      SubtreeRefs(layout.build_is_left ? *op.child : *op.right);
  for (const auto& [l, r] : op.hash_keys) {
    layout.build_keys.push_back(layout.build_is_left ? l : r);
    layout.probe_keys.push_back(layout.build_is_left ? r : l);
  }
  return layout;
}

void HashJoinShared::BuildTable() {
  const size_t n = hashes.size();
  int bits = 1;  // at least two buckets keep the shift below 64
  while ((size_t{1} << bits) < n) ++bits;
  bucket_shift_ = 64 - bits;
  heads.assign(size_t{1} << bits, kNoEntry);
  next.resize(n);
  for (size_t e = 0; e < n; ++e) {
    uint32_t& head = heads[Bucket(hashes[e])];
    next[e] = head;
    head = static_cast<uint32_t>(e);
  }
}

/// Drains `build` into `out`. Keeps only the build subtree's slots per row
/// — the producers' pointers, copying just the UnstableSlots rows — and
/// pre-sizes the entry arrays from the optimizer's cardinality estimate to
/// cut regrowth on large builds.
Status FillHashJoinState(const PhysOp& op, const HashJoinLayout& layout,
                         FrameIter* build, Frame* frame, ExecContext* ctx,
                         HashJoinShared* out) {
  const PhysOp& build_child = layout.build_is_left ? *op.child : *op.right;
  const size_t nk = layout.build_keys.size();
  const size_t nr = layout.build_refs.size();
  out->num_keys = nk;
  out->num_refs = nr;
  out->keys.clear();
  out->rows.clear();
  out->copies.clear();
  out->hashes.clear();
  std::vector<bool> copy(nr, false);  // parallel to build_refs
  for (int s : UnstableSlots(build_child, ctx->is_worker_shard)) {
    auto it = std::find(layout.build_refs.begin(), layout.build_refs.end(), s);
    copy[static_cast<size_t>(it - layout.build_refs.begin())] = true;
  }
  if (build_child.est_rows > 1.0) {
    // Cap the reservation: estimates can be wildly high after bad stats.
    size_t cap = static_cast<size_t>(
        std::min(build_child.est_rows, 16.0 * 1024 * 1024));
    out->keys.reserve(cap * nk);
    out->rows.reserve(cap * nr);
    out->hashes.reserve(cap);
  }
  TAURUS_RETURN_IF_ERROR(build->Open(frame, ctx));
  Row key(nk);
  while (true) {
    TAURUS_ASSIGN_OR_RETURN(bool has, build->Next(frame, ctx));
    if (!has) break;
    bool has_null = false;
    for (size_t k = 0; k < nk; ++k) {
      TAURUS_ASSIGN_OR_RETURN(
          key[k], EvalExpr(*layout.build_keys[k], *frame, ctx));
      if (key[k].is_null()) has_null = true;
    }
    if (has_null) continue;  // NULL keys never join
    if (out->hashes.size() == HashJoinShared::kNoEntry) {
      return Status::ExecutionError("hash join build side too large");
    }
    out->hashes.push_back(HashRow(key));
    out->keys.insert(out->keys.end(), key.begin(), key.end());
    for (size_t j = 0; j < nr; ++j) {
      const Row* row = (*frame)[static_cast<size_t>(layout.build_refs[j])];
      if (row != nullptr && copy[j]) {
        out->copies.push_front(*row);
        row = &out->copies.front();
      }
      out->rows.push_back(row);
    }
  }
  out->BuildTable();
  ClearSlots(frame, layout.build_refs);
  return Status::OK();
}

namespace {

class HashJoinIter : public FrameIter {
 public:
  /// Serial form: owns both children and (re)builds its own hash state on
  /// every Open (a re-Open with new outer bindings must rebuild).
  HashJoinIter(const PhysOp* op, std::unique_ptr<FrameIter> left,
               std::unique_ptr<FrameIter> right)
      : op_(op), layout_(MakeHashJoinLayout(*op)) {
    if (layout_.build_is_left) {
      build_iter_ = std::move(left);
      probe_iter_ = std::move(right);
    } else {
      build_iter_ = std::move(right);
      probe_iter_ = std::move(left);
    }
  }

  /// Parallel worker-clone form: probes a pre-built shared read-only state;
  /// Open only repositions the probe chain.
  HashJoinIter(const PhysOp* op, std::unique_ptr<FrameIter> probe,
               const HashJoinShared* shared)
      : op_(op),
        layout_(MakeHashJoinLayout(*op)),
        probe_iter_(std::move(probe)),
        shared_(shared) {}

  Status Open(Frame* frame, ExecContext* ctx) override {
    if (shared_ == nullptr) {
      TAURUS_RETURN_IF_ERROR(FillHashJoinState(*op_, layout_,
                                               build_iter_.get(), frame, ctx,
                                               &own_state_));
    } else {
      ClearSlots(frame, layout_.build_refs);
    }
    TAURUS_RETURN_IF_ERROR(probe_iter_->Open(frame, ctx));
    have_probe_ = false;
    return Status::OK();
  }

  Result<bool> Next(Frame* frame, ExecContext* ctx) override {
    const JoinType jt = op_->join_type;
    const HashJoinShared& state = shared_ != nullptr ? *shared_ : own_state_;
    while (true) {
      if (!have_probe_) {
        TAURUS_ASSIGN_OR_RETURN(bool has, probe_iter_->Next(frame, ctx));
        if (!has) return false;
        have_probe_ = true;
        matched_ = false;
        candidates_.clear();
        cand_pos_ = 0;
        Row& key = probe_key_;
        key.resize(layout_.probe_keys.size());
        bool has_null = false;
        for (size_t k = 0; k < key.size(); ++k) {
          TAURUS_ASSIGN_OR_RETURN(
              key[k], EvalExpr(*layout_.probe_keys[k], *frame, ctx));
          if (key[k].is_null()) has_null = true;
        }
        if (!has_null) {
          state.FindMatches(
              HashRow(key), [&](size_t k) -> const Value& { return key[k]; },
              &candidates_);
        }
      }
      while (cand_pos_ < candidates_.size()) {
        // Restore the build subtree's slots from the entry.
        const Row* const* rows = state.Rows(candidates_[cand_pos_++]);
        for (size_t j = 0; j < layout_.build_refs.size(); ++j) {
          (*frame)[static_cast<size_t>(layout_.build_refs[j])] = rows[j];
        }
        TAURUS_ASSIGN_OR_RETURN(bool ok,
                                EvalConjuncts(op_->conds, *frame, ctx));
        if (!ok) continue;
        matched_ = true;
        if (jt == JoinType::kSemi) {
          ClearSlots(frame, layout_.build_refs);
          have_probe_ = false;
          return true;
        }
        if (jt == JoinType::kAntiSemi) {
          cand_pos_ = candidates_.size();
          break;
        }
        return true;  // inner / cross / left
      }
      bool emit_unmatched =
          (jt == JoinType::kLeft || jt == JoinType::kAntiSemi) && !matched_;
      have_probe_ = false;
      if (emit_unmatched) {
        ClearSlots(frame, layout_.build_refs);
        return true;
      }
    }
  }

 private:
  const PhysOp* op_;
  HashJoinLayout layout_;
  std::unique_ptr<FrameIter> build_iter_;  ///< null for worker clones
  std::unique_ptr<FrameIter> probe_iter_;
  const HashJoinShared* shared_ = nullptr;  ///< set for worker clones
  HashJoinShared own_state_;                ///< used by the serial form

  bool have_probe_ = false;
  bool matched_ = false;
  Row probe_key_;  ///< reused per probe row
  std::vector<size_t> candidates_;
  size_t cand_pos_ = 0;
};

/// EXPLAIN ANALYZE decorator: records actual rows (Next returning true),
/// loops (Open calls) and inclusive wall time for one plan node. Only
/// instantiated when the context collects actuals, so the plain iterator
/// chain is untouched — and therefore unmeasurable — when analyze is off.
class AnalyzeIter : public FrameIter {
 public:
  AnalyzeIter(const PhysOp* op, std::unique_ptr<FrameIter> inner)
      : op_(op), inner_(std::move(inner)) {}

  Status Open(Frame* frame, ExecContext* ctx) override {
    if (ctx->op_actuals == nullptr) return inner_->Open(frame, ctx);
    OpActual& a = ctx->op_actuals->At(op_);
    ++a.loops;
    const double t0 = ctx->analyze_clock->NowMs();
    Status st = inner_->Open(frame, ctx);
    a.time_ms += ctx->analyze_clock->NowMs() - t0;
    return st;
  }

  Result<bool> Next(Frame* frame, ExecContext* ctx) override {
    if (ctx->op_actuals == nullptr) return inner_->Next(frame, ctx);
    OpActual& a = ctx->op_actuals->At(op_);
    const double t0 = ctx->analyze_clock->NowMs();
    Result<bool> r = inner_->Next(frame, ctx);
    a.time_ms += ctx->analyze_clock->NowMs() - t0;
    if (r.ok() && r.value()) ++a.rows;
    return r;
  }

 private:
  const PhysOp* op_;
  std::unique_ptr<FrameIter> inner_;
};

std::unique_ptr<FrameIter> Analyzed(bool analyze, const PhysOp* op,
                                    std::unique_ptr<FrameIter> iter) {
  if (!analyze || iter == nullptr) return iter;
  return std::make_unique<AnalyzeIter>(op, std::move(iter));
}

}  // namespace

std::unique_ptr<FrameIter> BuildIter(const PhysOp* op, bool analyze,
                                     ExecContext* ctx, bool allow_batch) {
  std::unique_ptr<FrameIter> iter;
  switch (op->kind) {
    case PhysOp::Kind::kTableScan:
      iter = std::make_unique<TableScanIter>(op);
      break;
    case PhysOp::Kind::kIndexRange:
      iter = std::make_unique<IndexRangeIter>(op);
      break;
    case PhysOp::Kind::kIndexLookup:
      iter = std::make_unique<IndexLookupIter>(op);
      break;
    case PhysOp::Kind::kDerivedScan:
      iter = std::make_unique<DerivedScanIter>(op);
      break;
    case PhysOp::Kind::kFilter:
      iter = std::make_unique<FilterIter>(
          op, ChildIter(op->child.get(), analyze, ctx, allow_batch));
      break;
    case PhysOp::Kind::kNLJoin: {
      // The right side is re-opened per left row; semi/anti stop draining
      // it at the first match, so a batch graft there would overcharge the
      // scan budget and skew actuals.
      const JoinType jt = op->join_type;
      const bool right_allow =
          allow_batch && (jt == JoinType::kInner || jt == JoinType::kCross ||
                          jt == JoinType::kLeft);
      iter = std::make_unique<NLJoinIter>(
          op, ChildIter(op->child.get(), analyze, ctx, allow_batch),
          ChildIter(op->right.get(), analyze, ctx, right_allow));
      break;
    }
    case PhysOp::Kind::kHashJoin: {
      // The build side is always drained fully (FillHashJoinState), so it
      // may run batched regardless of how the consumer drains the join.
      const bool build_is_left = (op->join_type == JoinType::kInner ||
                                  op->join_type == JoinType::kCross);
      iter = std::make_unique<HashJoinIter>(
          op,
          ChildIter(op->child.get(), analyze, ctx,
                    build_is_left ? true : allow_batch),
          ChildIter(op->right.get(), analyze, ctx,
                    build_is_left ? allow_batch : true));
      break;
    }
  }
  return Analyzed(analyze, op, std::move(iter));
}

std::unique_ptr<FrameIter> ChildIter(const PhysOp* op, bool analyze,
                                     ExecContext* ctx, bool allow_batch) {
  if (allow_batch) {
    std::unique_ptr<FrameIter> adapter = MakeBatchIterAdapter(op, ctx);
    if (adapter != nullptr) return adapter;
  }
  return BuildIter(op, analyze, ctx, allow_batch);
}

namespace {

// ---------------------------------------------------------------------------
// Aggregation
// ---------------------------------------------------------------------------

/// One aggregate's partial state (SUM/COUNT/AVG/MIN/MAX/STDDEV). Fully
/// mergeable: two partial states over disjoint row sets combine into the
/// state of the union (STDDEV via sum/sumsq), which is what lets the
/// parallel executor aggregate per morsel. A value folds only into the
/// fields its own function reads. A DISTINCT aggregate collects its values
/// in GroupByState's distinct sets instead and folds them when finalized.
struct Accum {
  int64_t count = 0;
  int64_t isum = 0;    ///< SUM over integers
  double sum = 0.0;    ///< SUM / AVG / STDDEV
  double sumsq = 0.0;  ///< STDDEV
  bool int_only = true;
  Value extreme;       ///< MIN / MAX

  /// Folds one non-NULL argument value.
  void Add(AggFunc func, const Value& v) {
    switch (func) {
      case AggFunc::kCountStar:
      case AggFunc::kCount:
        ++count;
        return;
      case AggFunc::kMin:
        if (extreme.is_null() || Value::Compare(v, extreme) < 0) extreme = v;
        return;
      case AggFunc::kMax:
        if (extreme.is_null() || Value::Compare(v, extreme) > 0) extreme = v;
        return;
      case AggFunc::kSum:
        if (v.kind() == Value::Kind::kInt) {
          isum += v.AsInt();
        } else {
          int_only = false;
        }
        break;
      case AggFunc::kAvg:
      case AggFunc::kStddev:
        break;
    }
    ++count;
    const double d = v.AsDouble();
    sum += d;
    if (func == AggFunc::kStddev) sumsq += d * d;
  }

  /// Folds another partial state of the same aggregate (over disjoint
  /// input rows) into this one.
  void Merge(AggFunc func, const Accum& o) {
    count += o.count;
    isum += o.isum;
    sum += o.sum;
    sumsq += o.sumsq;
    int_only = int_only && o.int_only;
    if (!o.extreme.is_null()) Add(func, o.extreme);  // MIN / MAX
  }

  Value Result(AggFunc func) const {
    switch (func) {
      case AggFunc::kCountStar:
      case AggFunc::kCount:
        return Value::Int(count);
      case AggFunc::kSum:
        if (count == 0) return Value::Null();
        return int_only ? Value::Int(isum) : Value::Double(sum);
      case AggFunc::kAvg:
        if (count == 0) return Value::Null();
        return Value::Double(sum / static_cast<double>(count));
      case AggFunc::kMin:
      case AggFunc::kMax:
        return extreme;
      case AggFunc::kStddev: {
        if (count == 0) return Value::Null();
        double n = static_cast<double>(count);
        double var = sumsq / n - (sum / n) * (sum / n);
        return Value::Double(std::sqrt(std::max(var, 0.0)));
      }
    }
    return Value::Null();
  }
};

int CompareRows(const Row& a, const Row& b,
                const std::vector<bool>* ascending = nullptr) {
  for (size_t i = 0; i < a.size(); ++i) {
    int c = Value::Compare(a[i], b[i]);
    // NULLs sort first on ASC (MySQL semantics); flip for DESC.
    if (c != 0) {
      bool asc = ascending == nullptr || (*ascending)[i];
      return asc ? c : -c;
    }
  }
  return 0;
}

/// Per-batch buffers of GroupByState::ConsumeBatch, sized to the batch and
/// reused across batches: one per consuming thread.
struct AggScratch {
  std::vector<uint32_t> gids;      ///< group id per selected row
  std::vector<uint64_t> hashes;    ///< key hash per selected row
  std::vector<BatchValues> keys;   ///< one per group key
  BatchValues values;              ///< the current aggregate's argument
  NumericScratch numeric;          ///< typed arguments and their columns
  Frame frame;                     ///< a new group's representative row
};

/// Hash-aggregation state: groups in first-encounter order plus their
/// accumulators. The serial path runs one instance over all rows; the
/// parallel path runs one per morsel and merges the partials in morsel
/// order, which reproduces the serial group order and representative rows
/// exactly regardless of worker scheduling.
///
/// A batch resolves one group id per selected row through a flat
/// open-addressing index of group ids, then folds each aggregate column by
/// column into one flat accumulator array (agg_exprs.size() per group),
/// with the function chosen once per column. A numeric SUM/AVG/STDDEV
/// argument (IsNumericKernelExpr) folds from a typed vector; others fold
/// Values read in place. Only a new group stores its key, and its
/// representative frame when the block's post-aggregation expressions
/// read one (BlockPlan::group_needs_rep).
class GroupByState {
 public:
  /// `copy_slots`: the frame slots a representative must deep-copy
  /// (UnstableSlots of the block's join tree); the rest are borrowed.
  void Init(const BlockPlan* plan, std::vector<int> copy_slots) {
    plan_ = plan;
    copy_slots_ = std::move(copy_slots);
    keep_rep_ = plan->group_needs_rep;
    ng_ = plan->group_exprs.size();
    na_ = plan->agg_exprs.size();
    key_buf_.resize(ng_);
    distinct_index_.assign(na_, 0);
    typed_.assign(na_, 0);
    nd_ = 0;
    for (size_t a = 0; a < na_; ++a) {
      const Expr& agg = *plan->agg_exprs[a];
      if (agg.agg_distinct) {
        distinct_index_[a] = nd_++;
      } else if (agg.agg_func == AggFunc::kSum ||
                 agg.agg_func == AggFunc::kAvg ||
                 agg.agg_func == AggFunc::kStddev) {
        typed_[a] = IsNumericKernelExpr(*agg.children[0]) ? 1 : 0;
      }
    }
  }

  Status Consume(const Frame& f, ExecContext* ctx) {
    for (size_t g = 0; g < ng_; ++g) {
      TAURUS_ASSIGN_OR_RETURN(key_buf_[g],
                              EvalExpr(*plan_->group_exprs[g], f, ctx));
    }
    auto key_at = [this](size_t g) -> const Value& { return key_buf_[g]; };
    const uint64_t h = HashKey(key_at);
    size_t idx = Find(h, key_at);
    if (idx == kNoGroup) {
      idx = AddGroup(h, key_at);
      if (keep_rep_) reps_.emplace_back(f, copy_slots_);
    }
    for (size_t a = 0; a < na_; ++a) {
      const Expr& agg = *plan_->agg_exprs[a];
      if (agg.agg_func == AggFunc::kCountStar) {
        ++accums_[idx * na_ + a].count;
        continue;
      }
      TAURUS_ASSIGN_OR_RETURN(arg_buf_, EvalExpr(*agg.children[0], f, ctx));
      if (arg_buf_.is_null()) continue;
      if (agg.agg_distinct) {
        distinct_[idx * nd_ + distinct_index_[a]].insert(arg_buf_);
      } else {
        accums_[idx * na_ + a].Add(agg.agg_func, arg_buf_);
      }
    }
    return Status::OK();
  }

  /// Vectorized Consume: group keys are evaluated as whole vectors over
  /// the batch (column and literal leaves read in place, see BatchValues)
  /// and resolved to group ids in selection order; then each aggregate's
  /// argument is evaluated and folded over all rows — same groups, same
  /// encounter order, same representative frames, and each accumulator
  /// sees its values in the same order as row-at-a-time consumption.
  Status ConsumeBatch(const Batch& b, ExecContext* ctx, AggScratch* s) {
    const size_t n = b.sel.size();
    if (n == 0) return Status::OK();
    s->keys.resize(ng_);
    for (size_t g = 0; g < ng_; ++g) {
      TAURUS_RETURN_IF_ERROR(
          EvalBatchValues(*plan_->group_exprs[g], b, ctx, &s->keys[g]));
    }
    // HashKey, one key column at a time.
    s->hashes.assign(n, kHashSeed);
    uint64_t* hashes = s->hashes.data();
    for (size_t g = 0; g < ng_; ++g) {
      const BatchValues& col = s->keys[g];
      for (size_t i = 0; i < n; ++i) {
        hashes[i] = HashCombine(hashes[i], col[i].Hash());
      }
    }
    s->gids.resize(n);
    uint32_t* gids = s->gids.data();
    size_t idx = kNoGroup;
    for (size_t i = 0; i < n; ++i) {
      auto key_at = [s, i](size_t g) -> const Value& { return s->keys[g][i]; };
      // Rows tend to arrive clustered by key, so the previous row's group
      // is tried before the index.
      if (idx == kNoGroup || hashes_[idx] != hashes[i] ||
          !KeyEquals(idx, key_at)) {
        idx = Find(hashes[i], key_at);
        if (idx == kNoGroup) idx = NewGroup(hashes[i], key_at, b, i, s);
      }
      gids[i] = static_cast<uint32_t>(idx);
    }
    s->numeric.NewBatch();
    for (size_t a = 0; a < na_; ++a) {
      const Expr& agg = *plan_->agg_exprs[a];
      if (agg.agg_func == AggFunc::kCountStar) {
        Accum* acc = accums_.data() + a;
        for (size_t i = 0; i < n; ++i) ++acc[gids[i] * na_].count;
        continue;
      }
      const Expr& arg = *agg.children[0];
      const NumericVector* v =
          typed_[a] != 0 ? EvalNumeric(arg, b, &s->numeric) : nullptr;
      if (v != nullptr) {
        if (v->is_int) {
          FoldNumeric(agg.agg_func, a, v->ints.data(), v->nulls.data(), gids,
                      n);
        } else {
          FoldNumeric(agg.agg_func, a, v->doubles.data(), v->nulls.data(),
                      gids, n);
        }
        continue;
      }
      TAURUS_RETURN_IF_ERROR(EvalBatchValues(arg, b, ctx, &s->values));
      FoldValues(agg, a, s->values, gids, n);
    }
    return Status::OK();
  }

  /// Merges a LATER partial state into this one: existing groups fold their
  /// accumulators; new groups append in `o`'s own encounter order. Merging
  /// morsel partials in morsel order therefore yields exactly the serial
  /// encounter order (and the serial representative frame per group).
  void Merge(GroupByState&& o) {
    for (size_t gi = 0; gi < o.hashes_.size(); ++gi) {
      auto key_at = [this, &o, gi](size_t g) -> const Value& {
        return o.keys_[gi * ng_ + g];
      };
      const uint64_t h = o.hashes_[gi];
      Accum* theirs = o.accums_.data() + gi * na_;
      std::set<Value>* their_sets = o.distinct_.data() + gi * nd_;
      size_t idx = Find(h, key_at);
      if (idx == kNoGroup) {
        idx = AddGroup(h, key_at);
        if (keep_rep_) reps_.push_back(std::move(o.reps_[gi]));
        std::move(theirs, theirs + na_, accums_.data() + idx * na_);
        std::move(their_sets, their_sets + nd_, distinct_.data() + idx * nd_);
        continue;
      }
      Accum* mine = accums_.data() + idx * na_;
      for (size_t a = 0; a < na_; ++a) {
        mine[a].Merge(plan_->agg_exprs[a]->agg_func, theirs[a]);
      }
      for (size_t d = 0; d < nd_; ++d) {
        distinct_[idx * nd_ + d].merge(their_sets[d]);
      }
    }
  }

  bool empty() const { return hashes_.empty(); }

  /// Scalar aggregation over empty input still yields one group.
  void AddEmptyScalarGroup(const Frame& frame) {
    auto no_key = [this](size_t g) -> const Value& { return key_buf_[g]; };
    AddGroup(HashKey(no_key), no_key);
    if (keep_rep_) reps_.emplace_back(frame, copy_slots_);
  }

  /// HAVING, ORDER BY keys and projections over the finished groups, in
  /// encounter order, then the sort. A group's output row (its keys, then
  /// its finalized aggregates) is built in one reused Row, which the bound
  /// post-aggregation references read from frame slot
  /// BlockPlan::group_slot; a result row is materialized only for a group
  /// HAVING keeps. Consumes the groups' keys.
  Status Finish(const Frame& outer, ExecContext* ctx, bool has_order,
                std::vector<Row>* output) {
    const BlockPlan& plan = *plan_;
    const size_t slot = static_cast<size_t>(plan.group_slot);
    Row group_row(ng_ + na_);
    Frame post;
    auto bind_frame = [&](const Frame& base) {
      post.assign(base.begin(), base.end());
      if (post.size() <= slot) post.resize(slot + 1);
      post[slot] = &group_row;
    };
    bind_frame(outer);
    struct OutUnit {
      Row sort_key;
      Row row;
    };
    std::vector<OutUnit> units;
    for (size_t i = 0; i < hashes_.size(); ++i) {
      for (size_t g = 0; g < ng_; ++g) {
        group_row[g] = std::move(keys_[i * ng_ + g]);
      }
      for (size_t a = 0; a < na_; ++a) group_row[ng_ + a] = FinalValue(i, a);
      if (keep_rep_) bind_frame(reps_[i].View());
      if (plan.having != nullptr) {
        TAURUS_ASSIGN_OR_RETURN(bool ok,
                                EvalPredicate(*plan.having, post, ctx));
        if (!ok) continue;
      }
      OutUnit unit;
      if (has_order) {
        unit.sort_key.reserve(plan.order_keys.size());
        for (const auto& [e, asc] : plan.order_keys) {
          TAURUS_ASSIGN_OR_RETURN(Value v, EvalExpr(*e, post, ctx));
          unit.sort_key.push_back(std::move(v));
        }
      }
      unit.row.reserve(plan.projections.size());
      for (const Expr* p : plan.projections) {
        TAURUS_ASSIGN_OR_RETURN(Value v, EvalExpr(*p, post, ctx));
        unit.row.push_back(std::move(v));
      }
      if (has_order) {
        units.push_back(std::move(unit));
      } else {
        output->push_back(std::move(unit.row));
      }
    }
    if (has_order) {
      std::vector<bool> asc;
      for (const auto& [e, a] : plan.order_keys) asc.push_back(a);
      std::stable_sort(units.begin(), units.end(),
                       [&](const OutUnit& a, const OutUnit& b) {
                         return CompareRows(a.sort_key, b.sort_key, &asc) < 0;
                       });
      for (OutUnit& u : units) output->push_back(std::move(u.row));
    }
    return Status::OK();
  }

 private:
  static constexpr size_t kNoGroup = SIZE_MAX;
  static constexpr uint32_t kEmptySlot = UINT32_MAX;

  /// Aggregate `a`'s final value in group `i`.
  Value FinalValue(size_t i, size_t a) const {
    const Expr& agg = *plan_->agg_exprs[a];
    if (!agg.agg_distinct) return accums_[i * na_ + a].Result(agg.agg_func);
    Accum folded;
    for (const Value& v : distinct_[i * nd_ + distinct_index_[a]]) {
      folded.Add(agg.agg_func, v);
    }
    return folded.Result(agg.agg_func);
  }

  /// Folds a typed SUM/AVG/STDDEV argument: the fields and the order of
  /// operations of Accum::Add, one loop per function.
  template <typename T>
  void FoldNumeric(AggFunc func, size_t a, const T* vals,
                   const uint8_t* nulls, const uint32_t* gids, size_t n) {
    Accum* acc = accums_.data() + a;
    auto each = [&](auto fold) {
      for (size_t i = 0; i < n; ++i) {
        if (nulls[i] == 0) fold(acc[gids[i] * na_], vals[i]);
      }
    };
    switch (func) {
      case AggFunc::kSum:
        each([](Accum& s, T x) {
          if constexpr (std::is_same_v<T, int64_t>) {
            s.isum += x;
          } else {
            s.int_only = false;
          }
          ++s.count;
          s.sum += static_cast<double>(x);
        });
        break;
      case AggFunc::kAvg:
        each([](Accum& s, T x) {
          ++s.count;
          s.sum += static_cast<double>(x);
        });
        break;
      default:  // kStddev
        each([](Accum& s, T x) {
          ++s.count;
          const double d = static_cast<double>(x);
          s.sum += d;
          s.sumsq += d * d;
        });
        break;
    }
  }

  /// Folds an argument read as Values: DISTINCT into its sets, everything
  /// else through its own loop.
  void FoldValues(const Expr& agg, size_t a, const BatchValues& v,
                  const uint32_t* gids, size_t n) {
    auto each = [&](auto fold) {
      for (size_t i = 0; i < n; ++i) {
        if (!v[i].is_null()) fold(gids[i], v[i]);
      }
    };
    if (agg.agg_distinct) {
      std::set<Value>* sets = distinct_.data() + distinct_index_[a];
      each([&](size_t g, const Value& x) { sets[g * nd_].insert(x); });
      return;
    }
    Accum* acc = accums_.data() + a;
    const AggFunc func = agg.agg_func;
    switch (func) {
      case AggFunc::kCount:
        each([&](size_t g, const Value&) { ++acc[g * na_].count; });
        break;
      case AggFunc::kMin:
        each([&](size_t g, const Value& x) {
          Value& e = acc[g * na_].extreme;
          if (e.is_null() || Value::Compare(x, e) < 0) e = x;
        });
        break;
      case AggFunc::kMax:
        each([&](size_t g, const Value& x) {
          Value& e = acc[g * na_].extreme;
          if (e.is_null() || Value::Compare(x, e) > 0) e = x;
        });
        break;
      default:
        each([&](size_t g, const Value& x) { acc[g * na_].Add(func, x); });
        break;
    }
  }

  static constexpr uint64_t kHashSeed = 0x9e3779b97f4a7c15ULL;

  /// HashRow's fold over a key read through `key_at`.
  template <typename KeyAt>
  uint64_t HashKey(const KeyAt& key_at) const {
    uint64_t h = kHashSeed;
    for (size_t g = 0; g < ng_; ++g) h = HashCombine(h, key_at(g).Hash());
    return h;
  }

  /// Home slot of `h`: the top bits of h times the golden ratio.
  size_t Home(uint64_t h) const {
    return static_cast<size_t>((h * 0x9e3779b97f4a7c15ULL) >> shift_);
  }

  template <typename KeyAt>
  size_t Find(uint64_t h, const KeyAt& key_at) const {
    if (slots_.empty()) return kNoGroup;
    const size_t mask = slots_.size() - 1;
    for (size_t s = Home(h);; s = (s + 1) & mask) {
      const uint32_t id = slots_[s];
      if (id == kEmptySlot) return kNoGroup;
      if (hashes_[id] == h && KeyEquals(id, key_at)) return id;
    }
  }

  template <typename KeyAt>
  bool KeyEquals(size_t id, const KeyAt& key_at) const {
    const Value* key = keys_.data() + id * ng_;
    for (size_t g = 0; g < ng_; ++g) {
      if (key[g] != key_at(g)) return false;
    }
    return true;
  }

  /// Appends a group with fresh accumulators (its representative, if
  /// kept, is the caller's to append).
  template <typename KeyAt>
  size_t AddGroup(uint64_t h, const KeyAt& key_at) {
    const size_t idx = hashes_.size();
    // Keep the index at most half full, so probes stay short.
    if (2 * (idx + 1) > slots_.size()) {
      Rehash(std::max<size_t>(16, 2 * slots_.size()));
    }
    Place(h, idx);
    hashes_.push_back(h);
    for (size_t g = 0; g < ng_; ++g) keys_.push_back(key_at(g));
    accums_.resize(accums_.size() + na_);
    distinct_.resize(distinct_.size() + nd_);
    return idx;
  }

  /// AddGroup for the i-th selected row of `b`, capturing its frame when
  /// representatives are kept.
  template <typename KeyAt>
  size_t NewGroup(uint64_t h, const KeyAt& key_at, const Batch& b, size_t i,
                  AggScratch* s) {
    const size_t idx = AddGroup(h, key_at);
    if (keep_rep_) {
      s->frame.assign(b.base->begin(), b.base->end());
      b.FillFrame(b.sel[i], &s->frame);
      reps_.emplace_back(s->frame, copy_slots_);
    }
    return idx;
  }

  void Place(uint64_t h, size_t idx) {
    const size_t mask = slots_.size() - 1;
    size_t s = Home(h);
    while (slots_[s] != kEmptySlot) s = (s + 1) & mask;
    slots_[s] = static_cast<uint32_t>(idx);
  }

  void Rehash(size_t capacity) {
    slots_.assign(capacity, kEmptySlot);
    shift_ = 64 - std::countr_zero(capacity);
    for (size_t id = 0; id < hashes_.size(); ++id) Place(hashes_[id], id);
  }

  const BlockPlan* plan_ = nullptr;
  std::vector<int> copy_slots_;
  bool keep_rep_ = false;
  size_t ng_ = 0;  ///< group keys
  size_t na_ = 0;  ///< aggregates
  size_t nd_ = 0;  ///< DISTINCT aggregates
  std::vector<size_t> distinct_index_;  ///< per aggregate: its set, if DISTINCT
  std::vector<uint8_t> typed_;  ///< per aggregate: folds from NumericVectors
  // Per group, in encounter order.
  std::vector<uint64_t> hashes_;
  std::vector<Value> keys_;  ///< ng_ per group
  std::vector<OwnedFrame> reps_;  ///< when keep_rep_
  std::vector<Accum> accums_;  ///< na_ per group
  std::vector<std::set<Value>> distinct_;  ///< nd_ per group
  // The index: group ids by hash, linear probing over a power of two.
  std::vector<uint32_t> slots_;
  int shift_ = 64;
  // Reused row-at-a-time evaluation buffers.
  Row key_buf_;
  Value arg_buf_;
};

/// A buffered pre-sort row: its ORDER BY key plus the captured frame.
struct SortUnit {
  Row sort_key;
  OwnedFrame frame;
};

// ---------------------------------------------------------------------------
// Pipeline finish stages (shared by the serial and parallel paths)
// ---------------------------------------------------------------------------

/// Sorts buffered rows by their keys and projects them.
Status FinishSort(const BlockPlan& plan, std::vector<SortUnit> units,
                  ExecContext* ctx, std::vector<Row>* output) {
  std::vector<bool> asc;
  for (const auto& [e, a] : plan.order_keys) asc.push_back(a);
  std::stable_sort(units.begin(), units.end(),
                   [&](const SortUnit& a, const SortUnit& b) {
                     return CompareRows(a.sort_key, b.sort_key, &asc) < 0;
                   });
  for (SortUnit& u : units) {
    const Frame& view = u.frame.View();
    Row row;
    for (const Expr* p : plan.projections) {
      TAURUS_ASSIGN_OR_RETURN(Value v, EvalExpr(*p, view, ctx));
      row.push_back(std::move(v));
    }
    output->push_back(std::move(row));
  }
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Morsel-driven parallel pipeline (see DESIGN.md section 8)
// ---------------------------------------------------------------------------

/// What the per-worker iterator chains feed, per pipeline shape.
enum class PipeMode { kAgg, kSort, kPlain };

}  // namespace

/// The probe/driving child an eligible pipeline descends through.
const PhysOp* DrivingChild(const PhysOp& op) {
  switch (op.kind) {
    case PhysOp::Kind::kFilter:
      return op.child.get();
    case PhysOp::Kind::kNLJoin:
      return op.child.get();
    case PhysOp::Kind::kHashJoin: {
      bool build_is_left = (op.join_type == JoinType::kInner ||
                            op.join_type == JoinType::kCross);
      return build_is_left ? op.right.get() : op.child.get();
    }
    default:
      return nullptr;
  }
}

/// The driving TableScan of an eligible pipeline (refinement guarantees
/// one exists; returns null defensively otherwise).
const PhysOp* FindDriverScan(const PhysOp* op) {
  while (op != nullptr) {
    if (op->kind == PhysOp::Kind::kTableScan) return op;
    op = DrivingChild(*op);
  }
  return nullptr;
}

namespace {

Status PrebuildHashStates(const PhysOp* root, Frame* frame, ExecContext* ctx,
                          PipelineShared* shared) {
  for (const PhysOp* cur = root; cur != nullptr; cur = DrivingChild(*cur)) {
    if (cur->kind != PhysOp::Kind::kHashJoin) continue;
    HashJoinLayout layout = MakeHashJoinLayout(*cur);
    const PhysOp* build_child =
        layout.build_is_left ? cur->child.get() : cur->right.get();
    // Build sides are drained fully, so they may run batched.
    std::unique_ptr<FrameIter> build = ChildIter(
        build_child, ctx->op_actuals != nullptr, ctx, /*allow_batch=*/true);
    TAURUS_RETURN_IF_ERROR(FillHashJoinState(
        *cur, layout, build.get(), frame, ctx, &shared->hash_states[cur]));
  }
  return Status::OK();
}

/// A worker-private clone of the driving iterator chain: hash joins probe
/// the shared states, NL-join inner sides are private (re-opened per driver
/// row, as in the serial executor), and the driver scan is returned through
/// `driver_out` so the worker can reposition it per morsel.
std::unique_ptr<FrameIter> BuildWorkerChain(const PhysOp* op,
                                            const PipelineShared& shared,
                                            TableScanIter** driver_out,
                                            bool analyze, ExecContext* ctx) {
  switch (op->kind) {
    case PhysOp::Kind::kTableScan: {
      auto scan = std::make_unique<TableScanIter>(op);
      // Capture the raw driver before any analyze wrapping: the worker
      // repositions it per morsel through this pointer. Under analyze the
      // driver's loops therefore count morsels processed (summed shard-wise).
      *driver_out = scan.get();
      return Analyzed(analyze, op, std::move(scan));
    }
    case PhysOp::Kind::kFilter:
      return Analyzed(analyze, op,
                      std::make_unique<FilterIter>(
                          op, BuildWorkerChain(op->child.get(), shared,
                                               driver_out, analyze, ctx)));
    case PhysOp::Kind::kNLJoin: {
      const JoinType jt = op->join_type;
      const bool right_allow = jt == JoinType::kInner ||
                               jt == JoinType::kCross || jt == JoinType::kLeft;
      return Analyzed(
          analyze, op,
          std::make_unique<NLJoinIter>(
              op,
              BuildWorkerChain(op->child.get(), shared, driver_out, analyze,
                               ctx),
              ChildIter(op->right.get(), analyze, ctx, right_allow)));
    }
    case PhysOp::Kind::kHashJoin: {
      auto it = shared.hash_states.find(op);
      if (it == shared.hash_states.end()) return nullptr;
      auto probe = BuildWorkerChain(DrivingChild(*op), shared, driver_out,
                                    analyze, ctx);
      if (probe == nullptr) return nullptr;
      return Analyzed(analyze, op,
                      std::make_unique<HashJoinIter>(op, std::move(probe),
                                                     &it->second));
    }
    default:
      return nullptr;  // not a driving-path operator
  }
}

/// Per-morsel stage-A results, merged on the main thread in morsel order.
struct ParallelOut {
  bool engaged = false;
  GroupByState agg;
  std::vector<SortUnit> sort_units;
  std::vector<Row> rows;
};

/// One worker's processing of one morsel's pipeline output.
Status ConsumeMorsel(PipeMode mode, const BlockPlan& plan, FrameIter* chain,
                     Frame* frame, ExecContext* shard,
                     const std::vector<int>& copy_slots, GroupByState* agg,
                     std::vector<SortUnit>* sort_units,
                     std::vector<Row>* rows) {
  while (true) {
    TAURUS_ASSIGN_OR_RETURN(bool has, chain->Next(frame, shard));
    if (!has) return Status::OK();
    switch (mode) {
      case PipeMode::kAgg:
        TAURUS_RETURN_IF_ERROR(agg->Consume(*frame, shard));
        break;
      case PipeMode::kSort: {
        SortUnit u;
        for (const auto& [e, a] : plan.order_keys) {
          TAURUS_ASSIGN_OR_RETURN(Value v,
                                  EvalExpr(*e, *frame, shard));
          u.sort_key.push_back(std::move(v));
        }
        u.frame = OwnedFrame(*frame, copy_slots);
        sort_units->push_back(std::move(u));
        break;
      }
      case PipeMode::kPlain: {
        Row row;
        for (const Expr* p : plan.projections) {
          TAURUS_ASSIGN_OR_RETURN(Value v,
                                  EvalExpr(*p, *frame, shard));
          row.push_back(std::move(v));
        }
        rows->push_back(std::move(row));
        break;
      }
    }
  }
}

/// Batch-mode ConsumeMorsel: drains a batch chain into the same per-shape
/// sinks, evaluating order keys / projections as whole vectors. Row order
/// (selection order) matches the Volcano chain's emission order exactly, so
/// groups, sort stability and plain output are bit-identical.
Status ConsumeBatches(PipeMode mode, const BlockPlan& plan, BatchOp* chain,
                      ExecContext* ctx, const std::vector<int>& copy_slots,
                      GroupByState* agg, AggScratch* agg_scratch,
                      std::vector<SortUnit>* sort_units,
                      std::vector<Row>* rows) {
  Frame scratch;
  while (true) {
    TAURUS_ASSIGN_OR_RETURN(Batch* b, chain->NextBatch(ctx));
    if (b == nullptr) return Status::OK();
    ++ctx->batches;
    ctx->batch_rows += static_cast<int64_t>(b->sel.size());
    switch (mode) {
      case PipeMode::kAgg:
        TAURUS_RETURN_IF_ERROR(agg->ConsumeBatch(*b, ctx, agg_scratch));
        break;
      case PipeMode::kSort: {
        const size_t nk = plan.order_keys.size();
        std::vector<BatchValues> kcols(nk);
        for (size_t k = 0; k < nk; ++k) {
          TAURUS_RETURN_IF_ERROR(
              EvalBatchValues(*plan.order_keys[k].first, *b, ctx, &kcols[k]));
        }
        if (scratch.empty()) scratch = *b->base;
        for (size_t i = 0; i < b->sel.size(); ++i) {
          SortUnit u;
          u.sort_key.reserve(nk);
          for (size_t k = 0; k < nk; ++k) {
            u.sort_key.push_back(kcols[k].Take(i));
          }
          b->FillFrame(b->sel[i], &scratch);
          u.frame = OwnedFrame(scratch, copy_slots);
          sort_units->push_back(std::move(u));
        }
        break;
      }
      case PipeMode::kPlain: {
        const size_t np = plan.projections.size();
        std::vector<BatchValues> pcols(np);
        for (size_t p = 0; p < np; ++p) {
          TAURUS_RETURN_IF_ERROR(
              EvalBatchValues(*plan.projections[p], *b, ctx, &pcols[p]));
        }
        for (size_t i = 0; i < b->sel.size(); ++i) {
          Row row;
          row.reserve(np);
          for (size_t p = 0; p < np; ++p) row.push_back(pcols[p].Take(i));
          rows->push_back(std::move(row));
        }
        break;
      }
    }
  }
}

/// Attempts to run the block's driving pipeline morsel-parallel. Returns
/// false when a runtime gate keeps it serial (no pool, small driver table,
/// DOP < 2, pool busy); true with `out->engaged` set when the parallel
/// pipeline ran. Errors from workers (including deterministic budget kills
/// through the shared atomic row counter) propagate with the smallest
/// morsel index winning, so failures are reproducible too.
Result<bool> TryParallelPipeline(const BlockPlan& plan, const Frame& outer,
                                 ExecContext* ctx, PipeMode mode,
                                 ParallelOut* out) {
  const PhysOp* driver = FindDriverScan(plan.join_root.get());
  if (driver == nullptr) return false;
  const TableData* data = ctx->storage->Get(driver->leaf->table->id);
  if (data == nullptr) return false;
  const int64_t total = static_cast<int64_t>(data->NumRows());
  if (total < ctx->parallel_min_driver_rows) return false;
  const int64_t morsel = std::max<int64_t>(1, ctx->morsel_rows);
  const int64_t num_morsels = (total + morsel - 1) / morsel;
  const int dop = static_cast<int>(
      std::min<int64_t>(ctx->parallel_workers, num_morsels));
  if (dop < 2) return false;

  // Build sides run once, serially, with the root context (they may hold
  // derived tables, subqueries, anything — the workers never re-enter them).
  PipelineShared shared;
  {
    Frame build_frame = outer;
    TAURUS_RETURN_IF_ERROR(
        PrebuildHashStates(plan.join_root.get(), &build_frame, ctx, &shared));
  }

  // Per-morsel output slots: workers write disjoint indices, the main
  // thread reads only after the pool joins, so no locking is needed and
  // the merged result is independent of scheduling.
  const size_t nm = static_cast<size_t>(num_morsels);
  // What the morsels buffer outlives the worker shards (UnstableSlots).
  const std::vector<int> copy_slots =
      UnstableSlots(*plan.join_root, /*worker_shard=*/true);
  std::vector<GroupByState> agg_parts(mode == PipeMode::kAgg ? nm : 0);
  for (GroupByState& s : agg_parts) s.Init(&plan, copy_slots);
  std::vector<std::vector<SortUnit>> sort_parts(
      mode == PipeMode::kSort ? nm : 0);
  std::vector<std::vector<Row>> row_parts(mode == PipeMode::kPlain ? nm : 0);
  std::vector<Status> morsel_status(nm, Status::OK());
  std::vector<Status> worker_status(static_cast<size_t>(dop), Status::OK());
  std::unique_ptr<ExecContext[]> shards(new ExecContext[dop]);

  std::atomic<int64_t> next_morsel{0};
  std::atomic<bool> abort{false};
  std::atomic<bool> used_batch{false};

  // Executor profiling (DESIGN.md section 15): each worker times its own
  // slot — no synchronization — and the main thread computes idle time
  // against the pipeline wall after the pool joins.
  const bool profiled =
      ctx->exec_profile != nullptr && ctx->profile_clock != nullptr;
  std::vector<WorkerProfile> worker_profiles(
      profiled ? static_cast<size_t>(dop) : 0);
  const Clock* profile_clock = ctx->profile_clock;

  auto worker = [&](int w) {
    ExecContext* shard = &shards[w];
    ctx->InitShard(shard);
    // Batch-eligible pipelines run each worker's morsels through a private
    // vectorized chain probing the same shared hash states. Any worker that
    // cannot build one (defensive) falls back to the Volcano clone — both
    // consume morsels from the same queue with identical per-morsel output.
    BatchChain bchain;
    if (plan.batch_eligible) {
      bchain = BuildBatchChain(plan.join_root.get(), shard, &shared);
      if (bchain.root == nullptr || bchain.driver == nullptr ||
          bchain.driver->Op() != driver) {
        bchain.root.reset();
      }
    }
    TableScanIter* scan = nullptr;
    std::unique_ptr<FrameIter> chain;
    if (bchain.root != nullptr) {
      used_batch.store(true, std::memory_order_relaxed);
    } else {
      chain = BuildWorkerChain(plan.join_root.get(), shared, &scan,
                               shard->op_actuals != nullptr, shard);
      if (chain == nullptr || scan == nullptr || scan->Op() != driver) {
        worker_status[static_cast<size_t>(w)] =
            Status::Internal("worker chain build failed");
        abort.store(true, std::memory_order_relaxed);
        return;
      }
    }
    Frame frame = outer;
    AggScratch agg_scratch;
    WorkerProfile* profile =
        profiled ? &worker_profiles[static_cast<size_t>(w)] : nullptr;
    while (!abort.load(std::memory_order_relaxed)) {
      int64_t m = next_morsel.fetch_add(1, std::memory_order_relaxed);
      if (m >= num_morsels) break;
      const size_t begin = static_cast<size_t>(m * morsel);
      const size_t end = static_cast<size_t>(std::min(total, (m + 1) * morsel));
      const size_t mi = static_cast<size_t>(m);
      const double morsel_start =
          profile != nullptr ? profile_clock->NowMs() : 0.0;
      Status st;
      if (bchain.root != nullptr) {
        bchain.driver->SetRange(begin, end);
        st = bchain.root->Open(&frame, shard);
        if (st.ok()) {
          st = ConsumeBatches(
              mode, plan, bchain.root.get(), shard, copy_slots,
              mode == PipeMode::kAgg ? &agg_parts[mi] : nullptr, &agg_scratch,
              mode == PipeMode::kSort ? &sort_parts[mi] : nullptr,
              mode == PipeMode::kPlain ? &row_parts[mi] : nullptr);
        }
      } else {
        scan->SetRange(begin, end);
        st = chain->Open(&frame, shard);
        if (st.ok()) {
          st = ConsumeMorsel(
              mode, plan, chain.get(), &frame, shard, copy_slots,
              mode == PipeMode::kAgg ? &agg_parts[mi] : nullptr,
              mode == PipeMode::kSort ? &sort_parts[mi] : nullptr,
              mode == PipeMode::kPlain ? &row_parts[mi] : nullptr);
        }
      }
      if (profile != nullptr) {
        profile->busy_ms += profile_clock->NowMs() - morsel_start;
        ++profile->morsels;
        // Driver rows processed this morsel, attributed to the chain that
        // consumed them (batch vs Volcano fallback).
        const int64_t driver_rows =
            static_cast<int64_t>(end) - static_cast<int64_t>(begin);
        (bchain.root != nullptr ? profile->batch_rows
                                : profile->volcano_rows) += driver_rows;
      }
      if (!st.ok()) {
        morsel_status[static_cast<size_t>(m)] = std::move(st);
        abort.store(true, std::memory_order_relaxed);
        break;
      }
    }
  };

  const double pipeline_start = profiled ? profile_clock->NowMs() : 0.0;
  if (!ctx->pool->TryRun(dop, worker)) return false;  // pool busy: go serial
  if (profiled) {
    // Per-worker idle = pipeline wall minus that worker's busy time: queue
    // hand-off plus waiting for the slowest peer after draining the queue.
    const double wall = profile_clock->NowMs() - pipeline_start;
    for (WorkerProfile& wp : worker_profiles) {
      wp.idle_ms = std::max(0.0, wall - wp.busy_ms);
    }
    ctx->exec_profile->MergePipeline(worker_profiles);
  }

  for (int w = 0; w < dop; ++w) ctx->MergeShard(shards[w]);
  // First failing morsel (by morsel index, not completion order) wins.
  for (const Status& st : morsel_status) {
    if (!st.ok()) return st;
  }
  for (const Status& st : worker_status) {
    if (!st.ok()) return st;
  }

  switch (mode) {
    case PipeMode::kAgg: {
      bool first = true;
      for (GroupByState& part : agg_parts) {
        if (first) {
          out->agg = std::move(part);
          first = false;
        } else {
          out->agg.Merge(std::move(part));
        }
      }
      break;
    }
    case PipeMode::kSort:
      for (std::vector<SortUnit>& part : sort_parts) {
        for (SortUnit& u : part) out->sort_units.push_back(std::move(u));
      }
      break;
    case PipeMode::kPlain:
      for (std::vector<Row>& part : row_parts) {
        for (Row& r : part) out->rows.push_back(std::move(r));
      }
      break;
  }

  ++ctx->parallel_pipelines;
  if (used_batch.load(std::memory_order_relaxed)) ++ctx->batch_pipelines;
  ctx->max_workers_used = std::max(ctx->max_workers_used, dop);
  out->engaged = true;
  return true;
}

// ---------------------------------------------------------------------------
// Block execution
// ---------------------------------------------------------------------------

Result<std::vector<Row>> ExecuteSingle(const BlockPlan& plan,
                                       const Frame& outer, ExecContext* ctx,
                                       bool apply_order_limit) {
  Frame frame = outer;
  std::vector<Row> output;

  // Block-level actuals (rows after agg/sort/distinct/limit) keyed by the
  // BlockPlan itself; per-operator actuals come from the AnalyzeIter wraps.
  const bool analyze = ctx->op_actuals != nullptr;
  const double analyze_t0 = analyze ? ctx->analyze_clock->NowMs() : 0.0;
  auto record_block = [&](const std::vector<Row>& rows) {
    OpActual& a = ctx->op_actuals->At(&plan);
    ++a.loops;
    a.rows += static_cast<int64_t>(rows.size());
    a.time_ms += ctx->analyze_clock->NowMs() - analyze_t0;
  };

  const bool has_order = apply_order_limit && !plan.order_keys.empty() &&
                         !plan.order_satisfied;
  const bool has_limit = apply_order_limit && plan.limit >= 0;

  // ---- No FROM clause: one conceptual row. ----
  if (plan.join_root == nullptr && plan.agg_mode == AggMode::kNone) {
    Row row;
    for (const Expr* p : plan.projections) {
      TAURUS_ASSIGN_OR_RETURN(Value v, EvalExpr(*p, frame, ctx));
      row.push_back(std::move(v));
    }
    output.push_back(std::move(row));
    if (analyze) record_block(output);
    return output;
  }

  const PipeMode mode = plan.agg_mode != AggMode::kNone
                            ? PipeMode::kAgg
                            : (has_order ? PipeMode::kSort : PipeMode::kPlain);
  // Rows kept after the producer moves on (group representatives, sort
  // rows) borrow every slot but these.
  const std::vector<int> copy_slots =
      plan.join_root != nullptr && mode != PipeMode::kPlain
          ? UnstableSlots(*plan.join_root, ctx->is_worker_shard)
          : std::vector<int>();

  // ---- Parallel attempt (stage A via the morsel-driven pipeline). ----
  ParallelOut par;
  if (plan.join_root != nullptr && plan.parallel_eligible &&
      ctx->pool != nullptr && !ctx->is_worker_shard &&
      !(mode == PipeMode::kPlain && has_limit && !plan.distinct)) {
    TAURUS_ASSIGN_OR_RETURN(bool engaged,
                            TryParallelPipeline(plan, outer, ctx, mode, &par));
    (void)engaged;
  }

  // ---- Serial pipeline: vectorized when anything on the driving chain
  // speaks batches (the whole chain, or a native prefix over a
  // Frame->Batch source); otherwise the Volcano chain, which may still
  // graft batch segments behind adapters (hash-join build sides, NL-join
  // inner sides). Plain blocks with a row limit drain lazily, so batching
  // would overrun the scan budget — they stay row-at-a-time.
  const bool allow_batch_top =
      !(mode == PipeMode::kPlain && has_limit && !plan.distinct);
  std::unique_ptr<FrameIter> iter;
  BatchChain bchain;
  if (plan.join_root != nullptr && !par.engaged) {
    if (allow_batch_top) {
      bchain = BuildBatchChain(plan.join_root.get(), ctx, nullptr);
      if (bchain.root != nullptr && bchain.native_ops == 0) bchain.root.reset();
    }
    if (bchain.root != nullptr) {
      ++ctx->batch_pipelines;
      TAURUS_RETURN_IF_ERROR(bchain.root->Open(&frame, ctx));
    } else {
      iter = BuildIter(plan.join_root.get(), analyze, ctx, allow_batch_top);
      TAURUS_RETURN_IF_ERROR(iter->Open(&frame, ctx));
    }
  }

  if (mode == PipeMode::kAgg) {
    // ---- Aggregation path (hash or sort+stream; same results). ----
    GroupByState state;
    if (par.engaged) {
      state = std::move(par.agg);
    } else {
      state.Init(&plan, copy_slots);
      if (bchain.root != nullptr) {
        AggScratch scratch;
        TAURUS_RETURN_IF_ERROR(ConsumeBatches(mode, plan, bchain.root.get(),
                                              ctx, copy_slots, &state,
                                              &scratch, nullptr, nullptr));
      } else if (iter != nullptr) {
        while (true) {
          TAURUS_ASSIGN_OR_RETURN(bool has, iter->Next(&frame, ctx));
          if (!has) break;
          TAURUS_RETURN_IF_ERROR(state.Consume(frame, ctx));
        }
      } else {
        TAURUS_RETURN_IF_ERROR(state.Consume(frame, ctx));
      }
    }
    if (state.empty() && plan.group_exprs.empty()) {
      state.AddEmptyScalarGroup(outer);
    }
    TAURUS_RETURN_IF_ERROR(state.Finish(outer, ctx, has_order, &output));
  } else if (mode == PipeMode::kSort) {
    // ---- Materialize, sort, project. ----
    std::vector<SortUnit> units;
    if (par.engaged) {
      units = std::move(par.sort_units);
    } else if (bchain.root != nullptr) {
      TAURUS_RETURN_IF_ERROR(ConsumeBatches(mode, plan, bchain.root.get(), ctx,
                                            copy_slots, nullptr, nullptr,
                                            &units, nullptr));
    } else {
      while (iter != nullptr) {
        TAURUS_ASSIGN_OR_RETURN(bool has, iter->Next(&frame, ctx));
        if (!has) break;
        SortUnit u;
        for (const auto& [e, a] : plan.order_keys) {
          TAURUS_ASSIGN_OR_RETURN(Value v, EvalExpr(*e, frame, ctx));
          u.sort_key.push_back(std::move(v));
        }
        u.frame = OwnedFrame(frame, copy_slots);
        units.push_back(std::move(u));
      }
    }
    TAURUS_RETURN_IF_ERROR(FinishSort(plan, std::move(units), ctx, &output));
  } else if (par.engaged) {
    output = std::move(par.rows);
  } else if (bchain.root != nullptr) {
    // ---- Streaming projection, vectorized (full drain: no LIMIT here
    // unless DISTINCT forces one anyway). ----
    TAURUS_RETURN_IF_ERROR(ConsumeBatches(mode, plan, bchain.root.get(), ctx,
                                          copy_slots, nullptr, nullptr,
                                          nullptr, &output));
  } else {
    // ---- Streaming projection with early LIMIT exit. ----
    int64_t want = has_limit ? plan.offset + plan.limit : -1;
    while (iter != nullptr) {
      if (want >= 0 && static_cast<int64_t>(output.size()) >= want &&
          !plan.distinct) {
        break;
      }
      TAURUS_ASSIGN_OR_RETURN(bool has, iter->Next(&frame, ctx));
      if (!has) break;
      Row row;
      for (const Expr* p : plan.projections) {
        TAURUS_ASSIGN_OR_RETURN(Value v, EvalExpr(*p, frame, ctx));
        row.push_back(std::move(v));
      }
      output.push_back(std::move(row));
    }
  }

  // DISTINCT.
  if (plan.distinct) {
    std::vector<Row> dedup;
    std::unordered_map<uint64_t, std::vector<size_t>> seen;
    for (Row& r : output) {
      uint64_t h = HashRow(r);
      bool dup = false;
      for (size_t idx : seen[h]) {
        if (CompareRows(dedup[idx], r) == 0) {
          dup = true;
          break;
        }
      }
      if (!dup) {
        seen[h].push_back(dedup.size());
        dedup.push_back(std::move(r));
      }
    }
    output = std::move(dedup);
  }

  // OFFSET / LIMIT.
  if (apply_order_limit && (plan.offset > 0 || plan.limit >= 0)) {
    size_t begin = std::min(static_cast<size_t>(plan.offset), output.size());
    size_t end = plan.limit >= 0
                     ? std::min(begin + static_cast<size_t>(plan.limit),
                                output.size())
                     : output.size();
    std::vector<Row> window(std::make_move_iterator(output.begin() + begin),
                            std::make_move_iterator(output.begin() + end));
    output = std::move(window);
  }
  if (analyze) record_block(output);
  return output;
}

}  // namespace

Result<std::vector<Row>> ExecuteBlock(const BlockPlan& plan,
                                      const Frame& outer, ExecContext* ctx) {
  if (plan.union_arms.empty()) {
    return ExecuteSingle(plan, outer, ctx, /*apply_order_limit=*/true);
  }
  // UNION: run all arms without per-arm ordering, combine, then apply the
  // head block's ORDER BY (resolved to positions) and LIMIT.
  TAURUS_ASSIGN_OR_RETURN(
      std::vector<Row> rows,
      ExecuteSingle(plan, outer, ctx, /*apply_order_limit=*/false));
  for (const auto& arm : plan.union_arms) {
    TAURUS_ASSIGN_OR_RETURN(
        std::vector<Row> arm_rows,
        ExecuteSingle(*arm, outer, ctx, /*apply_order_limit=*/false));
    for (Row& r : arm_rows) rows.push_back(std::move(r));
  }
  if (!plan.union_all) {
    std::sort(rows.begin(), rows.end(),
              [](const Row& a, const Row& b) { return CompareRows(a, b) < 0; });
    rows.erase(std::unique(rows.begin(), rows.end(),
                           [](const Row& a, const Row& b) {
                             return CompareRows(a, b) == 0;
                           }),
               rows.end());
  }
  if (!plan.union_order_positions.empty()) {
    std::stable_sort(rows.begin(), rows.end(),
                     [&](const Row& a, const Row& b) {
                       for (const auto& [pos, asc] : plan.union_order_positions) {
                         int c = Value::Compare(a[static_cast<size_t>(pos)],
                                                b[static_cast<size_t>(pos)]);
                         if (c != 0) return asc ? c < 0 : c > 0;
                       }
                       return false;
                     });
  }
  if (plan.offset > 0 || plan.limit >= 0) {
    size_t begin = std::min(static_cast<size_t>(plan.offset), rows.size());
    size_t end =
        plan.limit >= 0
            ? std::min(begin + static_cast<size_t>(plan.limit), rows.size())
            : rows.size();
    std::vector<Row> window(std::make_move_iterator(rows.begin() + begin),
                            std::make_move_iterator(rows.begin() + end));
    rows = std::move(window);
  }
  return rows;
}

Result<std::vector<Row>> ExecuteQuery(CompiledQuery* query,
                                      const Storage& storage,
                                      ExecContext* ctx_out) {
  ExecContext local;
  ExecContext* ctx = ctx_out != nullptr ? ctx_out : &local;
  ctx->storage = &storage;
  ctx->query = query;
  ctx->subplan_cache.clear();
  Frame outer(static_cast<size_t>(query->num_refs), nullptr);
  return ExecuteBlock(*query->root, outer, ctx);
}

}  // namespace taurus
