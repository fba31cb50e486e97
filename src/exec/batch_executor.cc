#include "exec/batch_executor.h"

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include "common/strings.h"
#include "exec/expr_eval.h"
#include "exec/vector_ops.h"
#include "types/value.h"

namespace taurus {
namespace {

/// Scoped actuals recorder for batch operators: same semantics as the
/// Volcano AnalyzeIter wrapper (inclusive wall time, one loop per Open,
/// one row per emitted selection entry), keyed by the same PhysOp address,
/// so EXPLAIN ANALYZE output is indistinguishable between the two engines.
class OpTimer {
 public:
  OpTimer(const PhysOp* op, ExecContext* ctx) {
    if (ctx->op_actuals != nullptr) {
      actual_ = &ctx->op_actuals->At(op);
      clock_ = ctx->analyze_clock;
      t0_ = clock_->NowMs();
    }
  }

  void RecordOpen() {
    if (actual_ == nullptr) return;
    ++actual_->loops;
    actual_->time_ms += clock_->NowMs() - t0_;
  }

  void RecordRows(int64_t rows) {
    if (actual_ == nullptr) return;
    actual_->rows += rows;
    actual_->time_ms += clock_->NowMs() - t0_;
  }

 private:
  OpActual* actual_ = nullptr;
  const Clock* clock_ = nullptr;
  double t0_ = 0.0;
};

/// Vectorized kFilter: pulls child batches and shrinks their selection in
/// place, looping past fully filtered blocks (NextBatch never returns an
/// empty selection).
class BatchFilter : public BatchOp {
 public:
  BatchFilter(const PhysOp* op, std::unique_ptr<BatchOp> child)
      : op_(op), child_(std::move(child)) {}

  Status Open(Frame* frame, ExecContext* ctx) override {
    OpTimer t(op_, ctx);
    TAURUS_RETURN_IF_ERROR(child_->Open(frame, ctx));
    t.RecordOpen();
    return Status::OK();
  }

  Result<Batch*> NextBatch(ExecContext* ctx) override {
    OpTimer t(op_, ctx);
    while (true) {
      TAURUS_ASSIGN_OR_RETURN(Batch* b, child_->NextBatch(ctx));
      if (b == nullptr) {
        t.RecordRows(0);
        return nullptr;
      }
      TAURUS_RETURN_IF_ERROR(FilterBatch(op_->conds, b, ctx));
      if (!b->sel.empty()) {
        t.RecordRows(static_cast<int64_t>(b->sel.size()));
        return b;
      }
    }
  }

 private:
  const PhysOp* op_;
  std::unique_ptr<BatchOp> child_;
};

/// Vectorized hash-join probe over the same HashJoinShared build state the
/// Volcano iterator uses. Probe keys are evaluated as whole vectors and
/// hashed in bulk; candidate emission is resumable so output batches stay
/// bounded by ctx->batch_size even through high-fanout keys. Covers
/// inner/cross (residual conds applied as a post-emit FilterBatch — order
/// preserving, so results are bit-identical) and left joins without
/// residual conds (a row matched iff its candidate list is nonempty).
class BatchHashJoinProbe : public BatchOp {
 public:
  /// Serial form passes `build_iter` (own state rebuilt per Open); worker
  /// form passes `shared` (prebuilt read-only state).
  BatchHashJoinProbe(const PhysOp* op, std::unique_ptr<BatchOp> child,
                     std::unique_ptr<FrameIter> build_iter,
                     const HashJoinShared* shared)
      : op_(op),
        layout_(MakeHashJoinLayout(*op)),
        probe_refs_(
            SubtreeRefs(layout_.build_is_left ? *op->right : *op->child)),
        child_(std::move(child)),
        build_iter_(std::move(build_iter)),
        shared_(shared) {}

  Status Open(Frame* frame, ExecContext* ctx) override {
    OpTimer t(op_, ctx);
    if (shared_ == nullptr) {
      TAURUS_RETURN_IF_ERROR(FillHashJoinState(
          *op_, layout_, build_iter_.get(), frame, ctx, &own_state_));
    } else {
      ClearSlots(frame, layout_.build_refs);
    }
    TAURUS_RETURN_IF_ERROR(child_->Open(frame, ctx));
    out_.Reset(frame->size(), frame);
    for (int r : probe_refs_) out_.Activate(r);
    for (int r : layout_.build_refs) out_.Activate(r);
    cap_ = std::max<int64_t>(1, ctx->batch_size);
    in_ = nullptr;
    in_pos_ = 0;
    row_ready_ = false;
    t.RecordOpen();
    return Status::OK();
  }

  Result<Batch*> NextBatch(ExecContext* ctx) override {
    OpTimer t(op_, ctx);
    while (true) {
      ResetOut();
      TAURUS_ASSIGN_OR_RETURN(bool more, FillOut(ctx));
      if (!op_->conds.empty() && !out_.sel.empty()) {
        TAURUS_RETURN_IF_ERROR(FilterBatch(op_->conds, &out_, ctx));
      }
      if (!out_.sel.empty()) {
        t.RecordRows(static_cast<int64_t>(out_.sel.size()));
        return &out_;
      }
      if (!more) {
        t.RecordRows(0);
        return nullptr;
      }
    }
  }

 private:
  void ResetOut() {
    for (int r : probe_refs_) out_.cols[static_cast<size_t>(r)].clear();
    for (int r : layout_.build_refs) out_.cols[static_cast<size_t>(r)].clear();
    out_.sel.clear();
    out_.size = 0;
  }

  /// Evaluates the key vectors, null map and bulk hashes (replicating
  /// HashRow's combine exactly) for the freshly pulled input batch.
  Status PrepareInput(ExecContext* ctx) {
    const size_t n = in_->sel.size();
    const size_t nk = layout_.probe_keys.size();
    keys_.resize(nk);
    for (size_t k = 0; k < nk; ++k) {
      TAURUS_RETURN_IF_ERROR(
          EvalBatchValues(*layout_.probe_keys[k], *in_, ctx, &keys_[k]));
    }
    null_key_.assign(n, 0);
    hashes_.assign(n, 0x9e3779b97f4a7c15ULL);
    for (size_t k = 0; k < nk; ++k) {
      const BatchValues& col = keys_[k];
      for (size_t i = 0; i < n; ++i) {
        if (col[i].is_null()) null_key_[i] = 1;
        hashes_[i] = HashCombine(hashes_[i], col[i].Hash());
      }
    }
    return Status::OK();
  }

  /// Fills the output batch up to cap_. Returns false when the probe input
  /// is exhausted (a partially filled output may still need emitting).
  Result<bool> FillOut(ExecContext* ctx) {
    const HashJoinShared& state = shared_ != nullptr ? *shared_ : own_state_;
    const JoinType jt = op_->join_type;
    while (static_cast<int64_t>(out_.size) < cap_) {
      if (in_ == nullptr) {
        TAURUS_ASSIGN_OR_RETURN(Batch* nb, child_->NextBatch(ctx));
        if (nb == nullptr) return false;
        in_ = nb;
        in_pos_ = 0;
        row_ready_ = false;
        TAURUS_RETURN_IF_ERROR(PrepareInput(ctx));
      }
      if (in_pos_ >= in_->sel.size()) {
        in_ = nullptr;
        continue;
      }
      if (!row_ready_) {
        BuildCandidates(state);
        row_ready_ = true;
      }
      if (EmitCurrentRow(state, jt)) {
        ++in_pos_;
        row_ready_ = false;
      }
    }
    return true;
  }

  void BuildCandidates(const HashJoinShared& state) {
    candidates_.clear();
    cand_pos_ = 0;
    const size_t i = in_pos_;
    if (null_key_[i] != 0) return;
    state.FindMatches(
        hashes_[i], [&](size_t k) -> const Value& { return keys_[k][i]; },
        &candidates_);
  }

  /// Emits the current probe row's remaining candidate pairs (or its
  /// NULL-extended row for an unmatched left probe). Returns true when the
  /// row is done. Precondition: the output batch has room for one row.
  bool EmitCurrentRow(const HashJoinShared& state, JoinType jt) {
    if (candidates_.empty()) {
      if (jt == JoinType::kLeft) EmitRow(nullptr);
      return true;  // inner/cross: unmatched probe rows vanish
    }
    while (cand_pos_ < candidates_.size()) {
      if (static_cast<int64_t>(out_.size) >= cap_) return false;
      EmitRow(state.Rows(candidates_[cand_pos_++]));
    }
    return true;
  }

  /// Appends one output row: probe slots copied from the input batch,
  /// build slots from the entry's rows (null = NULL-extended).
  void EmitRow(const Row* const* build_rows) {
    const uint32_t prow = in_->sel[in_pos_];
    for (int r : probe_refs_) {
      const size_t slot = static_cast<size_t>(r);
      const Row* rp =
          in_->active[slot] != 0
              ? in_->cols[slot][prow]
              : (in_->base != nullptr ? (*in_->base)[slot] : nullptr);
      out_.cols[slot].push_back(rp);
    }
    for (size_t j = 0; j < layout_.build_refs.size(); ++j) {
      out_.cols[static_cast<size_t>(layout_.build_refs[j])].push_back(
          build_rows != nullptr ? build_rows[j] : nullptr);
    }
    out_.sel.push_back(static_cast<uint32_t>(out_.size));
    ++out_.size;
  }

  const PhysOp* op_;
  HashJoinLayout layout_;
  std::vector<int> probe_refs_;
  std::unique_ptr<BatchOp> child_;
  std::unique_ptr<FrameIter> build_iter_;   ///< serial form only
  const HashJoinShared* shared_ = nullptr;  ///< worker form only
  HashJoinShared own_state_;

  Batch out_;
  int64_t cap_ = 1;

  // Probe-input cursor state (survives across NextBatch calls).
  Batch* in_ = nullptr;
  size_t in_pos_ = 0;
  bool row_ready_ = false;
  std::vector<BatchValues> keys_;  ///< per key expr, per sel entry
  std::vector<uint8_t> null_key_;
  std::vector<uint64_t> hashes_;
  std::vector<size_t> candidates_;
  size_t cand_pos_ = 0;
};

/// Vectorized index nested-loop join: an inner/cross kNLJoin whose right
/// child is a kIndexLookup ("ref" access). Lookup keys are evaluated once
/// per outer batch; each outer row, in selection order, probes the index
/// (one index_lookups count, NULL keys included) and its (outer, inner)
/// pairs are appended to a bounded output batch — resumably, so one outer
/// row may span several output batches. Candidates are charged as scanned
/// before any filter; the lookup's pushed-down filters and then the join's
/// conds run as FilterBatch passes. Output order, rows_scanned and
/// index_lookups therefore equal NLJoinIter over IndexLookupIter, and the
/// lookup leaf's actuals are recorded under its own PhysOp exactly as its
/// AnalyzeIter wrapper would (loops = probes, rows = rows past filters).
class BatchIndexNLJoin : public BatchOp {
 public:
  BatchIndexNLJoin(const PhysOp* op, std::unique_ptr<BatchOp> child)
      : op_(op),
        lookup_(op->right.get()),
        outer_refs_(SubtreeRefs(*op->child)),
        inner_slot_(static_cast<size_t>(op->right->leaf->ref_id)),
        child_(std::move(child)) {}

  Status Open(Frame* frame, ExecContext* ctx) override {
    OpTimer t(op_, ctx);
    data_ = ctx->storage->Get(lookup_->leaf->table->id);
    if (data_ == nullptr || lookup_->index_id < 0 ||
        lookup_->index_id >= data_->NumIndexes()) {
      return Status::Internal("bad index lookup target");
    }
    index_ = &data_->index(lookup_->index_id);
    TAURUS_RETURN_IF_ERROR(child_->Open(frame, ctx));
    out_.Reset(frame->size(), frame);
    for (int r : outer_refs_) out_.Activate(r);
    out_.Activate(lookup_->leaf->ref_id);
    outer_rows_.resize(outer_refs_.size());
    cap_ = std::max<int64_t>(1, ctx->batch_size);
    in_ = nullptr;
    in_pos_ = 0;
    pos_ = end_ = 0;
    t.RecordOpen();
    return Status::OK();
  }

  Result<Batch*> NextBatch(ExecContext* ctx) override {
    OpTimer t(op_, ctx);
    while (true) {
      ResetOut();
      const bool analyze = ctx->op_actuals != nullptr;
      const double t0 = analyze ? ctx->analyze_clock->NowMs() : 0.0;
      probes_ = 0;
      outer_ms_ = 0.0;
      TAURUS_ASSIGN_OR_RETURN(bool more, FillOut(ctx));
      // Every candidate counts as scanned before any filter sees it, as
      // IndexLookupIter charges each row it reads.
      TAURUS_RETURN_IF_ERROR(
          ctx->ChargeScannedRows(static_cast<int64_t>(out_.size)));
      TAURUS_RETURN_IF_ERROR(FilterBatch(lookup_->filters, &out_, ctx));
      if (analyze && (probes_ > 0 || !out_.sel.empty())) {
        OpActual& a = ctx->op_actuals->At(lookup_);
        a.loops += probes_;
        a.rows += static_cast<int64_t>(out_.sel.size());
        a.time_ms += ctx->analyze_clock->NowMs() - t0 - outer_ms_;
      }
      TAURUS_RETURN_IF_ERROR(FilterBatch(op_->conds, &out_, ctx));
      if (!out_.sel.empty()) {
        t.RecordRows(static_cast<int64_t>(out_.sel.size()));
        return &out_;
      }
      if (!more) {
        t.RecordRows(0);
        return nullptr;
      }
    }
  }

 private:
  void ResetOut() {
    for (int r : outer_refs_) out_.cols[static_cast<size_t>(r)].clear();
    out_.cols[inner_slot_].clear();
    out_.sel.clear();
    out_.size = 0;
  }

  /// Fills the output batch with up to cap_ candidate pairs. Returns false
  /// when the outer input is exhausted (a partial batch may remain).
  Result<bool> FillOut(ExecContext* ctx) {
    while (static_cast<int64_t>(out_.size) < cap_) {
      if (pos_ < end_) {
        AppendRun();
        continue;
      }
      if (in_ == nullptr || in_pos_ >= in_->sel.size()) {
        const double t0 =
            ctx->op_actuals != nullptr ? ctx->analyze_clock->NowMs() : 0.0;
        TAURUS_ASSIGN_OR_RETURN(Batch* nb, child_->NextBatch(ctx));
        if (ctx->op_actuals != nullptr) {
          outer_ms_ += ctx->analyze_clock->NowMs() - t0;
        }
        if (nb == nullptr) {
          in_ = nullptr;
          return false;
        }
        in_ = nb;
        in_pos_ = 0;
        TAURUS_RETURN_IF_ERROR(PrepareInput(ctx));
      }
      Probe(ctx);
    }
    return true;
  }

  /// Evaluates the lookup keys over the newly pulled outer batch.
  Status PrepareInput(ExecContext* ctx) {
    const size_t nk = lookup_->lookup_keys.size();
    keys_.resize(nk);
    for (size_t k = 0; k < nk; ++k) {
      TAURUS_RETURN_IF_ERROR(
          EvalBatchValues(*lookup_->lookup_keys[k], *in_, ctx, &keys_[k]));
    }
    key_.resize(nk);
    return Status::OK();
  }

  /// Probes the index for the next outer row and captures its outer slots.
  void Probe(ExecContext* ctx) {
    const size_t i = in_pos_++;
    ++ctx->index_lookups;
    ++probes_;
    pos_ = end_ = 0;
    for (size_t k = 0; k < keys_.size(); ++k) {
      if (keys_[k][i].is_null()) return;  // equality with NULL never matches
      key_[k] = keys_[k].Take(i);  // each entry is probed once
    }
    auto [b, e] = index_->EqualRange(key_);
    pos_ = b;
    end_ = e;
    const uint32_t prow = in_->sel[i];
    for (size_t j = 0; j < outer_refs_.size(); ++j) {
      const size_t slot = static_cast<size_t>(outer_refs_[j]);
      outer_rows_[j] =
          in_->active[slot] != 0
              ? in_->cols[slot][prow]
              : (in_->base != nullptr ? (*in_->base)[slot] : nullptr);
    }
  }

  /// Appends as many of the current outer row's matches as fit.
  void AppendRun() {
    const size_t n = std::min(end_ - pos_, static_cast<size_t>(cap_) -
                                               out_.size);
    for (size_t j = 0; j < outer_refs_.size(); ++j) {
      std::vector<const Row*>& col =
          out_.cols[static_cast<size_t>(outer_refs_[j])];
      col.insert(col.end(), n, outer_rows_[j]);
    }
    std::vector<const Row*>& inner = out_.cols[inner_slot_];
    for (size_t p = pos_; p < pos_ + n; ++p) {
      inner.push_back(&data_->row(index_->row_id(p)));
    }
    for (size_t p = 0; p < n; ++p) {
      out_.sel.push_back(static_cast<uint32_t>(out_.size + p));
    }
    out_.size += n;
    pos_ += n;
  }

  const PhysOp* op_;
  const PhysOp* lookup_;
  std::vector<int> outer_refs_;
  size_t inner_slot_;
  std::unique_ptr<BatchOp> child_;
  const TableData* data_ = nullptr;
  const OrderedIndex* index_ = nullptr;

  Batch out_;
  int64_t cap_ = 1;
  // Lookup-leaf actuals of the current NextBatch: probes made, and time
  // spent pulling the outer side (not the lookup's own time).
  int64_t probes_ = 0;
  double outer_ms_ = 0.0;

  // Outer-input cursor and the current outer row's match run [pos_, end_)
  // (survive across NextBatch calls).
  Batch* in_ = nullptr;
  size_t in_pos_ = 0;
  size_t pos_ = 0, end_ = 0;
  std::vector<const Row*> outer_rows_;  ///< per outer ref, current row
  std::vector<BatchValues> keys_;       ///< per key expr, per sel entry
  Row key_;                             ///< reused probe key
};

/// Frame->Batch adapter: drives a Volcano subtree row by row and buffers
/// its slots into batches so everything above runs vectorized. Only valid
/// over subtrees whose row pointers stay put while buffered (no
/// UnstableSlots). Actuals for the buffered subtree come from its own
/// AnalyzeIter wrappers — this adapter records nothing.
class FrameSourceBatchOp : public BatchOp {
 public:
  FrameSourceBatchOp(const PhysOp* op, std::unique_ptr<FrameIter> iter)
      : refs_(SubtreeRefs(*op)), iter_(std::move(iter)) {}

  Status Open(Frame* frame, ExecContext* ctx) override {
    frame_ = frame;
    batch_.Reset(frame->size(), frame);
    for (int r : refs_) batch_.Activate(r);
    cap_ = std::max<int64_t>(1, ctx->batch_size);
    return iter_->Open(frame, ctx);
  }

  Result<Batch*> NextBatch(ExecContext* ctx) override {
    for (int r : refs_) batch_.cols[static_cast<size_t>(r)].clear();
    batch_.sel.clear();
    batch_.size = 0;
    while (static_cast<int64_t>(batch_.size) < cap_) {
      TAURUS_ASSIGN_OR_RETURN(bool has, iter_->Next(frame_, ctx));
      if (!has) break;
      for (int r : refs_) {
        const size_t slot = static_cast<size_t>(r);
        batch_.cols[slot].push_back((*frame_)[slot]);
      }
      batch_.sel.push_back(static_cast<uint32_t>(batch_.size));
      ++batch_.size;
    }
    if (batch_.sel.empty()) return nullptr;
    return &batch_;
  }

 private:
  std::vector<int> refs_;
  std::unique_ptr<FrameIter> iter_;
  Frame* frame_ = nullptr;
  int64_t cap_ = 1;
  Batch batch_;
};

/// Batch->Frame adapter: lets a Volcano consumer pull rows off a fully
/// batch-native chain one at a time.
class BatchIterAdapter : public FrameIter {
 public:
  BatchIterAdapter(const PhysOp* op, std::unique_ptr<BatchOp> chain)
      : refs_(SubtreeRefs(*op)), chain_(std::move(chain)) {}

  Status Open(Frame* frame, ExecContext* ctx) override {
    cur_ = nullptr;
    pos_ = 0;
    return chain_->Open(frame, ctx);
  }

  Result<bool> Next(Frame* frame, ExecContext* ctx) override {
    while (cur_ == nullptr || pos_ >= cur_->sel.size()) {
      TAURUS_ASSIGN_OR_RETURN(cur_, chain_->NextBatch(ctx));
      pos_ = 0;
      if (cur_ == nullptr) {
        ClearSlots(frame, refs_);
        return false;
      }
      ++ctx->batches;
      ctx->batch_rows += static_cast<int64_t>(cur_->sel.size());
    }
    cur_->FillFrame(cur_->sel[pos_++], frame);
    return true;
  }

 private:
  std::vector<int> refs_;
  std::unique_ptr<BatchOp> chain_;
  Batch* cur_ = nullptr;
  size_t pos_ = 0;
};

/// Recursive chain builder. Strict mode (worker chains, Batch->Frame
/// grafts) refuses any non-native operator; lax mode ends the vectorized
/// run with a Frame->Batch source over the foreign subtree when its row
/// pointers are stable.
std::unique_ptr<BatchOp> BuildBatchOp(const PhysOp* op, ExecContext* ctx,
                                      const PipelineShared* shared,
                                      bool strict, BatchChain* chain) {
  const bool analyze = ctx->op_actuals != nullptr;
  switch (op->kind) {
    case PhysOp::Kind::kTableScan: {
      auto scan = std::make_unique<BatchTableScan>(op);
      chain->driver = scan.get();
      ++chain->native_ops;
      return scan;
    }
    case PhysOp::Kind::kFilter: {
      std::unique_ptr<BatchOp> child =
          BuildBatchOp(op->child.get(), ctx, shared, strict, chain);
      if (child == nullptr) return nullptr;
      ++chain->native_ops;
      return std::make_unique<BatchFilter>(op, std::move(child));
    }
    case PhysOp::Kind::kHashJoin: {
      if (!HashJoinBatchNative(*op)) break;
      HashJoinLayout layout = MakeHashJoinLayout(*op);
      const PhysOp* probe_child =
          layout.build_is_left ? op->right.get() : op->child.get();
      const PhysOp* build_child =
          layout.build_is_left ? op->child.get() : op->right.get();
      std::unique_ptr<BatchOp> child =
          BuildBatchOp(probe_child, ctx, shared, strict, chain);
      if (child == nullptr) return nullptr;
      if (shared != nullptr) {
        auto it = shared->hash_states.find(op);
        if (it == shared->hash_states.end()) return nullptr;
        ++chain->native_ops;
        return std::make_unique<BatchHashJoinProbe>(op, std::move(child),
                                                    nullptr, &it->second);
      }
      // The build side is drained fully by FillHashJoinState, so it may
      // itself run vectorized behind a Batch->Frame adapter.
      std::unique_ptr<FrameIter> build =
          ChildIter(build_child, analyze, ctx, /*allow_batch=*/true);
      ++chain->native_ops;
      return std::make_unique<BatchHashJoinProbe>(op, std::move(child),
                                                  std::move(build), nullptr);
    }
    case PhysOp::Kind::kNLJoin: {
      if (!IndexNLJoinBatchNative(*op)) break;
      std::unique_ptr<BatchOp> child =
          BuildBatchOp(op->child.get(), ctx, shared, strict, chain);
      if (child == nullptr) return nullptr;
      ++chain->native_ops;
      return std::make_unique<BatchIndexNLJoin>(op, std::move(child));
    }
    default:
      break;
  }
  if (strict) return nullptr;
  // The adapter keeps a batch of row pointers: the same lifetime rule as
  // any buffering operator. Hash-join entries hold the producers' own
  // pointers, so a join rebuilt under a nested loop invalidates none.
  if (!UnstableSlots(*op, ctx->is_worker_shard).empty()) return nullptr;
  std::unique_ptr<FrameIter> iter =
      BuildIter(op, analyze, ctx, /*allow_batch=*/true);
  if (iter == nullptr) return nullptr;
  return std::make_unique<FrameSourceBatchOp>(op, std::move(iter));
}

}  // namespace

Status BatchTableScan::Open(Frame* frame, ExecContext* ctx) {
  OpTimer t(op_, ctx);
  data_ = ctx->storage->Get(op_->leaf->table->id);
  if (data_ == nullptr) {
    return Status::Internal("no storage for table " + op_->leaf->table_name);
  }
  pos_ = ranged_ ? range_begin_ : 0;
  end_ = ranged_ ? std::min(range_end_, data_->NumRows()) : data_->NumRows();
  cap_ = std::max<int64_t>(1, ctx->batch_size);
  batch_.Reset(frame->size(), frame);
  batch_.Activate(op_->leaf->ref_id);
  t.RecordOpen();
  return Status::OK();
}

Result<Batch*> BatchTableScan::NextBatch(ExecContext* ctx) {
  OpTimer t(op_, ctx);
  const size_t slot = static_cast<size_t>(op_->leaf->ref_id);
  std::vector<const Row*>& col = batch_.cols[slot];
  while (pos_ < end_) {
    const size_t n = std::min(static_cast<size_t>(cap_), end_ - pos_);
    col.resize(n);
    for (size_t i = 0; i < n; ++i) col[i] = &data_->row(pos_ + i);
    pos_ += n;
    batch_.size = n;
    batch_.sel.resize(n);
    for (size_t i = 0; i < n; ++i) batch_.sel[i] = static_cast<uint32_t>(i);
    // Charged before the filters run, in scan order, so the row-budget
    // kill fires at the same global count as the row-at-a-time scan.
    TAURUS_RETURN_IF_ERROR(ctx->ChargeScannedRows(static_cast<int64_t>(n)));
    TAURUS_RETURN_IF_ERROR(FilterBatch(op_->filters, &batch_, ctx));
    if (!batch_.sel.empty()) {
      t.RecordRows(static_cast<int64_t>(batch_.sel.size()));
      return &batch_;
    }
  }
  t.RecordRows(0);
  return nullptr;
}

bool HashJoinBatchNative(const PhysOp& op) {
  if (op.kind != PhysOp::Kind::kHashJoin) return false;
  switch (op.join_type) {
    case JoinType::kInner:
    case JoinType::kCross:
      return true;
    case JoinType::kLeft:
      // Unmatched-probe detection is per row (candidates empty), which a
      // residual condition would break: conds can reject every candidate
      // after the fact, and that must emit a NULL-extended row instead.
      return op.conds.empty();
    default:
      return false;  // semi/anti need interleaved matched-tracking
  }
}

bool IndexNLJoinBatchNative(const PhysOp& op) {
  return op.kind == PhysOp::Kind::kNLJoin &&
         (op.join_type == JoinType::kInner ||
          op.join_type == JoinType::kCross) &&
         op.right->kind == PhysOp::Kind::kIndexLookup;
}

BatchChain BuildBatchChain(const PhysOp* op, ExecContext* ctx,
                           const PipelineShared* shared) {
  BatchChain chain;
  if (ctx == nullptr || !ctx->use_batch) return chain;
  chain.root = BuildBatchOp(op, ctx, shared, /*strict=*/shared != nullptr,
                            &chain);
  if (chain.root == nullptr) {
    chain.driver = nullptr;
    chain.native_ops = 0;
  }
  return chain;
}

std::unique_ptr<FrameIter> MakeBatchIterAdapter(const PhysOp* op,
                                                ExecContext* ctx) {
  if (ctx == nullptr || !ctx->use_batch) return nullptr;
  BatchChain chain;
  chain.root =
      BuildBatchOp(op, ctx, /*shared=*/nullptr, /*strict=*/true, &chain);
  if (chain.root == nullptr || chain.native_ops == 0) return nullptr;
  return std::make_unique<BatchIterAdapter>(op, std::move(chain.root));
}

}  // namespace taurus
