#ifndef TAURUS_EXEC_BATCH_EXECUTOR_H_
#define TAURUS_EXEC_BATCH_EXECUTOR_H_

// Vectorized (batch-at-a-time) execution over the same physical plans the
// Volcano executor runs. Operators pull column-major Batches of up to
// ExecContext::batch_size rows; filters shrink the selection vector in
// place, hash-join probes hash whole key vectors against the shared build
// state, index nested-loop joins probe once per outer row and filter their
// candidates as batches, and a Batch<->Frame adapter pair keeps every
// operator the batch engine does not speak (other nested-loop joins, index
// scans, derived scans) on the row-at-a-time path. See DESIGN.md
// section 13.

#include <memory>

#include "exec/batch.h"
#include "exec/exec_internal.h"

namespace taurus {

/// A vectorized operator. The contract differs from FrameIter in two ways:
/// NextBatch never returns a batch with an empty selection (operators loop
/// internally past fully filtered blocks), and nullptr means end of stream.
/// A returned Batch stays valid until the next NextBatch/Open call on the
/// same operator.
class BatchOp {
 public:
  virtual ~BatchOp() = default;
  /// (Re)positions at the start; `frame` carries the outer bindings and
  /// becomes the base frame of every batch this operator emits.
  virtual Status Open(Frame* frame, ExecContext* ctx) = 0;
  virtual Result<Batch*> NextBatch(ExecContext* ctx) = 0;
};

/// The batch-native driving scan, exposed so the morsel executor can
/// reposition worker-private chains with SetRange + Open per morsel
/// (mirroring TableScanIter).
class BatchTableScan : public BatchOp {
 public:
  explicit BatchTableScan(const PhysOp* op) : op_(op) {}

  void SetRange(size_t begin, size_t end) {
    ranged_ = true;
    range_begin_ = begin;
    range_end_ = end;
  }

  const PhysOp* Op() const { return op_; }

  Status Open(Frame* frame, ExecContext* ctx) override;
  Result<Batch*> NextBatch(ExecContext* ctx) override;

 private:
  const PhysOp* op_;
  const TableData* data_ = nullptr;
  size_t pos_ = 0;
  size_t end_ = 0;
  bool ranged_ = false;
  size_t range_begin_ = 0, range_end_ = 0;
  int64_t cap_ = 1;
  Batch batch_;
};

/// A built batch pipeline over the driving chain of one plan subtree.
struct BatchChain {
  std::unique_ptr<BatchOp> root;  ///< null when nothing would vectorize
  /// The repositionable driving scan when the chain bottoms out in a
  /// batch-native TableScan (worker chains require it).
  BatchTableScan* driver = nullptr;
  /// Operators running vectorized (excludes the Frame->Batch source).
  int native_ops = 0;
};

/// True when this hash join's shape has a vectorized probe: inner/cross
/// (residual conds run as a post-emit FilterBatch), or left with no
/// residual condition (matched == candidates nonempty). Semi/anti and
/// conditional left joins need interleaved matched-tracking and stay on
/// the Volcano path. Shared with refine-time AnalyzeBatchSafety so the
/// surfaced flags and the runtime chain builder never disagree.
bool HashJoinBatchNative(const PhysOp& op);

/// True when this nested-loop join runs vectorized (BatchIndexNLJoin): an
/// inner/cross join whose right child is an index lookup, probed once per
/// outer row. Left/semi/anti joins need per-row matched-tracking, and other
/// inner sides re-run a whole subtree per outer row, so both stay on the
/// Volcano path. Shared with refine-time AnalyzeBatchSafety like
/// HashJoinBatchNative.
bool IndexNLJoinBatchNative(const PhysOp& op);

/// Builds a batch pipeline over `op`'s driving chain.
///
/// shared == nullptr (serial form): hash joins build their own state on
/// Open; the topmost run of batch-native operators is vectorized and the
/// first foreign operator below it becomes a Frame->Batch source adapter
/// (Volcano below, batches above) — unless its buffered row pointers could
/// dangle (a slot UnstableSlots names), in which case root stays null.
///
/// shared != nullptr (morsel worker form): strictly batch-native chains
/// only, probing the prebuilt read-only hash states; root is null unless
/// the whole chain down to the TableScan driver vectorizes.
///
/// Returns an empty chain when ctx->use_batch is off or nothing would run
/// vectorized (callers fall back to the Volcano chain).
BatchChain BuildBatchChain(const PhysOp* op, ExecContext* ctx,
                           const PipelineShared* shared);

/// Batch->Frame adapter over a fully batch-native subtree, or null when
/// the subtree does not vectorize end to end. This is how Volcano-headed
/// plans still run their hot segments (hash-join build sides, nested-loop
/// outer sides) vectorized.
std::unique_ptr<FrameIter> MakeBatchIterAdapter(const PhysOp* op,
                                                ExecContext* ctx);

}  // namespace taurus

#endif  // TAURUS_EXEC_BATCH_EXECUTOR_H_
