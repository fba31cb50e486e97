#ifndef TAURUS_EXEC_EXEC_INTERNAL_H_
#define TAURUS_EXEC_EXEC_INTERNAL_H_

// Internals shared between the row-at-a-time Volcano executor
// (block_executor.cc) and the vectorized batch executor
// (batch_executor.cc): the iterator interface, the hash-join build
// machinery (one build, probed by either engine), and the driving-path
// helpers. Not part of the public executor API.

#include <cstdint>
#include <forward_list>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "exec/exec_context.h"
#include "exec/frame.h"
#include "exec/physical_plan.h"

namespace taurus {

/// Returns the ref_ids of all leaves under a physical subtree.
std::vector<int> SubtreeRefs(const PhysOp& op);

void ClearSlots(Frame* frame, const std::vector<int>& refs);

/// Row-at-a-time (Volcano) iterator over a PhysOp subtree.
class FrameIter {
 public:
  virtual ~FrameIter() = default;
  /// (Re)positions the iterator at the start. The frame carries the current
  /// outer bindings; index lookups and correlated derived tables read them
  /// here (a re-Open with new bindings is a "rebind").
  virtual Status Open(Frame* frame, ExecContext* ctx) = 0;
  /// Advances; on success fills this subtree's slots in `frame`.
  virtual Result<bool> Next(Frame* frame, ExecContext* ctx) = 0;
};

/// Static (per-plan-node) hash join shape: which child builds, which slots
/// the build side populates, and the key expressions on each side.
struct HashJoinLayout {
  bool build_is_left = false;
  std::vector<int> build_refs;
  std::vector<const Expr*> build_keys;
  std::vector<const Expr*> probe_keys;
};

/// Convention: the build side is the right child — except for INNER hash
/// joins, where (matching the MySQL quirk the paper reports in Section 7
/// item 2) the BUILD side is the LEFT child and the probe side the right.
HashJoinLayout MakeHashJoinLayout(const PhysOp& op);

/// The slots under `op` whose rows a buffering operator must deep-copy
/// rather than borrow: the row-lifetime rule (DESIGN.md section 13),
/// decided once per operator from the plan. Scans and index accesses bind
/// TableData rows and a non-correlated derived table binds its cached
/// materialization; both live for the whole query. Copied: a correlated
/// derived table (invalidate_on_rebind), whose rows are replaced on every
/// rebind, and — when `worker_shard` — every derived table, because a
/// worker shard's derived_cache and the pipeline's prebuilt hash tables
/// die at pipeline end, before the main thread merges the morsels' output.
std::vector<int> UnstableSlots(const PhysOp& op, bool worker_shard);

/// The materialized build side of a hash join. Built once (serially), then
/// probed — possibly by many workers concurrently, which is safe because
/// probing never mutates it. Entries are stored flat: entry e's key is
/// Key(e)[0, num_keys) and its rows are Rows(e)[0, num_refs), parallel to
/// the layout's build_refs. The rows are the producers' own pointers,
/// except for UnstableSlots, whose rows are copied into `copies`.
///
/// The hash table is flat too (DESIGN.md section 13): `hashes` holds each
/// entry's key hash, `heads` the newest entry of each bucket and `next`
/// each entry's next older entry in its bucket. BuildTable links the
/// entries in build order once the build side is drained, so a probe sees
/// the entries of one hash newest first: the join's output row order
/// depends on it, and it is the order earlier releases produced.
struct HashJoinShared {
  static constexpr uint32_t kNoEntry = UINT32_MAX;

  size_t num_keys = 0;
  size_t num_refs = 0;
  std::vector<Value> keys;
  std::vector<const Row*> rows;
  std::forward_list<Row> copies;  ///< a list: growth never moves a copy
  std::vector<uint64_t> hashes;   ///< per entry: HashRow of its key
  std::vector<uint32_t> heads;    ///< per bucket: newest entry, or kNoEntry
  std::vector<uint32_t> next;     ///< per entry: next older in its bucket

  const Value* Key(size_t e) const { return keys.data() + e * num_keys; }
  const Row* const* Rows(size_t e) const {
    return rows.data() + e * num_refs;
  }

  /// Links every entry into the table: a power-of-two bucket count of at
  /// least the entry count, each bucket a chain from its newest entry.
  void BuildTable();

  /// Appends to `out`, newest first, every entry whose key hash is `hash`
  /// and whose key equals the probe key, whose k-th value is `key_at(k)`.
  template <typename KeyAt>
  void FindMatches(uint64_t hash, KeyAt key_at,
                   std::vector<size_t>* out) const {
    if (heads.empty()) return;
    for (uint32_t e = heads[Bucket(hash)]; e != kNoEntry; e = next[e]) {
      if (hashes[e] != hash) continue;
      const Value* cand = Key(e);
      size_t k = 0;
      while (k < num_keys && cand[k] == key_at(k)) ++k;
      if (k == num_keys) out->push_back(e);
    }
  }

 private:
  /// Fibonacci hashing: the top bits of the product mix every hash bit.
  static constexpr uint64_t kMix = 0x9e3779b97f4a7c15ULL;
  size_t Bucket(uint64_t hash) const {
    return static_cast<size_t>((hash * kMix) >> bucket_shift_);
  }

  int bucket_shift_ = 64;  ///< 64 - log2(heads.size()), set by BuildTable
};

/// Drains `build` into `out` (NULL keys skipped, AGMS build stream fed).
Status FillHashJoinState(const PhysOp& op, const HashJoinLayout& layout,
                         FrameIter* build, Frame* frame, ExecContext* ctx,
                         HashJoinShared* out);

/// The probe/driving child a pipeline descends through (null for leaves).
const PhysOp* DrivingChild(const PhysOp& op);

/// The driving TableScan of an eligible pipeline (null defensively).
const PhysOp* FindDriverScan(const PhysOp* op);

/// Hash-join build sides along the driving path, materialized once on the
/// main thread and probed read-only by all workers.
struct PipelineShared {
  std::unordered_map<const PhysOp*, HashJoinShared> hash_states;
};

/// Builds the Volcano iterator tree for `op`. When `allow_batch` is set
/// (the consumer drains the subtree fully — no LIMIT-style early exit) and
/// `ctx->use_batch` is on, batch-native subtrees are grafted in behind a
/// Batch→Frame adapter so even Volcano-headed plans run their hot segments
/// vectorized. `ctx` may be null (knob treated as off).
std::unique_ptr<FrameIter> BuildIter(const PhysOp* op, bool analyze,
                                     ExecContext* ctx, bool allow_batch);

/// BuildIter for a child subtree position: wraps the whole subtree in a
/// Batch→Frame adapter when it is fully batch-native (and `allow_batch`).
std::unique_ptr<FrameIter> ChildIter(const PhysOp* op, bool analyze,
                                     ExecContext* ctx, bool allow_batch);

}  // namespace taurus

#endif  // TAURUS_EXEC_EXEC_INTERNAL_H_
