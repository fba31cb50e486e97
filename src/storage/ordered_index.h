#ifndef TAURUS_STORAGE_ORDERED_INDEX_H_
#define TAURUS_STORAGE_ORDERED_INDEX_H_

#include <cstdint>
#include <utility>
#include <vector>

#include "catalog/schema.h"
#include "types/value.h"

namespace taurus {

/// An ordered (B-tree-like) index: the base table's row ids sorted by key,
/// supporting point lookups, key-prefix lookups and range scans. The index
/// holds no key copies; key values are read from the table's own rows.
/// Entries with equal keys are ordered by row id. Built once after bulk
/// load, which matches the read-only benchmark workloads. The sorted-array
/// representation has the same asymptotics as a B-tree for lookups
/// (O(log n) + sequential leaf scan) and keeps the cost model's
/// random-vs-sequential distinction meaningful.
class OrderedIndex {
 public:
  OrderedIndex(const IndexDef* def) : def_(def) {}  // NOLINT: internal type

  const IndexDef& def() const { return *def_; }
  size_t NumEntries() const { return row_ids_.size(); }
  /// Base-table row id of the `i`-th entry in key order.
  uint32_t row_id(size_t i) const { return row_ids_[i]; }

  /// Bulk-builds the index over `rows`, which must outlive the index and
  /// keep the indexed rows at their positions.
  void Build(const std::vector<Row>& rows);

  /// Returns the [begin, end) entry range whose first key columns equal
  /// `prefix` (prefix.size() <= number of key columns). This is the "ref"
  /// access path MySQL uses for index lookups under nested-loop joins.
  std::pair<size_t, size_t> EqualRange(const Row& prefix) const;

  /// Returns the [begin, end) range of entries whose first key column lies
  /// in [lo, hi] with the given inclusivities; a nullptr bound means
  /// unbounded. A comparison with NULL is never true, so the range never
  /// holds NULL keys and is empty when a bound is a NULL value.
  std::pair<size_t, size_t> Range(const Value* lo, bool lo_inclusive,
                                  const Value* hi, bool hi_inclusive) const;

 private:
  /// Key column `k` of the entry for base row `row_id`.
  const Value& Key(uint32_t row_id, size_t k) const {
    return (*rows_)[row_id][static_cast<size_t>(def_->column_idx[k])];
  }

  /// Lexicographic compare of the entry's first `prefix.size()` key
  /// columns against `prefix`.
  int ComparePrefix(uint32_t row_id, const Row& prefix) const;

  const IndexDef* def_;
  const std::vector<Row>* rows_ = nullptr;
  std::vector<uint32_t> row_ids_;
};

}  // namespace taurus

#endif  // TAURUS_STORAGE_ORDERED_INDEX_H_
