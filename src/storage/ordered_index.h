#ifndef TAURUS_STORAGE_ORDERED_INDEX_H_
#define TAURUS_STORAGE_ORDERED_INDEX_H_

#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "catalog/schema.h"
#include "types/value.h"

namespace taurus {

/// An ordered (B-tree-like) index: the base table's row ids sorted by key,
/// supporting point lookups, key-prefix lookups and range scans. Entries
/// with equal keys are ordered by row id. Built once after bulk load,
/// which matches the read-only benchmark workloads. The sorted-array
/// representation has the same asymptotics as a B-tree for lookups
/// (O(log n) + sequential leaf scan) and keeps the cost model's
/// random-vs-sequential distinction meaningful.
///
/// When every non-NULL first key is an integer (dates included), the index
/// also keeps the first key column packed as int64_t, parallel to the
/// entries after the NULL prefix, and integer searches run on that array;
/// later key columns are read from the table's rows, inside the run of
/// equal first keys only. Other indexes, and non-integer search keys, read
/// every key from the rows (DESIGN.md section 13).
class OrderedIndex {
 public:
  OrderedIndex(const IndexDef* def) : def_(def) {}  // NOLINT: internal type

  const IndexDef& def() const { return *def_; }
  size_t NumEntries() const { return row_ids_.size(); }
  /// Base-table row id of the `i`-th entry in key order.
  uint32_t row_id(size_t i) const { return row_ids_[i]; }
  /// True when the first key column is packed (see the class comment).
  bool packed() const { return packed_; }

  /// Bulk-builds the index over `rows`, which must outlive the index and
  /// keep the indexed rows at their positions. `pack_first_key = false`
  /// keeps the row-reading search even for integer keys, which tests use
  /// as the reference for the packed one.
  void Build(const std::vector<Row>& rows, bool pack_first_key = true);

  /// Returns the [begin, end) entry range whose first key columns equal
  /// `prefix` (prefix.size() <= number of key columns). This is the "ref"
  /// access path MySQL uses for index lookups under nested-loop joins.
  std::pair<size_t, size_t> EqualRange(std::span<const Value> prefix) const;

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

  /// Lexicographic compare of the entry's key columns [from, n) against
  /// `prefix[from, n)`, where n is the shorter of the key and the prefix.
  int ComparePrefix(uint32_t row_id, std::span<const Value> prefix,
                    size_t from) const;

  /// The entries of [begin, end), which all match `prefix` on the key
  /// columns before `from`, that also match it on the rest.
  std::pair<size_t, size_t> EqualRangeFrom(size_t begin, size_t end,
                                           std::span<const Value> prefix,
                                           size_t from) const;

  const IndexDef* def_;
  const std::vector<Row>* rows_ = nullptr;
  std::vector<uint32_t> row_ids_;
  bool packed_ = false;
  /// Entries [0, num_nulls_) have a NULL first key (set when packed_).
  size_t num_nulls_ = 0;
  /// First key of entry num_nulls_ + i (set when packed_).
  std::vector<int64_t> first_keys_;
};

}  // namespace taurus

#endif  // TAURUS_STORAGE_ORDERED_INDEX_H_
