#include "storage/ordered_index.h"

#include <algorithm>
#include <cstddef>
#include <numeric>

namespace taurus {

namespace {

using RowIdIter = std::vector<uint32_t>::const_iterator;

/// std::partition_point over [first, last), probing first[1], first[2],
/// first[4], ... before the binary search: the runs of equal keys an index
/// lookup returns are short, so the end of a run is found near its start.
template <typename Pred>
RowIdIter GallopPartitionPoint(RowIdIter first, RowIdIter last, Pred pred) {
  std::ptrdiff_t n = last - first;
  std::ptrdiff_t step = 1;
  while (step < n && pred(first[step])) step *= 2;
  return std::partition_point(first + step / 2, first + std::min(step, n),
                              pred);
}

}  // namespace

int OrderedIndex::ComparePrefix(uint32_t row_id, const Row& prefix) const {
  size_t n = std::min(def_->column_idx.size(), prefix.size());
  for (size_t k = 0; k < n; ++k) {
    int c = Value::Compare(Key(row_id, k), prefix[k]);
    if (c != 0) return c;
  }
  return 0;  // equal on the shared prefix
}

void OrderedIndex::Build(const std::vector<Row>& rows) {
  rows_ = &rows;
  row_ids_.resize(rows.size());
  std::iota(row_ids_.begin(), row_ids_.end(), uint32_t{0});
  size_t num_keys = def_->column_idx.size();
  std::sort(row_ids_.begin(), row_ids_.end(), [&](uint32_t a, uint32_t b) {
    for (size_t k = 0; k < num_keys; ++k) {
      int c = Value::Compare(Key(a, k), Key(b, k));
      if (c != 0) return c < 0;
    }
    return a < b;
  });
}

std::pair<size_t, size_t> OrderedIndex::EqualRange(const Row& prefix) const {
  auto lo = std::lower_bound(
      row_ids_.begin(), row_ids_.end(), prefix,
      [&](uint32_t r, const Row& p) { return ComparePrefix(r, p) < 0; });
  auto hi = GallopPartitionPoint(lo, row_ids_.end(), [&](uint32_t r) {
    return ComparePrefix(r, prefix) <= 0;
  });
  return {static_cast<size_t>(lo - row_ids_.begin()),
          static_cast<size_t>(hi - row_ids_.begin())};
}

std::pair<size_t, size_t> OrderedIndex::Range(const Value* lo,
                                              bool lo_inclusive,
                                              const Value* hi,
                                              bool hi_inclusive) const {
  if ((lo != nullptr && lo->is_null()) || (hi != nullptr && hi->is_null())) {
    return {0, 0};
  }
  // NULL keys sort first and below any non-NULL bound, so one search
  // skips them together with the keys under the lower bound.
  auto first =
      std::partition_point(row_ids_.begin(), row_ids_.end(), [&](uint32_t r) {
        const Value& key = Key(r, 0);
        if (lo == nullptr) return key.is_null();
        int c = Value::Compare(key, *lo);
        return lo_inclusive ? c < 0 : c <= 0;
      });
  auto last = row_ids_.end();
  if (hi != nullptr) {
    last = GallopPartitionPoint(first, row_ids_.end(), [&](uint32_t r) {
      int c = Value::Compare(Key(r, 0), *hi);
      return hi_inclusive ? c <= 0 : c < 0;
    });
  }
  return {static_cast<size_t>(first - row_ids_.begin()),
          static_cast<size_t>(last - row_ids_.begin())};
}

}  // namespace taurus
