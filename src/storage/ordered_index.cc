#include "storage/ordered_index.h"

#include <algorithm>
#include <cstddef>
#include <numeric>

namespace taurus {

namespace {

/// std::partition_point over [first, last), probing first[1], first[2],
/// first[4], ... before the binary search: the runs of equal keys an index
/// lookup returns are short, so the end of a run is found near its start.
template <typename It, typename Pred>
It GallopPartitionPoint(It first, It last, Pred pred) {
  std::ptrdiff_t n = last - first;
  std::ptrdiff_t step = 1;
  while (step < n && pred(first[step])) step *= 2;
  return std::partition_point(first + step / 2, first + std::min(step, n),
                              pred);
}

}  // namespace

int OrderedIndex::ComparePrefix(uint32_t row_id, std::span<const Value> prefix,
                                size_t from) const {
  size_t n = std::min(def_->column_idx.size(), prefix.size());
  for (size_t k = from; k < n; ++k) {
    int c = Value::Compare(Key(row_id, k), prefix[k]);
    if (c != 0) return c;
  }
  return 0;  // equal on the shared prefix
}

void OrderedIndex::Build(const std::vector<Row>& rows, bool pack_first_key) {
  rows_ = &rows;
  const size_t num_keys = def_->column_idx.size();
  // Orders two entries whose first keys are equal: by the later key
  // columns, then by row id.
  auto later_keys_less = [&](uint32_t a, uint32_t b) {
    for (size_t k = 1; k < num_keys; ++k) {
      int c = Value::Compare(Key(a, k), Key(b, k));
      if (c != 0) return c < 0;
    }
    return a < b;
  };
  const auto num_rows = static_cast<uint32_t>(rows.size());
  packed_ = pack_first_key && num_keys > 0;
  for (uint32_t r = 0; packed_ && r < num_rows; ++r) {
    const Value& key = Key(r, 0);
    packed_ = key.is_null() || key.kind() == Value::Kind::kInt;
  }
  num_nulls_ = 0;
  first_keys_.clear();
  row_ids_.resize(rows.size());
  if (!packed_) {
    std::iota(row_ids_.begin(), row_ids_.end(), uint32_t{0});
    std::sort(row_ids_.begin(), row_ids_.end(), [&](uint32_t a, uint32_t b) {
      int c = num_keys == 0 ? 0 : Value::Compare(Key(a, 0), Key(b, 0));
      return c != 0 ? c < 0 : later_keys_less(a, b);
    });
    return;
  }
  // NULL first keys sort first; the rest sort as (key, row id) pairs.
  std::vector<std::pair<int64_t, uint32_t>> pairs;
  for (uint32_t r = 0; r < num_rows; ++r) {
    const Value& key = Key(r, 0);
    if (key.is_null()) {
      row_ids_[num_nulls_++] = r;
    } else {
      pairs.emplace_back(key.AsInt(), r);
    }
  }
  std::sort(row_ids_.begin(), row_ids_.begin() + num_nulls_, later_keys_less);
  std::sort(pairs.begin(), pairs.end(), [&](const auto& a, const auto& b) {
    return a.first != b.first ? a.first < b.first
                              : later_keys_less(a.second, b.second);
  });
  first_keys_.resize(pairs.size());
  for (size_t i = 0; i < pairs.size(); ++i) {
    first_keys_[i] = pairs[i].first;
    row_ids_[num_nulls_ + i] = pairs[i].second;
  }
}

std::pair<size_t, size_t> OrderedIndex::EqualRangeFrom(
    size_t begin, size_t end, std::span<const Value> prefix,
    size_t from) const {
  const auto first = row_ids_.begin() + static_cast<std::ptrdiff_t>(begin);
  const auto last = row_ids_.begin() + static_cast<std::ptrdiff_t>(end);
  auto lo = std::partition_point(first, last, [&](uint32_t r) {
    return ComparePrefix(r, prefix, from) < 0;
  });
  auto hi = GallopPartitionPoint(lo, last, [&](uint32_t r) {
    return ComparePrefix(r, prefix, from) <= 0;
  });
  return {static_cast<size_t>(lo - row_ids_.begin()),
          static_cast<size_t>(hi - row_ids_.begin())};
}

std::pair<size_t, size_t> OrderedIndex::EqualRange(
    std::span<const Value> prefix) const {
  if (!packed_ || prefix.empty() || prefix[0].kind() != Value::Kind::kInt) {
    return EqualRangeFrom(0, row_ids_.size(), prefix, 0);
  }
  const int64_t key = prefix[0].AsInt();
  auto lo = std::lower_bound(first_keys_.begin(), first_keys_.end(), key);
  auto hi = GallopPartitionPoint(lo, first_keys_.end(),
                                 [key](int64_t k) { return k <= key; });
  const size_t b = num_nulls_ + static_cast<size_t>(lo - first_keys_.begin());
  const size_t e = num_nulls_ + static_cast<size_t>(hi - first_keys_.begin());
  if (prefix.size() < 2 || def_->column_idx.size() < 2 || b == e) {
    return {b, e};
  }
  return EqualRangeFrom(b, e, prefix, 1);
}

std::pair<size_t, size_t> OrderedIndex::Range(const Value* lo,
                                              bool lo_inclusive,
                                              const Value* hi,
                                              bool hi_inclusive) const {
  if ((lo != nullptr && lo->is_null()) || (hi != nullptr && hi->is_null())) {
    return {0, 0};
  }
  auto int_bound = [](const Value* v) {
    return v == nullptr || v->kind() == Value::Kind::kInt;
  };
  if (packed_ && int_bound(lo) && int_bound(hi)) {
    auto first = first_keys_.begin();
    if (lo != nullptr) {
      first = lo_inclusive
                  ? std::lower_bound(first, first_keys_.end(), lo->AsInt())
                  : std::upper_bound(first, first_keys_.end(), lo->AsInt());
    }
    auto last = first_keys_.end();
    if (hi != nullptr) {
      const int64_t h = hi->AsInt();
      last = GallopPartitionPoint(first, last, [&](int64_t k) {
        return hi_inclusive ? k <= h : k < h;
      });
    }
    return {num_nulls_ + static_cast<size_t>(first - first_keys_.begin()),
            num_nulls_ + static_cast<size_t>(last - first_keys_.begin())};
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
