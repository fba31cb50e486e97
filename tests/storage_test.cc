#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include "storage/storage.h"

namespace taurus {
namespace {

class StorageTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto t = catalog_.CreateTable(
        "items", {{"id", TypeId::kLong, 0, false},
                  {"grp", TypeId::kLong, 0, false},
                  {"name", TypeId::kVarchar, 20, true}});
    ASSERT_TRUE(t.ok());
    table_ = *t;
    ASSERT_TRUE(catalog_.AddIndex("items", {"pk", {0}, true, true}).ok());
    ASSERT_TRUE(catalog_.AddIndex("items", {"by_grp", {1, 0}, false, false}).ok());
    data_ = storage_.CreateTable(table_);
    for (int i = 0; i < 100; ++i) {
      data_->Append({Value::Int(i), Value::Int(i % 10),
                     i % 7 == 0 ? Value::Null()
                                : Value::Str("n" + std::to_string(i))});
    }
    data_->BuildIndexes();
  }

  Catalog catalog_;
  Storage storage_;
  TableDef* table_ = nullptr;
  TableData* data_ = nullptr;
};

TEST_F(StorageTest, RowsStored) {
  EXPECT_EQ(data_->NumRows(), 100u);
  EXPECT_EQ(data_->row(42)[0].AsInt(), 42);
  EXPECT_EQ(storage_.Get(table_->id), data_);
  EXPECT_EQ(storage_.Get(12345), nullptr);
}

TEST_F(StorageTest, PrimaryIndexPointLookup) {
  const OrderedIndex& pk = data_->index(0);
  EXPECT_EQ(pk.NumEntries(), 100u);
  auto [b, e] = pk.EqualRange(Row{Value::Int(55)});
  ASSERT_EQ(e - b, 1u);
  EXPECT_EQ(data_->row(pk.row_id(b))[0].AsInt(), 55);
}

TEST_F(StorageTest, LookupMiss) {
  auto [b, e] = data_->index(0).EqualRange(Row{Value::Int(1000)});
  EXPECT_EQ(b, e);
}

TEST_F(StorageTest, SecondaryPrefixLookup) {
  // Key prefix (grp) matches 10 rows.
  auto [b, e] = data_->index(1).EqualRange(Row{Value::Int(3)});
  EXPECT_EQ(e - b, 10u);
  // Full composite key matches exactly one.
  auto [b2, e2] = data_->index(1).EqualRange(Row{Value::Int(3), Value::Int(13)});
  EXPECT_EQ(e2 - b2, 1u);
}

TEST_F(StorageTest, IndexEntriesSortedByKey) {
  const OrderedIndex& idx = data_->index(1);
  for (size_t i = 1; i < idx.NumEntries(); ++i) {
    int64_t prev = data_->row(idx.row_id(i - 1))[1].AsInt();
    int64_t cur = data_->row(idx.row_id(i))[1].AsInt();
    EXPECT_LE(prev, cur);
  }
}

TEST_F(StorageTest, RangeScan) {
  const OrderedIndex& pk = data_->index(0);
  Value lo = Value::Int(10), hi = Value::Int(20);
  auto [b, e] = pk.Range(&lo, true, &hi, false);
  EXPECT_EQ(e - b, 10u);  // [10, 20)
  auto [b2, e2] = pk.Range(&lo, false, &hi, true);
  EXPECT_EQ(e2 - b2, 10u);  // (10, 20]
  auto [b3, e3] = pk.Range(nullptr, true, &hi, false);
  EXPECT_EQ(e3 - b3, 20u);  // < 20
  auto [b4, e4] = pk.Range(&lo, true, nullptr, false);
  EXPECT_EQ(e4 - b4, 90u);  // >= 10
}

TEST_F(StorageTest, EmptyRangeWhenBoundsCross) {
  const OrderedIndex& pk = data_->index(0);
  Value lo = Value::Int(50), hi = Value::Int(10);
  auto [b, e] = pk.Range(&lo, true, &hi, true);
  EXPECT_EQ(b, e);
}

TEST_F(StorageTest, ComputeStatsBasics) {
  TableStats stats = ComputeTableStats(*data_, 16);
  EXPECT_EQ(stats.row_count, 100);
  ASSERT_EQ(stats.columns.size(), 3u);
  EXPECT_EQ(stats.columns[0].distinct_count, 100);
  EXPECT_EQ(stats.columns[1].distinct_count, 10);
  EXPECT_EQ(stats.columns[0].null_count, 0);
  // ids 0,7,...,98 have NULL names: 15 rows.
  EXPECT_EQ(stats.columns[2].null_count, 15);
  EXPECT_EQ(stats.columns[0].min_value.AsInt(), 0);
  EXPECT_EQ(stats.columns[0].max_value.AsInt(), 99);
}

TEST_F(StorageTest, ComputeStatsHistogramTypes) {
  TableStats stats = ComputeTableStats(*data_, 16);
  // grp has 10 distinct values <= 16 buckets -> singleton.
  EXPECT_EQ(stats.columns[1].histogram.type(), HistogramType::kSingleton);
  // id has 100 distinct > 16 -> equi-height.
  EXPECT_EQ(stats.columns[0].histogram.type(), HistogramType::kEquiHeight);
  EXPECT_NEAR(stats.columns[1].histogram.SelectivityEquals(Value::Int(4)),
              0.1, 1e-9);
}

TEST_F(StorageTest, UniqueColumnStillGetsHistogram) {
  // The paper lifted MySQL's no-histograms-on-UNIQUE restriction
  // (Section 5.5): our ANALYZE builds them unconditionally.
  TableStats stats = ComputeTableStats(*data_, 16);
  EXPECT_FALSE(stats.columns[0].histogram.empty());
}

TEST_F(StorageTest, RangeNeverReturnsNullKeys) {
  // by_name's first key column is NULL on 15 rows; they sort first.
  ASSERT_TRUE(catalog_.AddIndex("items", {"by_name", {2}, false, false}).ok());
  data_->BuildIndexes();
  const OrderedIndex& by_name = data_->index(2);
  Value hi = Value::Str("n5");
  auto [b, e] = by_name.Range(nullptr, true, &hi, true);
  ASSERT_LT(b, e);
  for (size_t i = b; i < e; ++i) {
    EXPECT_FALSE(data_->row(by_name.row_id(i))[2].is_null());
  }
  auto [b2, e2] = by_name.Range(nullptr, true, nullptr, true);
  EXPECT_EQ(e2 - b2, 85u);
  Value null = Value::Null();
  auto [b3, e3] = by_name.Range(&null, true, nullptr, true);
  EXPECT_EQ(b3, e3);
  auto [b4, e4] = by_name.Range(nullptr, true, &null, true);
  EXPECT_EQ(b4, e4);
}

/// Randomized check of OrderedIndex against brute force over the base rows:
/// key order with row-id tie-break, EqualRange on every prefix length, and
/// Range under every inclusivity combination with NULL and open bounds.
class OrderedIndexPropertyTest : public ::testing::Test {
 protected:
  static constexpr int kRows = 400;

  void SetUp() override {
    auto t = catalog_.CreateTable("p", {{"i", TypeId::kLong, 0, true},
                                        {"d", TypeId::kDouble, 0, true},
                                        {"s", TypeId::kVarchar, 8, true}});
    ASSERT_TRUE(t.ok());
    ASSERT_TRUE(catalog_.AddIndex("p", {"by_i", {0}, false, false}).ok());
    ASSERT_TRUE(catalog_.AddIndex("p", {"by_d", {1}, false, false}).ok());
    ASSERT_TRUE(catalog_.AddIndex("p", {"by_s", {2}, false, false}).ok());
    ASSERT_TRUE(catalog_.AddIndex("p", {"by_s_i", {2, 0}, false, false}).ok());
    ASSERT_TRUE(
        catalog_.AddIndex("p", {"by_i_d_s", {0, 1, 2}, false, false}).ok());
    data_ = storage_.CreateTable(*t);
    // Small domains give long runs of equal keys; ~1 in 8 values is NULL.
    for (int r = 0; r < kRows; ++r) {
      data_->Append({RandomValue(0), RandomValue(1), RandomValue(2)});
    }
    data_->BuildIndexes();
  }

  /// A random non-NULL value of column `col`'s domain.
  Value RandomKey(int col) {
    int k = static_cast<int>(rng_() % 10);
    switch (col) {
      case 0:
        return Value::Int(k - 1);
      case 1:
        return Value::Double(0.5 * k - 1.0);
      default:
        return Value::Str(std::string(1, static_cast<char>('a' + k)));
    }
  }

  Value RandomValue(int col) {
    return rng_() % 8 == 0 ? Value::Null() : RandomKey(col);
  }

  /// Every row id in index key order, by brute-force sort.
  std::vector<uint32_t> SortedRowIds(const IndexDef& def) {
    std::vector<uint32_t> ids(static_cast<size_t>(kRows));
    for (size_t r = 0; r < ids.size(); ++r) ids[r] = static_cast<uint32_t>(r);
    std::stable_sort(ids.begin(), ids.end(), [&](uint32_t a, uint32_t b) {
      for (int c : def.column_idx) {
        int cmp = Value::Compare(data_->row(a)[static_cast<size_t>(c)],
                                 data_->row(b)[static_cast<size_t>(c)]);
        if (cmp != 0) return cmp < 0;
      }
      return false;
    });
    return ids;
  }

  static std::vector<uint32_t> Slice(const OrderedIndex& index,
                                     std::pair<size_t, size_t> range) {
    std::vector<uint32_t> out;
    for (size_t i = range.first; i < range.second; ++i) {
      out.push_back(index.row_id(i));
    }
    return out;
  }

  std::mt19937_64 rng_{20221014};
  Catalog catalog_;
  Storage storage_;
  TableData* data_ = nullptr;
};

TEST_F(OrderedIndexPropertyTest, KeyOrderWithRowIdTieBreak) {
  for (int x = 0; x < data_->NumIndexes(); ++x) {
    const OrderedIndex& index = data_->index(x);
    ASSERT_EQ(index.NumEntries(), static_cast<size_t>(kRows));
    EXPECT_EQ(Slice(index, {0, index.NumEntries()}),
              SortedRowIds(index.def()))
        << index.def().name;
  }
}

TEST_F(OrderedIndexPropertyTest, EqualRangeMatchesBruteForce) {
  for (int x = 0; x < data_->NumIndexes(); ++x) {
    const OrderedIndex& index = data_->index(x);
    const std::vector<int>& cols = index.def().column_idx;
    std::vector<uint32_t> sorted = SortedRowIds(index.def());
    for (int trial = 0; trial < 200; ++trial) {
      size_t len = 1 + static_cast<size_t>(rng_() % cols.size());
      Row prefix;
      for (size_t k = 0; k < len; ++k) prefix.push_back(RandomValue(cols[k]));
      std::vector<uint32_t> expected;
      for (uint32_t r : sorted) {
        bool match = true;
        for (size_t k = 0; k < len; ++k) {
          match = match && Value::Compare(
                               data_->row(r)[static_cast<size_t>(cols[k])],
                               prefix[k]) == 0;
        }
        if (match) expected.push_back(r);
      }
      EXPECT_EQ(Slice(index, index.EqualRange(prefix)), expected)
          << index.def().name << " prefix " << RowToString(prefix);
    }
  }
}

TEST_F(OrderedIndexPropertyTest, RangeMatchesBruteForce) {
  for (int x = 0; x < data_->NumIndexes(); ++x) {
    const OrderedIndex& index = data_->index(x);
    size_t col = static_cast<size_t>(index.def().column_idx[0]);
    std::vector<uint32_t> sorted = SortedRowIds(index.def());
    for (int trial = 0; trial < 400; ++trial) {
      // Each bound is open, NULL or a domain value, with either inclusivity.
      Value lo_val = RandomValue(static_cast<int>(col));
      Value hi_val = RandomValue(static_cast<int>(col));
      const Value* lo = rng_() % 4 == 0 ? nullptr : &lo_val;
      const Value* hi = rng_() % 4 == 0 ? nullptr : &hi_val;
      bool lo_inc = (trial & 1) != 0;
      bool hi_inc = (trial & 2) != 0;
      std::vector<uint32_t> expected;
      for (uint32_t r : sorted) {
        const Value& key = data_->row(r)[col];
        if (key.is_null() || (lo != nullptr && lo->is_null()) ||
            (hi != nullptr && hi->is_null())) {
          continue;  // a comparison with NULL is never true
        }
        if (lo != nullptr) {
          int c = Value::Compare(key, *lo);
          if (lo_inc ? c < 0 : c <= 0) continue;
        }
        if (hi != nullptr) {
          int c = Value::Compare(key, *hi);
          if (hi_inc ? c > 0 : c >= 0) continue;
        }
        expected.push_back(r);
      }
      EXPECT_EQ(Slice(index, index.Range(lo, lo_inc, hi, hi_inc)), expected)
          << index.def().name << " lo "
          << (lo ? lo->ToString() : "open") << (lo_inc ? " [" : " (")
          << " hi " << (hi ? hi->ToString() : "open") << (hi_inc ? "]" : ")");
    }
  }
}

/// The packed first-key search against the row-reading one over the same
/// rows: an index built with pack_first_key = false is the reference, and
/// both must order the entries alike and return the same ranges for every
/// probe, integer or not.
class PackedIndexTest : public ::testing::Test {
 protected:
  static constexpr int kRows = 500;

  void SetUp() override {
    // Column 0: integers in [-20, 20] with duplicates, negatives, both
    // int64 extremes and ~1 in 8 NULL. Column 1: a small integer domain
    // with NULLs. Column 2: strings. Column 3: integers mixed with doubles.
    for (int r = 0; r < kRows; ++r) {
      Value i0 = rng_() % 8 == 0 ? Value::Null() : Value::Int(SmallInt(20));
      if (r == 7) i0 = Value::Int(INT64_MIN);
      if (r == 11) i0 = Value::Int(INT64_MAX);
      Value i1 = rng_() % 6 == 0 ? Value::Null() : Value::Int(SmallInt(3));
      Value s = Value::Str(std::string(1, static_cast<char>('a' + rng_() % 6)));
      Value mixed = rng_() % 5 == 0 ? Value::Double(0.5 + SmallInt(4))
                                    : Value::Int(SmallInt(4));
      rows_.push_back({i0, i1, s, mixed});
    }
    for (const auto& [cols, packed] :
         std::vector<std::pair<std::vector<int>, bool>>{{{0}, true},
                                                        {{0, 1}, true},
                                                        {{1, 0}, true},
                                                        {{2}, false},
                                                        {{2, 0}, false},
                                                        {{3}, false}}) {
      defs_.push_back(IndexDef{"idx", cols, false, false});
      expect_packed_.push_back(packed);
    }
  }

  /// Uniform in [-m, m].
  int64_t SmallInt(int64_t m) {
    return static_cast<int64_t>(rng_() % static_cast<uint64_t>(2 * m + 1)) - m;
  }

  /// A probe value: mostly integers in and just past column 0's domain,
  /// and sometimes 3.0, 3.5, NULL or a string.
  Value Probe() {
    switch (rng_() % 10) {
      case 0:
        return Value::Double(3.0);
      case 1:
        return Value::Double(3.5);
      case 2:
        return Value::Null();
      case 3:
        return Value::Str("3");
      default:
        return Value::Int(SmallInt(22));
    }
  }

  std::mt19937_64 rng_{20261020};
  std::vector<Row> rows_;
  std::vector<IndexDef> defs_;
  std::vector<bool> expect_packed_;
};

TEST_F(PackedIndexTest, PackedSearchMatchesRowReadingSearch) {
  for (size_t x = 0; x < defs_.size(); ++x) {
    SCOPED_TRACE("index " + std::to_string(x));
    OrderedIndex packed(&defs_[x]);
    OrderedIndex reference(&defs_[x]);
    packed.Build(rows_);
    reference.Build(rows_, /*pack_first_key=*/false);
    EXPECT_EQ(packed.packed(), expect_packed_[x]);
    EXPECT_FALSE(reference.packed());
    ASSERT_EQ(packed.NumEntries(), reference.NumEntries());
    for (size_t i = 0; i < packed.NumEntries(); ++i) {
      ASSERT_EQ(packed.row_id(i), reference.row_id(i)) << "entry " << i;
    }
    const size_t num_keys = defs_[x].column_idx.size();
    for (int trial = 0; trial < 400; ++trial) {
      // 1- and 2-column prefixes; the second column is probed with
      // column 1's domain so composite runs are split, not just missed.
      Row prefix{Probe()};
      if (num_keys > 1 && trial % 2 == 1) {
        prefix.push_back(rng_() % 8 == 0 ? Probe() : Value::Int(SmallInt(3)));
      }
      EXPECT_EQ(packed.EqualRange(prefix), reference.EqualRange(prefix))
          << RowToString(prefix);
    }
    // Range: each bound open, NULL, an integer, 3.0 or 3.5, with every
    // inclusivity.
    for (int trial = 0; trial < 400; ++trial) {
      Value lo_val = Probe();
      Value hi_val = Probe();
      const Value* lo = rng_() % 4 == 0 ? nullptr : &lo_val;
      const Value* hi = rng_() % 4 == 0 ? nullptr : &hi_val;
      const bool lo_inc = (trial & 1) != 0;
      const bool hi_inc = (trial & 2) != 0;
      EXPECT_EQ(packed.Range(lo, lo_inc, hi, hi_inc),
                reference.Range(lo, lo_inc, hi, hi_inc))
          << "lo " << (lo ? lo->ToString() : "open") << (lo_inc ? " [" : " (")
          << " hi " << (hi ? hi->ToString() : "open") << (hi_inc ? "]" : ")");
    }
  }
}

}  // namespace
}  // namespace taurus
