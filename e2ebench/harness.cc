#include "harness.h"

#include <algorithm>
#include <cmath>

namespace e2ebench {

using taurus::Row;
using taurus::Value;

double Percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double n = static_cast<double>(values.size());
  size_t rank = static_cast<size_t>(std::ceil(p / 100.0 * n));
  rank = std::clamp<size_t>(rank, 1, values.size());
  return values[rank - 1];
}

namespace {

bool IsNumber(const Value& v) {
  return v.kind() == Value::Kind::kInt || v.kind() == Value::Kind::kDouble;
}

bool ValuesClose(const Value& a, const Value& b) {
  if (IsNumber(a) && IsNumber(b)) {
    const double x = a.AsDouble();
    const double y = b.AsDouble();
    const double scale = std::max({1.0, std::fabs(x), std::fabs(y)});
    return std::fabs(x - y) <= 1e-6 * scale;
  }
  return Value::Compare(a, b) == 0;
}

bool RowLess(const Row& a, const Row& b) {
  return std::lexicographical_compare(
      a.begin(), a.end(), b.begin(), b.end(),
      [](const Value& x, const Value& y) { return Value::Compare(x, y) < 0; });
}

}  // namespace

bool RowsMatch(std::vector<Row> got, std::vector<Row> want, std::string* why) {
  if (got.size() != want.size()) {
    *why = "row count " + std::to_string(got.size()) + ", expected " +
           std::to_string(want.size());
    return false;
  }
  std::sort(got.begin(), got.end(), RowLess);
  std::sort(want.begin(), want.end(), RowLess);
  for (size_t i = 0; i < got.size(); ++i) {
    bool same = got[i].size() == want[i].size();
    for (size_t c = 0; same && c < got[i].size(); ++c) {
      same = ValuesClose(got[i][c], want[i][c]);
    }
    if (!same) {
      *why = "row " + taurus::RowToString(got[i]) + ", expected " +
             taurus::RowToString(want[i]);
      return false;
    }
  }
  return true;
}

uint64_t DeriveSeed(uint64_t seed, uint64_t stream) {
  uint64_t z = seed + (stream + 1) * 0x9E3779B97F4A7C15ULL;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

std::vector<size_t> SuiteOrder(size_t n, uint64_t seed, uint64_t pass) {
  std::vector<size_t> order(n);
  for (size_t i = 0; i < n; ++i) order[i] = i;
  taurus::Rng rng(DeriveSeed(seed, 2000 + pass));
  for (size_t i = n; i > 1; --i) {
    std::swap(order[i - 1], order[static_cast<size_t>(rng.Next() % i)]);
  }
  return order;
}

uint64_t FoldHash(uint64_t h, const std::string& s) {
  for (unsigned char c : s) {
    h ^= c;
    h *= 1099511628211ULL;
  }
  return h;
}

void ChooseHotKeys(PointData* data, uint64_t seed, size_t count) {
  std::vector<int64_t> keys = data->order_keys;
  taurus::Rng rng(DeriveSeed(seed, 999));
  count = std::min(count, keys.size());
  // Partial Fisher-Yates: the first `count` slots become the hot set.
  for (size_t i = 0; i < count; ++i) {
    size_t j = i + static_cast<size_t>(rng.Next() % (keys.size() - i));
    std::swap(keys[i], keys[j]);
  }
  keys.resize(count);
  data->hot_keys = std::move(keys);
}

PointStatement MakePointStatement(const PointData& data, int64_t key,
                                  bool join) {
  PointStatement out;
  const std::string k = std::to_string(key);
  const Row& order = data.orders.at(key);
  if (!join) {
    out.sql =
        "SELECT o_orderkey, o_custkey, o_orderstatus, o_totalprice, "
        "o_orderdate FROM orders WHERE o_orderkey = " + k;
    out.expected.push_back(order);
    return out;
  }
  out.sql =
      "SELECT o_orderkey, c_name, c_acctbal, n_name FROM orders, customer, "
      "nation WHERE o_orderkey = " + k +
      " AND o_custkey = c_custkey AND c_nationkey = n_nationkey";
  const Row& customer = data.customers.at(order[1].AsInt());
  const Row& nation = data.nations.at(customer[3].AsInt());
  out.expected.push_back({order[0], customer[1], customer[2], nation[1]});
  return out;
}

const char* PointKindName(int kind) {
  static const char* const kNames[] = {"lookup/hot", "lookup/fresh",
                                       "join/hot", "join/fresh"};
  return kNames[kind];
}

PointStatement PointGenerator::Next() {
  const bool join = (rng_.Next() & 1) != 0;
  const bool hot = (rng_.Next() & 1) != 0;
  const std::vector<int64_t>& pool = hot ? data_->hot_keys : data_->order_keys;
  const int64_t key = pool[rng_.Next() % pool.size()];
  PointStatement out = MakePointStatement(*data_, key, join);
  out.kind = 2 * (join ? 1 : 0) + (hot ? 0 : 1);
  return out;
}

}  // namespace e2ebench
