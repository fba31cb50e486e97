// Self-tests for the benchmark's own code: the percentile helper, the
// result checker and the seeded point generator. Exits non-zero on the
// first failed check; run.py runs it before every benchmark run.

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "harness.h"

namespace {

using taurus::Row;
using taurus::Value;

int failures = 0;

void Check(bool ok, const char* what) {
  if (!ok) {
    std::fprintf(stderr, "selftest FAILED: %s\n", what);
    ++failures;
  }
}

void TestPercentile() {
  std::vector<double> hundred;
  for (int i = 100; i >= 1; --i) hundred.push_back(i);
  Check(e2ebench::Percentile(hundred, 50) == 50, "p50 of 1..100 is 50");
  Check(e2ebench::Percentile(hundred, 99) == 99, "p99 of 1..100 is 99");
  Check(e2ebench::Percentile(hundred, 100) == 100, "p100 of 1..100 is 100");
  Check(e2ebench::Percentile(hundred, 0) == 1, "p0 of 1..100 is 1");
  Check(e2ebench::Percentile({3, 1, 2}, 50) == 2, "p50 of {3,1,2} is 2");
  Check(e2ebench::Percentile({7}, 99) == 7, "p99 of one sample");
  Check(e2ebench::Percentile({}, 50) == 0, "empty input gives 0");
  // 99 statements where one is far slower: p99 is a measured sample of
  // the slow one, never a value between the two groups.
  std::vector<double> suite(98, 1.0);
  suite.push_back(60.0);
  Check(e2ebench::Percentile(suite, 99) == 60.0, "p99 lands on a sample");
}

std::vector<Row> SampleRows() {
  return {
      {Value::Int(1), Value::Str("a"), Value::Double(10.5)},
      {Value::Int(2), Value::Str("b"), Value::Double(-3.25)},
      {Value::Int(2), Value::Null(), Value::Double(0.0)},
  };
}

void TestRowsMatch() {
  std::string why;
  std::vector<Row> reordered = SampleRows();
  std::swap(reordered[0], reordered[2]);
  Check(e2ebench::RowsMatch(reordered, SampleRows(), &why),
        "row order does not matter");

  std::vector<Row> rounded = SampleRows();
  rounded[0][2] = Value::Double(10.5 * (1 + 1e-9));
  Check(e2ebench::RowsMatch(rounded, SampleRows(), &why),
        "float rounding within tolerance matches");

  std::vector<Row> changed = SampleRows();
  changed[1][2] = Value::Double(-3.5);
  Check(!e2ebench::RowsMatch(changed, SampleRows(), &why),
        "one changed value is caught");

  std::vector<Row> renamed = SampleRows();
  renamed[0][1] = Value::Str("z");
  Check(!e2ebench::RowsMatch(renamed, SampleRows(), &why),
        "one changed string is caught");

  std::vector<Row> missing = SampleRows();
  missing.pop_back();
  Check(!e2ebench::RowsMatch(missing, SampleRows(), &why),
        "one missing row is caught");

  std::vector<Row> duplicated = SampleRows();
  duplicated[2] = duplicated[1];
  Check(!e2ebench::RowsMatch(duplicated, SampleRows(), &why),
        "multiset: a duplicate does not stand in for another row");

  std::vector<Row> nulled = SampleRows();
  nulled[0][0] = Value::Null();
  Check(!e2ebench::RowsMatch(nulled, SampleRows(), &why),
        "NULL differs from a number");
}

e2ebench::PointData SyntheticPointData() {
  e2ebench::PointData data;
  for (int64_t n = 0; n < 5; ++n) {
    data.nations[n] = {Value::Int(n), Value::Str("nation" + std::to_string(n))};
  }
  for (int64_t c = 1; c <= 20; ++c) {
    data.customers[c] = {Value::Int(c), Value::Str("cust" + std::to_string(c)),
                         Value::Double(c * 1.5), Value::Int(c % 5)};
  }
  for (int64_t o = 1; o <= 500; ++o) {
    const int64_t key = o * 4;  // sparse keys, as generated order keys are
    data.orders[key] = {Value::Int(key), Value::Int(1 + o % 20),
                        Value::Str("O"), Value::Double(o * 2.25),
                        Value::Date(9000 + o)};
    data.order_keys.push_back(key);
  }
  return data;
}

std::vector<std::string> Stream(const e2ebench::PointData& data, uint64_t seed,
                                int session, int n) {
  e2ebench::PointGenerator gen(&data, seed, session);
  std::vector<std::string> out;
  for (int i = 0; i < n; ++i) out.push_back(gen.Next().sql);
  return out;
}

void TestGenerator() {
  e2ebench::PointData a = SyntheticPointData();
  e2ebench::PointData b = SyntheticPointData();
  e2ebench::ChooseHotKeys(&a, 42, 16);
  e2ebench::ChooseHotKeys(&b, 42, 16);
  Check(a.hot_keys == b.hot_keys, "hot set is fixed by the seed");
  Check(a.hot_keys.size() == 16, "hot set has 16 keys");
  e2ebench::ChooseHotKeys(&b, 43, 16);
  Check(a.hot_keys != b.hot_keys, "another seed picks another hot set");

  Check(Stream(a, 42, 0, 200) == Stream(a, 42, 0, 200),
        "same seed gives an identical stream");
  Check(Stream(a, 42, 0, 200) != Stream(a, 43, 0, 200),
        "another seed gives another stream");
  Check(Stream(a, 42, 0, 200) != Stream(a, 42, 1, 200),
        "sessions get different streams");

  std::vector<size_t> order = e2ebench::SuiteOrder(99, 42, 3);
  Check(order == e2ebench::SuiteOrder(99, 42, 3),
        "same seed and pass give the same suite order");
  Check(order != e2ebench::SuiteOrder(99, 43, 3) &&
            order != e2ebench::SuiteOrder(99, 42, 4),
        "another seed or pass gives another suite order");
  std::vector<size_t> sorted = order;
  std::sort(sorted.begin(), sorted.end());
  bool permutation = sorted.size() == 99;
  for (size_t i = 0; permutation && i < sorted.size(); ++i) {
    permutation = sorted[i] == i;
  }
  Check(permutation, "a suite pass runs every query exactly once");

  int joins = 0;
  e2ebench::PointGenerator gen(&a, 7, 0);
  for (int i = 0; i < 1000; ++i) {
    e2ebench::PointStatement s = gen.Next();
    Check(s.expected.size() == 1, "every point statement expects one row");
    if (s.sql.find("nation") != std::string::npos) ++joins;
  }
  Check(joins > 400 && joins < 600, "about half the statements are joins");

  e2ebench::PointStatement join = e2ebench::MakePointStatement(a, 8, true);
  // Order 8 is o = 2: customer 3, nation 3.
  Check(join.expected[0][1].AsString() == "cust3" &&
            join.expected[0][3].AsString() == "nation3",
        "join expectation follows the keys");
}

}  // namespace

int main() {
  TestPercentile();
  TestRowsMatch();
  TestGenerator();
  if (failures != 0) return 1;
  std::printf("selftest: all checks passed\n");
  return 0;
}
