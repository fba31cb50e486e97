#ifndef E2EBENCH_HARNESS_H_
#define E2EBENCH_HARNESS_H_

// The benchmark's own logic that does not need a loaded engine: the
// percentile helper, the result checker and the seeded point-query
// generator. Kept apart from e2ebench.cc so selftest.cc can check it.

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/rng.h"
#include "types/value.h"

namespace e2ebench {

/// Nearest-rank percentile (p in [0, 100]) of `values`; 0 when empty.
/// Nearest rank always returns a measured sample, so a tail percentile
/// never interpolates between two unrelated statements.
double Percentile(std::vector<double> values, double p);

/// Compares two result sets as multisets. Numbers compare with a relative
/// and absolute tolerance of 1e-6 (aggregates may sum in another order);
/// everything else compares exactly. On a mismatch, `why` says what
/// differs.
bool RowsMatch(std::vector<taurus::Row> got, std::vector<taurus::Row> want,
               std::string* why);

/// splitmix64 of (seed, stream): independent sub-seeds from one --seed.
uint64_t DeriveSeed(uint64_t seed, uint64_t stream);

/// The order of suite pass `pass`: a permutation of [0, n) drawn from
/// (seed, pass), so the seed changes the statement stream of a suite
/// workload while every pass still runs each query once.
std::vector<size_t> SuiteOrder(size_t n, uint64_t seed, uint64_t pass);

/// FNV-1a over a string, folded into `h`; used to print a digest of the
/// generated statement stream.
uint64_t FoldHash(uint64_t h, const std::string& s);
inline constexpr uint64_t kFnvOffset = 1469598103934665603ULL;

/// Rows of the three point_sessions tables, read once by a full scan on
/// the reference engine: the oracle the point statements are checked
/// against.
struct PointData {
  /// o_orderkey -> (o_orderkey, o_custkey, o_orderstatus, o_totalprice,
  /// o_orderdate).
  std::unordered_map<int64_t, taurus::Row> orders;
  /// c_custkey -> (c_custkey, c_name, c_acctbal, c_nationkey).
  std::unordered_map<int64_t, taurus::Row> customers;
  /// n_nationkey -> (n_nationkey, n_name).
  std::unordered_map<int64_t, taurus::Row> nations;
  /// Every loaded order key, ascending.
  std::vector<int64_t> order_keys;
  /// Keys of the hot set, shared by all sessions.
  std::vector<int64_t> hot_keys;
};

/// Picks `count` distinct hot keys from data->order_keys, seeded.
void ChooseHotKeys(PointData* data, uint64_t seed, size_t count);

struct PointStatement {
  std::string sql;
  std::vector<taurus::Row> expected;
  /// 2 * join + fresh: 0 hot lookup, 1 fresh lookup, 2 hot join,
  /// 3 fresh join.
  int kind = 0;
};
inline constexpr size_t kPointKinds = 4;
const char* PointKindName(int kind);

/// Builds the statement of one kind for one key, with its expected rows.
/// `join` false: single-table primary-key lookup on orders (one table
/// reference, so the MySQL path at threshold 3). `join` true: the
/// orders-customer-nation key join (three references, so the Orca detour).
PointStatement MakePointStatement(const PointData& data, int64_t key,
                                  bool join);

/// One session's endless, seeded statement stream: half key lookups and
/// half key joins; half the keys from the hot set, half fresh.
class PointGenerator {
 public:
  PointGenerator(const PointData* data, uint64_t seed, int session)
      : data_(data),
        rng_(DeriveSeed(seed, 1000 + static_cast<uint64_t>(session))) {}

  PointStatement Next();

 private:
  const PointData* data_;
  taurus::Rng rng_;
};

}  // namespace e2ebench

#endif  // E2EBENCH_HARNESS_H_
