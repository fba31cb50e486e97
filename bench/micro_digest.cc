// Workload-introspection overhead: the statement-digest fold plus the
// flight-recorder ring append happen once per query end, under two leaf
// locks (DESIGN.md section 15). This bench bounds their cost on the
// worst case for fixed per-query overhead — the fastest query we have
// (a plan-cache hit over a 5-row table), where the fold is the largest
// fraction of total work.
//
//   qps_on        — full Database::Query hot path, digests + recorder on
//                   (median round)
//   qps_off       — same loop with both stores disabled (median round)
//   overhead_pct  — median over pairs of (qps_off - qps_on) / qps_off * 100
//   overhead_iqr_pct — interquartile range of those per-pair overheads
//   record_ns     — raw DigestStore::Record cost, isolated
//
// Each pair runs one off round and one on round back to back, swapping
// which goes first from pair to pair, so host drift lands on both modes
// alike and cancels in the pair's ratio. Rounds are short (20 ms) so a
// pair sees little drift, and the median over 201 pairs resists the odd
// disturbed round that skews a best-of or a mean; three runs of one build
// agree within a point, where best-of-3 rounds of 300 ms spread over six.
// The acceptance bar is overhead_pct <= 2 on the hit path.
//
// Usage: micro_digest [--ms=20] [--json]
//   --json writes BENCH_digest.json for CI trending.

#include <algorithm>
#include <chrono>
#include <string>
#include <utility>
#include <vector>

#include "bench_util.h"
#include "engine/database.h"
#include "obs/digest_store.h"
#include "workloads/tpch.h"

using namespace taurus_bench;  // NOLINT

namespace {

/// Completed queries/sec of `duration_ms` of back-to-back Query calls.
double MeasureQueryQps(taurus::Database* db, const std::string& sql,
                       int duration_ms) {
  auto start = std::chrono::steady_clock::now();
  auto deadline = start + std::chrono::milliseconds(duration_ms);
  long long ops = 0;
  while (std::chrono::steady_clock::now() < deadline) {
    auto r = db->Query(sql, taurus::OptimizerPath::kMySql);
    if (!r.ok()) std::abort();
    ++ops;
  }
  double secs = std::chrono::duration<double>(
                    std::chrono::steady_clock::now() - start)
                    .count();
  return static_cast<double>(ops) / secs;
}

/// The `q` quantile (0..1) of `v` by linear interpolation between ranks.
double Quantile(std::vector<double> v, double q) {
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

}  // namespace

int main(int argc, char** argv) {
  const int duration_ms = static_cast<int>(ArgInt(argc, argv, "--ms=", 20));
  const bool json = ArgFlag(argc, argv, "--json");

  taurus::Database db;
  {
    auto st = taurus::SetupTpch(&db, 0.001);
    if (!st.ok()) {
      std::fprintf(stderr, "setup failed: %s\n", st.ToString().c_str());
      return 1;
    }
  }
  const std::string sql = "SELECT COUNT(*) FROM region";
  // Warm: plan compiled and cached, digest row allocated.
  for (int i = 0; i < 3; ++i) {
    auto r = db.Query(sql, taurus::OptimizerPath::kMySql);
    if (!r.ok() || (i > 0 && !r->plan_cache_hit)) {
      std::fprintf(stderr, "warm run did not produce a cache hit\n");
      return 1;
    }
  }

  PrintHeader("workload-introspection overhead (digest fold + ring append)");
  std::printf("query: \"%s\" (plan-cache hit, single thread)\n", sql.c_str());

  constexpr int kPairs = 201;
  std::vector<double> on_qps, off_qps, overheads;
  for (int pair = 0; pair < kPairs; ++pair) {
    double qps[2] = {0.0, 0.0};  // [off, on]
    for (int step = 0; step < 2; ++step) {
      const bool on = (step == 0) == (pair % 2 != 0);
      db.digest_config().enable = on;
      db.flight_recorder_config().enable = on;
      qps[on ? 1 : 0] = MeasureQueryQps(&db, sql, duration_ms);
    }
    off_qps.push_back(qps[0]);
    on_qps.push_back(qps[1]);
    overheads.push_back((qps[0] - qps[1]) / qps[0] * 100.0);
  }
  db.digest_config().enable = true;
  db.flight_recorder_config().enable = true;

  const double qps_on = Quantile(on_qps, 0.5);
  const double qps_off = Quantile(off_qps, 0.5);
  const double overhead_pct = Quantile(overheads, 0.5);
  const double overhead_iqr_pct =
      Quantile(overheads, 0.75) - Quantile(overheads, 0.25);
  std::printf("pairs: %d x 2 rounds of %d ms\n", kPairs, duration_ms);
  std::printf("\n%-22s %14.0f\n", "qps introspection on", qps_on);
  std::printf("%-22s %14.0f\n", "qps introspection off", qps_off);
  std::printf("%-22s %14.2f\n", "overhead_pct", overhead_pct);
  std::printf("%-22s %14.2f\n", "overhead_iqr_pct", overhead_iqr_pct);

  // Raw fold cost, isolated from the query around it.
  taurus::DigestStoreConfig cfg;
  taurus::DigestStore store(cfg);
  taurus::QueryEvent event;
  event.fingerprint = 0x5eedf00d;
  event.canonical = sql;
  constexpr int kRecords = 200000;
  auto t0 = std::chrono::steady_clock::now();
  for (int i = 0; i < kRecords; ++i) {
    store.Record(event, /*error=*/false, /*latency_ms=*/0.05);
  }
  double record_ns = std::chrono::duration<double, std::nano>(
                         std::chrono::steady_clock::now() - t0)
                         .count() /
                     kRecords;
  std::printf("%-22s %14.1f\n", "record_ns", record_ns);

  std::vector<std::pair<std::string, double>> metrics;
  metrics.emplace_back("qps_on", qps_on);
  metrics.emplace_back("qps_off", qps_off);
  metrics.emplace_back("overhead_pct", overhead_pct);
  metrics.emplace_back("overhead_iqr_pct", overhead_iqr_pct);
  metrics.emplace_back("record_ns", record_ns);
  if (json) WriteBenchJson("digest", metrics);
  return 0;
}
