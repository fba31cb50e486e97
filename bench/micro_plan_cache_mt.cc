// Multi-threaded plan-cache throughput, measured two ways, each at 1/4/16
// threads.
//
//   hit_qps_t<N>    — end-to-end hit-path compiles (parse -> fingerprint ->
//                     cache lookup -> rewrite replay -> thaw -> refine)
//                     against one shared engine, every compile a cache hit.
//   lookup_qps_t<N> — raw PlanCache::Lookup on a warm cache, isolating the
//                     cache's mutex-guarded hit path from the compile work
//                     around it.
//
// Throughput is aggregate completed operations / wall time. The raw Lookup
// leg serializes on the cache's one mutex, so it does not scale with
// threads; what matters is that it stays far above the rate the hit path
// asks for (a compile makes one lookup). `hardware_workers` is recorded in
// the JSON so trend consumers can tell multicore and single-core hosts
// apart.
//
// Each leg first runs a discarded warm-up window at its thread count, then
// measures for --ms: on a shared 4-core host, 300 ms legs without a
// warm-up swung several-fold between runs, which hid 2x changes.
//
// Usage: micro_plan_cache_mt [--ms=1000] [--json]
//   --json writes BENCH_plan_cache_mt.json for CI trending.

#include <atomic>
#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "engine/plan_cache.h"
#include "workloads/tpch.h"

using namespace taurus_bench;  // NOLINT

namespace {

// Representative TPC-H shapes spanning scan+agg through multi-way joins.
const int kShapes[] = {1, 3, 5, 6, 9, 10, 12, 14};
constexpr int kNumShapes = 8;

const std::string& TpchQ(int q) {
  return taurus::TpchQueries()[static_cast<size_t>(q - 1)];
}

/// Aggregate ops/sec of `threads` workers hammering `work` (which returns
/// ops completed per call) for ~`duration_ms` of wall time.
template <typename Fn>
double MeasureQps(int threads, int duration_ms, const Fn& work) {
  std::atomic<bool> stop{false};
  std::atomic<long long> total_ops{0};
  std::vector<std::thread> pool;
  pool.reserve(static_cast<size_t>(threads));
  auto start = std::chrono::steady_clock::now();
  for (int t = 0; t < threads; ++t) {
    pool.emplace_back([&, t] {
      long long ops = 0;
      while (!stop.load(std::memory_order_relaxed)) ops += work(t, ops);
      total_ops.fetch_add(ops, std::memory_order_relaxed);
    });
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(duration_ms));
  stop.store(true, std::memory_order_relaxed);
  for (std::thread& th : pool) th.join();
  double secs = std::chrono::duration<double>(
                    std::chrono::steady_clock::now() - start)
                    .count();
  return static_cast<double>(total_ops.load()) / secs;
}

/// MeasureQps after a discarded warm-up window at the same thread count.
template <typename Fn>
double MeasureLeg(int threads, int duration_ms, const Fn& work) {
  constexpr int kWarmupMs = 200;
  MeasureQps(threads, kWarmupMs, work);
  return MeasureQps(threads, duration_ms, work);
}

}  // namespace

int main(int argc, char** argv) {
  const int duration_ms = static_cast<int>(ArgInt(argc, argv, "--ms=", 1000));
  const bool json = ArgFlag(argc, argv, "--json");

  taurus::Database db;
  {
    auto st = taurus::SetupTpch(&db, 0.001);
    if (!st.ok()) {
      std::fprintf(stderr, "setup failed: %s\n", st.ToString().c_str());
      return 1;
    }
  }
  db.router_config().complex_query_threshold = 1;  // every shape detours
  db.plan_cache_config().capacity = 256;

  // Warm every shape on the auto route, then verify hits.
  for (int q : kShapes) {
    auto c = db.Compile(TpchQ(q), taurus::OptimizerPath::kAuto);
    if (!c.ok()) {
      std::fprintf(stderr, "warmup compile failed: %s\n",
                   c.status().ToString().c_str());
      return 1;
    }
  }
  {
    auto c = db.Compile(TpchQ(kShapes[0]), taurus::OptimizerPath::kAuto);
    if (!c.ok() || !(*c)->plan_cache_hit) {
      std::fprintf(stderr, "warm cache did not produce a hit\n");
      return 1;
    }
  }

  PrintHeader("plan-cache hit-path and raw Lookup throughput");
  std::printf("capacity=%zu hardware_workers=%d\n",
              db.plan_cache().capacity(),
              taurus::ThreadPool::HardwareWorkers());

  std::vector<std::pair<std::string, double>> metrics;
  metrics.emplace_back("hardware_workers",
                       taurus::ThreadPool::HardwareWorkers());

  // Leg 1: end-to-end hit-path compiles.
  std::printf("\n%-28s %14s\n", "hit-path compile", "qps");
  double hit_t1 = 0.0, hit_t4 = 0.0;
  for (int threads : {1, 4, 16}) {
    double qps = MeasureLeg(threads, duration_ms, [&](int t, long long i) {
      const int q = kShapes[(t + i) % kNumShapes];
      auto c = db.Compile(TpchQ(q), taurus::OptimizerPath::kAuto);
      if (!c.ok() || !(*c)->plan_cache_hit) std::abort();
      return 1;
    });
    if (threads == 1) hit_t1 = qps;
    if (threads == 4) hit_t4 = qps;
    std::printf("  threads=%-2d %25.0f\n", threads, qps);
    metrics.emplace_back("hit_qps_t" + std::to_string(threads), qps);
  }

  // Leg 2: raw Lookup on a standalone cache — 64 warm keys.
  taurus::PlanCache cache(256);
  std::vector<std::string> keys;
  for (int i = 0; i < 64; ++i) {
    keys.push_back("bench-key-" + std::to_string(i));
    taurus::PlanCacheEntry entry;
    entry.fingerprint = static_cast<uint64_t>(i);
    entry.schema_version = 1;
    entry.stats_version = 1;
    cache.Insert(keys.back(), std::move(entry));
  }
  std::printf("\n%-28s %14s\n", "raw Lookup", "qps");
  double lookup_t1 = 0.0, lookup_t4 = 0.0;
  for (int threads : {1, 4, 16}) {
    double qps = MeasureLeg(threads, duration_ms, [&](int t, long long i) {
      const std::string& key =
          keys[static_cast<size_t>(t * 7 + i) % keys.size()];
      auto e = cache.Lookup(key, 1, 1);
      if (e == nullptr) std::abort();
      return 1;
    });
    if (threads == 1) lookup_t1 = qps;
    if (threads == 4) lookup_t4 = qps;
    std::printf("  threads=%-2d %25.0f\n", threads, qps);
    metrics.emplace_back("lookup_qps_t" + std::to_string(threads), qps);
  }

  const double hit_scaling = hit_t1 > 0 ? hit_t4 / hit_t1 : 0.0;
  const double lookup_scaling = lookup_t1 > 0 ? lookup_t4 / lookup_t1 : 0.0;
  std::printf("\nscaling 1->4 threads: hit-path %.2fx, raw lookup %.2fx\n",
              hit_scaling, lookup_scaling);
  metrics.emplace_back("scaling_1_to_4", hit_scaling);
  metrics.emplace_back("lookup_scaling_1_to_4", lookup_scaling);

  if (json) WriteBenchJson("plan_cache_mt", metrics);
  return 0;
}
