// Micro-benchmarks (google-benchmark) for the skeleton-plan cache: the
// hit-path compile (fingerprint -> lookup -> rewrite replay -> thaw ->
// refine) against the cold compile (full optimizer run) on TPC-H shapes,
// for both optimizer routes, plus the fingerprint and freeze/thaw
// primitives in isolation. The headline ratio is cold / hit per query —
// the optimizer work the cache amortizes away on repeated statements.
//
// --json writes BENCH_plan_cache.json (flat name -> ms/iter map) for CI
// trending; other flags pass through to google-benchmark.

#include <benchmark/benchmark.h>

#include "bench_json_reporter.h"

#include <chrono>

#include "engine/plan_cache.h"
#include "frontend/fingerprint.h"
#include "frontend/prepare.h"
#include "myopt/mysql_optimizer.h"
#include "parser/parser.h"
#include "workloads/tpch.h"

namespace taurus {
namespace {

Database* SharedDb() {
  static Database* db = [] {
    auto* d = new Database();
    auto st = SetupTpch(d, 0.001);
    if (!st.ok()) std::abort();
    return d;
  }();
  return db;
}

// Representative TPC-H shapes: Q1 (scan+agg), Q3 (3-way join), Q5 (6-way
// join), Q7/Q8/Q9 (big multi-way joins where the memo search dominates),
// Q10 (4-way join + agg), Q21 (4-way join + two correlated subqueries).
const std::string& TpchQ(int q) {
  return TpchQueries()[static_cast<size_t>(q - 1)];
}

void BM_ColdCompile(benchmark::State& state) {
  Database* db = SharedDb();
  const std::string& sql = TpchQ(static_cast<int>(state.range(0)));
  auto path = static_cast<OptimizerPath>(state.range(1));
  db->plan_cache_config().enable = false;  // every compile is cold
  for (auto _ : state) {
    auto c = db->Compile(sql, path);
    benchmark::DoNotOptimize(c);
  }
  db->plan_cache_config().enable = true;
}

void BM_CacheHitCompile(benchmark::State& state) {
  Database* db = SharedDb();
  const std::string& sql = TpchQ(static_cast<int>(state.range(0)));
  auto path = static_cast<OptimizerPath>(state.range(1));
  db->plan_cache_config().enable = true;
  db->plan_cache().Clear();
  {
    auto warmup = db->Compile(sql, path);  // populate the entry
    if (!warmup.ok()) std::abort();
  }
  double saved_ms = 0.0;
  int64_t iters = 0;
  for (auto _ : state) {
    QueryEvent event;
    auto c = db->Compile(sql, path, &event);
    benchmark::DoNotOptimize(c);
    if (c.ok()) {
      if (!event.plan_cache_hit) std::abort();  // bench must measure hits
      saved_ms += event.optimize_saved_ms;
      ++iters;
    }
  }
  if (iters > 0) {
    state.counters["avg_saved_ms"] = saved_ms / static_cast<double>(iters);
  }
}

void PlanCacheArgs(benchmark::internal::Benchmark* b) {
  for (int q : {1, 3, 5, 7, 8, 9, 10, 21}) {
    b->Args({q, static_cast<int>(OptimizerPath::kMySql)});
    b->Args({q, static_cast<int>(OptimizerPath::kOrca)});
  }
}

BENCHMARK(BM_ColdCompile)->Apply(PlanCacheArgs);
BENCHMARK(BM_CacheHitCompile)->Apply(PlanCacheArgs);

// The headline number: optimizer-stage time, cold vs hit. Every compile
// pays for parse + bind + prepare whether or not the cache hits, so the
// end-to-end compile ratio understates what the cache saves. Here the
// front-end cost is measured on its own and subtracted from both sides,
// leaving cold = join ordering + access-path search (+ Orca detour) and
// hit = fingerprint + lookup + rewrite replay + thaw + refine.
void BM_OptimizeSpeedup(benchmark::State& state) {
  Database* db = SharedDb();
  const std::string& sql = TpchQ(static_cast<int>(state.range(0)));
  auto path = static_cast<OptimizerPath>(state.range(1));
  constexpr int kReps = 64;
  double frontend_ms = 0, cold_ms = 0, hit_ms = 0;
  int64_t experiments = 0;
  for (auto _ : state) {
    using Clock = std::chrono::steady_clock;
    auto ms = [](Clock::time_point a, Clock::time_point b) {
      return std::chrono::duration<double, std::milli>(b - a).count();
    };
    auto t0 = Clock::now();
    for (int i = 0; i < kReps; ++i) {
      auto parsed = ParseSelect(sql);
      auto bound = BindStatement(db->catalog(), std::move(*parsed));
      if (!PrepareStatement(&*bound).ok()) std::abort();
      benchmark::DoNotOptimize(bound);
    }
    auto t1 = Clock::now();
    db->plan_cache_config().enable = false;
    for (int i = 0; i < kReps; ++i) {
      auto c = db->Compile(sql, path);
      benchmark::DoNotOptimize(c);
    }
    auto t2 = Clock::now();
    db->plan_cache_config().enable = true;
    db->plan_cache().Clear();
    if (!db->Compile(sql, path).ok()) std::abort();  // populate entry
    auto t3 = Clock::now();
    for (int i = 0; i < kReps; ++i) {
      QueryEvent event;
      auto c = db->Compile(sql, path, &event);
      benchmark::DoNotOptimize(c);
      if (!c.ok() || !event.plan_cache_hit) std::abort();
    }
    auto t4 = Clock::now();
    frontend_ms += ms(t0, t1) / kReps;
    cold_ms += ms(t1, t2) / kReps;
    hit_ms += ms(t3, t4) / kReps;
    ++experiments;
  }
  if (experiments > 0) {
    double fe = frontend_ms / experiments;
    double cold_opt = cold_ms / experiments - fe;
    double hit_opt = hit_ms / experiments - fe;
    state.counters["cold_opt_ms"] = cold_opt;
    state.counters["hit_opt_ms"] = hit_opt;
    state.counters["speedup"] = hit_opt > 0 ? cold_opt / hit_opt : 0.0;
  }
}
BENCHMARK(BM_OptimizeSpeedup)->Apply(PlanCacheArgs);

void BM_Fingerprint(benchmark::State& state) {
  Database* db = SharedDb();
  auto parsed = ParseSelect(TpchQ(5));
  auto bound = BindStatement(db->catalog(), std::move(*parsed));
  BoundStatement stmt = std::move(*bound);
  if (!PrepareStatement(&stmt).ok()) std::abort();
  for (auto _ : state) {
    auto fp = FingerprintStatement(stmt);
    benchmark::DoNotOptimize(fp);
  }
}
BENCHMARK(BM_Fingerprint);

void BM_FreezeThaw(benchmark::State& state) {
  Database* db = SharedDb();
  auto parsed = ParseSelect(TpchQ(5));
  auto bound = BindStatement(db->catalog(), std::move(*parsed));
  BoundStatement stmt = std::move(*bound);
  if (!PrepareStatement(&stmt).ok()) std::abort();
  auto skel = MySqlOptimize(db->catalog(), &stmt);
  if (!skel.ok()) std::abort();
  auto frozen = FreezeSkeleton(**skel);
  if (!frozen.ok()) std::abort();
  for (auto _ : state) {
    auto thawed = ThawSkeleton(*frozen, stmt);
    benchmark::DoNotOptimize(thawed);
  }
}
BENCHMARK(BM_FreezeThaw);

}  // namespace
}  // namespace taurus

int main(int argc, char** argv) {
  return taurus_bench::GBenchJsonMain(argc, argv, "plan_cache");
}
