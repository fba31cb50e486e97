// Micro-benchmarks (google-benchmark) for the compilation pipeline
// stages: parsing, binding+prepare, MySQL greedy optimization, the Orca
// detour (per join-search strategy), the Orca join search alone on chain,
// star and cycle join graphs of 4 to 12 tables, the metadata provider's
// DXL round trip, and the expression-OID algebra. These are the
// per-component numbers behind the Table 1 totals.
//
// --json writes BENCH_optimizer.json (flat name -> ms/iter map, plus
// partitions_evaluated for the join-search family) for CI trending; other
// flags pass through to google-benchmark.

#include <benchmark/benchmark.h>

#include "bench_json_reporter.h"

#include "bridge/orca_path.h"
#include "frontend/prepare.h"
#include "mdp/provider.h"
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

const std::string& Q5() { return TpchQueries()[4]; }

void BM_Parse(benchmark::State& state) {
  for (auto _ : state) {
    auto q = ParseSelect(Q5());
    benchmark::DoNotOptimize(q);
  }
}
BENCHMARK(BM_Parse);

void BM_BindPrepare(benchmark::State& state) {
  Database* db = SharedDb();
  for (auto _ : state) {
    auto q = ParseSelect(Q5());
    auto bound = BindStatement(db->catalog(), std::move(*q));
    BoundStatement stmt = std::move(*bound);
    auto st = PrepareStatement(&stmt);
    benchmark::DoNotOptimize(st);
  }
}
BENCHMARK(BM_BindPrepare);

void BM_MySqlOptimize(benchmark::State& state) {
  Database* db = SharedDb();
  for (auto _ : state) {
    auto q = ParseSelect(Q5());
    auto bound = BindStatement(db->catalog(), std::move(*q));
    BoundStatement stmt = std::move(*bound);
    (void)PrepareStatement(&stmt);
    auto skel = MySqlOptimize(db->catalog(), &stmt);
    benchmark::DoNotOptimize(skel);
  }
}
BENCHMARK(BM_MySqlOptimize);

void BM_OrcaOptimize(benchmark::State& state) {
  Database* db = SharedDb();
  OrcaConfig config;
  config.strategy = static_cast<JoinSearchStrategy>(state.range(0));
  for (auto _ : state) {
    auto q = ParseSelect(Q5());
    auto bound = BindStatement(db->catalog(), std::move(*q));
    BoundStatement stmt = std::move(*bound);
    (void)PrepareStatement(&stmt);
    OrcaPathOptimizer orca(db->catalog(), &stmt, &db->mdp(), config);
    auto skel = orca.Optimize();
    benchmark::DoNotOptimize(skel);
  }
}
BENCHMARK(BM_OrcaOptimize)
    ->Arg(static_cast<int>(JoinSearchStrategy::kGreedy))
    ->Arg(static_cast<int>(JoinSearchStrategy::kExhaustive))
    ->Arg(static_cast<int>(JoinSearchStrategy::kExhaustive2));

/// Optimize time against join count: the whole Orca detour under
/// EXHAUSTIVE2 on one join graph, with the partition pairs it costed and
/// the memo groups it built.
void BM_OrcaJoinSearch(benchmark::State& state, NationJoinShape shape) {
  Database* db = SharedDb();
  OrcaConfig config;
  config.strategy = JoinSearchStrategy::kExhaustive2;
  const std::string sql =
      NationJoinGraphQuery(shape, static_cast<int>(state.range(0)));
  OrcaPathMetrics metrics;
  for (auto _ : state) {
    auto q = ParseSelect(sql);
    auto bound = BindStatement(db->catalog(), std::move(*q));
    BoundStatement stmt = std::move(*bound);
    (void)PrepareStatement(&stmt);
    OrcaPathOptimizer orca(db->catalog(), &stmt, &db->mdp(), config);
    auto skel = orca.Optimize();
    benchmark::DoNotOptimize(skel);
    if (!skel.ok()) {
      state.SkipWithError(skel.status().ToString().c_str());
      break;
    }
    metrics = orca.metrics();
  }
  state.counters["partitions_evaluated"] =
      static_cast<double>(metrics.partitions_evaluated);
  state.counters["memo_groups"] = static_cast<double>(metrics.memo_groups);
}
BENCHMARK_CAPTURE(BM_OrcaJoinSearch, chain, NationJoinShape::kChain)
    ->DenseRange(4, 12)
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_OrcaJoinSearch, star, NationJoinShape::kStar)
    ->DenseRange(4, 12)
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_OrcaJoinSearch, cycle, NationJoinShape::kCycle)
    ->DenseRange(4, 12)
    ->Unit(benchmark::kMillisecond);

void BM_FullCompileOrca(benchmark::State& state) {
  Database* db = SharedDb();
  db->router_config().complex_query_threshold = 1;
  for (auto _ : state) {
    auto c = db->Compile(Q5(), OptimizerPath::kOrca);
    benchmark::DoNotOptimize(c);
  }
}
BENCHMARK(BM_FullCompileOrca);

void BM_MdpDxlRoundTrip(benchmark::State& state) {
  Database* db = SharedDb();
  MetadataProvider mdp(db->catalog());  // fresh: no cache
  auto oid = mdp.RelationOidByName("lineitem");
  for (auto _ : state) {
    auto dxl = mdp.RelationToDxl(*oid);
    auto parsed = MetadataProvider::ParseRelationDxl(*dxl);
    benchmark::DoNotOptimize(parsed);
  }
}
BENCHMARK(BM_MdpDxlRoundTrip);

void BM_MdpCachedLookup(benchmark::State& state) {
  Database* db = SharedDb();
  auto oid = db->mdp().RelationOidByName("lineitem");
  (void)db->mdp().GetRelation(*oid);  // warm
  for (auto _ : state) {
    auto rel = db->mdp().GetRelation(*oid);
    benchmark::DoNotOptimize(rel);
  }
}
BENCHMARK(BM_MdpCachedLookup);

void BM_ExprOidAlgebra(benchmark::State& state) {
  for (auto _ : state) {
    for (int64_t oid = kCmpBase; oid < kCmpBase + kNumCmpExprs; ++oid) {
      benchmark::DoNotOptimize(CommutatorOid(oid));
      benchmark::DoNotOptimize(InverseOid(oid));
    }
  }
}
BENCHMARK(BM_ExprOidAlgebra);

}  // namespace
}  // namespace taurus

int main(int argc, char** argv) {
  return taurus_bench::GBenchJsonMain(argc, argv, "optimizer");
}
