// Micro-benchmarks for the runtime pieces the cost model abstracts:
// sequential scan rate, index lookup rate (50 and 4,000 probes per
// statement, the latter with ascending or random keys), point-lookup
// statements on both optimizer paths, hash join build/probe rates,
// expression evaluation, the LIKE matcher, histogram selectivity probes,
// and the order-preserving string-prefix encoding. Useful when re-tuning
// CostParams (the paper's Section 9 calls out Orca cost-model tuning for
// InnoDB as future work; these are the measurements that tuning needs).
//
// --json writes BENCH_executor.json (flat name -> ms/iter map) for CI
// trending; other flags pass through to google-benchmark.
//
// A hand-rolled batch-vs-Volcano leg runs first: the same scan / aggregate
// / join queries once with ExecutorConfig::enable_batch off (the
// row-at-a-time Volcano executor) and once on (the vectorized batch
// executor), verifying identical results and reporting the speedup.
// --json also writes BENCH_exec_batch.json with these columns.

#include <benchmark/benchmark.h>

#include "bench_json_reporter.h"

#include "catalog/histogram.h"
#include "common/rng.h"
#include "common/strings.h"
#include "engine/database.h"

namespace taurus {
namespace {

Database* Db() {
  static Database* db = [] {
    auto* d = new Database();
    if (!d->ExecuteSql("CREATE TABLE f (id INT NOT NULL PRIMARY KEY, "
                       "k INT NOT NULL, v DOUBLE NOT NULL, "
                       "s VARCHAR(20) NOT NULL)")
             .ok()) {
      std::abort();
    }
    if (!d->ExecuteSql("CREATE INDEX f_k ON f (k)").ok()) std::abort();
    if (!d->ExecuteSql("CREATE TABLE d (id INT NOT NULL PRIMARY KEY, "
                       "name VARCHAR(20) NOT NULL)")
             .ok()) {
      std::abort();
    }
    Rng rng(11);
    std::vector<Row> rows;
    for (int i = 0; i < 50000; ++i) {
      rows.push_back({Value::Int(i), Value::Int(i % 500),
                      Value::Double(rng.NextDouble() * 1000),
                      Value::Str(rng.NextString(5, 15))});
    }
    if (!d->BulkLoad("f", std::move(rows)).ok()) std::abort();
    std::vector<Row> dims;
    for (int i = 0; i < 500; ++i) {
      dims.push_back({Value::Int(i), Value::Str("d" + std::to_string(i))});
    }
    if (!d->BulkLoad("d", std::move(dims)).ok()) std::abort();
    // Index-probe legs: 4,000 outer rows whose keys each hit one of f's
    // 50,000 primary-key entries, in ascending (p_asc) or random (p_rand)
    // order.
    if (!d->ExecuteSql("CREATE TABLE probe (p_id INT NOT NULL PRIMARY KEY, "
                       "p_asc INT NOT NULL, p_rand INT NOT NULL)")
             .ok()) {
      std::abort();
    }
    Rng probe_rng(13);  // its own stream: the tables below keep their data
    std::vector<Row> probes;
    for (int i = 0; i < 4000; ++i) {
      probes.push_back({Value::Int(i), Value::Int(i * 12),
                        Value::Int(probe_rng.Uniform(0, 49999))});
    }
    if (!d->BulkLoad("probe", std::move(probes)).ok()) std::abort();
    // Row-buffering legs: `li` holds four rows per order key (15,000
    // groups under GROUP BY l_orderkey, as in TPC-H Q18's subquery), and
    // `wide_ord` is an orders-like build side with long strings and no
    // index on its join key, so joining it takes a hash build (Q13).
    if (!d->ExecuteSql("CREATE TABLE li (l_id INT NOT NULL PRIMARY KEY, "
                       "l_orderkey INT NOT NULL, l_quantity INT NOT NULL, "
                       "l_comment VARCHAR(44) NOT NULL)")
             .ok()) {
      std::abort();
    }
    if (!d->ExecuteSql("CREATE TABLE wide_ord (w_key INT NOT NULL, "
                       "w_cust INT NOT NULL, w_price DOUBLE NOT NULL, "
                       "w_priority VARCHAR(15) NOT NULL, "
                       "w_clerk VARCHAR(15) NOT NULL, "
                       "w_comment VARCHAR(79) NOT NULL)")
             .ok()) {
      std::abort();
    }
    std::vector<Row> li;
    for (int i = 0; i < 60000; ++i) {
      li.push_back({Value::Int(i), Value::Int(i / 4), Value::Int(1 + i % 50),
                    Value::Str(rng.NextString(20, 44))});
    }
    if (!d->BulkLoad("li", std::move(li)).ok()) std::abort();
    std::vector<Row> wide;
    for (int i = 0; i < 15000; ++i) {
      wide.push_back({Value::Int(i), Value::Int(i % 1500),
                      Value::Double(rng.NextDouble() * 1e5),
                      Value::Str(rng.NextString(8, 15)),
                      Value::Str(rng.NextString(15, 15)),
                      Value::Str(rng.NextString(40, 79))});
    }
    if (!d->BulkLoad("wide_ord", std::move(wide)).ok()) std::abort();
    // Expression legs: a lineitem-like table with Q1's two one-letter
    // group keys, its price/discount/tax arithmetic and Q12's ship modes.
    if (!d->ExecuteSql("CREATE TABLE ag (a_id INT NOT NULL PRIMARY KEY, "
                       "a_flag VARCHAR(1) NOT NULL, "
                       "a_status VARCHAR(1) NOT NULL, "
                       "a_price DOUBLE NOT NULL, a_disc DOUBLE NOT NULL, "
                       "a_tax DOUBLE NOT NULL, a_mode VARCHAR(10) NOT NULL)")
             .ok()) {
      std::abort();
    }
    const char* flags[] = {"A", "N", "R"};
    const char* modes[] = {"AIR", "FOB", "MAIL", "RAIL",
                           "REG AIR", "SHIP", "TRUCK"};
    std::vector<Row> ag;
    for (int i = 0; i < 60000; ++i) {
      ag.push_back({Value::Int(i), Value::Str(flags[rng.Uniform(0, 2)]),
                    Value::Str(rng.Uniform(0, 1) == 0 ? "F" : "O"),
                    Value::Double(900 + rng.NextDouble() * 1e5),
                    Value::Double(rng.Uniform(0, 10) / 100.0),
                    Value::Double(rng.Uniform(0, 8) / 100.0),
                    Value::Str(modes[rng.Uniform(0, 6)])});
    }
    if (!d->BulkLoad("ag", std::move(ag)).ok()) std::abort();
    if (!d->AnalyzeAll().ok()) std::abort();
    return d;
  }();
  return db;
}

void BM_SequentialScan(benchmark::State& state) {
  Database* db = Db();
  for (auto _ : state) {
    auto r = db->Query("SELECT COUNT(*) FROM f WHERE v > 500",
                       OptimizerPath::kMySql);
    benchmark::DoNotOptimize(r);
  }
  state.SetItemsProcessed(state.iterations() * 50000);
}
BENCHMARK(BM_SequentialScan);

void BM_IndexLookupJoin(benchmark::State& state) {
  Database* db = Db();
  for (auto _ : state) {
    auto r = db->Query(
        "SELECT COUNT(*) FROM d, f WHERE d.id = f.k AND d.id < 50",
        OptimizerPath::kMySql);
    benchmark::DoNotOptimize(r);
  }
}
BENCHMARK(BM_IndexLookupJoin);

// 4,000 index nested-loop lookups into f's 50,000-entry primary key per
// statement, so the search itself dominates rather than the per-statement
// overhead BM_IndexLookupJoin's 50 probes mostly measure. `column` picks
// ascending or random probe keys; index_lookups is per statement.
void BM_IndexLookupJoinKeys(benchmark::State& state, const char* column) {
  Database* db = Db();
  const std::string sql = std::string("SELECT COUNT(*) FROM probe, f WHERE "
                                      "f.id = probe.") + column;
  int64_t lookups = 0;
  for (auto _ : state) {
    auto r = db->Query(sql, OptimizerPath::kMySql);
    if (!r.ok() || r->index_lookups != 4000) {
      state.SkipWithError("expected 4,000 index lookups");
      break;
    }
    lookups += r->index_lookups;
    benchmark::DoNotOptimize(r);
  }
  state.counters["index_lookups"] = benchmark::Counter(
      static_cast<double>(lookups), benchmark::Counter::kAvgIterations);
}
BENCHMARK_CAPTURE(BM_IndexLookupJoinKeys, ascending, "p_asc");
BENCHMARK_CAPTURE(BM_IndexLookupJoinKeys, random, "p_rand");

// The short-query regime: `id = K` on the primary key runs as a one-row
// index range scan. Arg 0 forces the MySQL path, arg 1 the Orca detour;
// K walks the key space so every statement hits the plan cache with a new
// literal. rows_scanned is per statement.
void BM_PointLookup(benchmark::State& state) {
  Database* db = Db();
  const OptimizerPath path =
      state.range(0) == 0 ? OptimizerPath::kMySql : OptimizerPath::kOrca;
  int64_t key = 0;
  int64_t scanned = 0;
  for (auto _ : state) {
    key = (key + 7919) % 50000;
    auto r = db->Query(
        "SELECT id, k, v FROM f WHERE id = " + std::to_string(key), path);
    if (!r.ok() || r->rows.size() != 1) {
      state.SkipWithError("point lookup did not return its row");
      break;
    }
    scanned += r->rows_scanned;
    benchmark::DoNotOptimize(r);
  }
  state.counters["rows_scanned"] = benchmark::Counter(
      static_cast<double>(scanned), benchmark::Counter::kAvgIterations);
}
BENCHMARK(BM_PointLookup)->Arg(0)->Arg(1);

void BM_HashJoin(benchmark::State& state) {
  Database* db = Db();
  for (auto _ : state) {
    // v has no index: the equality forces a hash join.
    auto r = db->Query(
        "SELECT COUNT(*) FROM f f1, f f2 WHERE f1.id = f2.k",
        OptimizerPath::kOrca);
    benchmark::DoNotOptimize(r);
  }
}
BENCHMARK(BM_HashJoin);

void BM_HashAggregation(benchmark::State& state) {
  Database* db = Db();
  for (auto _ : state) {
    auto r = db->Query("SELECT k, COUNT(*), SUM(v) FROM f GROUP BY k",
                       OptimizerPath::kMySql);
    benchmark::DoNotOptimize(r);
  }
}
BENCHMARK(BM_HashAggregation);

void BM_SortLimit(benchmark::State& state) {
  Database* db = Db();
  for (auto _ : state) {
    auto r = db->Query("SELECT id FROM f ORDER BY v DESC LIMIT 10",
                       OptimizerPath::kMySql);
    benchmark::DoNotOptimize(r);
  }
}
BENCHMARK(BM_SortLimit);

void BM_LikeMatcher(benchmark::State& state) {
  Rng rng(3);
  std::vector<std::string> values;
  for (int i = 0; i < 1000; ++i) values.push_back(rng.NextString(10, 40));
  for (auto _ : state) {
    int hits = 0;
    for (const std::string& v : values) {
      hits += SqlLikeMatch(v, "%ab%cd%");
    }
    benchmark::DoNotOptimize(hits);
  }
  state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_LikeMatcher);

void BM_HistogramProbe(benchmark::State& state) {
  Rng rng(7);
  std::vector<Value> values;
  for (int i = 0; i < 100000; ++i) {
    values.push_back(Value::Int(rng.Uniform(0, 1000000)));
  }
  Histogram h = Histogram::Build(std::move(values), 64);
  for (auto _ : state) {
    double s = 0;
    for (int i = 0; i < 100; ++i) {
      s += h.SelectivityLess(Value::Int(i * 10000), false);
    }
    benchmark::DoNotOptimize(s);
  }
  state.SetItemsProcessed(state.iterations() * 100);
}
BENCHMARK(BM_HistogramProbe);

void BM_StringPrefixEncoding(benchmark::State& state) {
  Rng rng(9);
  std::vector<std::string> values;
  for (int i = 0; i < 1000; ++i) values.push_back(rng.NextString(0, 24));
  for (auto _ : state) {
    int64_t acc = 0;
    for (const std::string& v : values) acc ^= EncodeStringPrefix(v);
    benchmark::DoNotOptimize(acc);
  }
  state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_StringPrefixEncoding);

/// Best-of-`repeat` execution time for `sql` in the current executor mode;
/// returns the result rows (for the batch-vs-Volcano equality check) and
/// whether any pipeline actually ran batched.
double BestMs(Database* db, const std::string& sql, OptimizerPath path,
              int repeat, std::vector<Row>* rows, bool* batched) {
  double best = 0.0;
  for (int r = 0; r < repeat; ++r) {
    auto res = db->Query(sql, path);
    if (!res.ok()) {
      std::fprintf(stderr, "query failed: %s\n",
                   res.status().ToString().c_str());
      std::exit(1);
    }
    if (r == 0 || res->execute_ms < best) best = res->execute_ms;
    *rows = std::move(res->rows);
    *batched = res->batch_pipelines > 0;
  }
  return best;
}

/// The batch-vs-Volcano leg: same queries, both executor modes, identical
/// results enforced, speedup reported (and written to BENCH_exec_batch.json
/// under --json).
void RunBatchVsVolcano(bool want_json) {
  Database* db = Db();
  struct Leg {
    const char* key;
    const char* sql;
    OptimizerPath path;
  };
  // Q6-shaped scan+filter+aggregate (the scan-heavy pipeline), Q1-shaped
  // grouped aggregate, a hash-join probe into the 50K-row fact table, a
  // Q14-shaped index nested-loop join (500 `d` rows each probing `f`
  // through f_k, 100 matches a probe, filtered on `f`), and the two
  // row-buffering mechanisms: a Q18-shaped GROUP BY with 15K groups (one
  // representative row each) and a Q13-shaped left join whose 15K-row
  // build side has wide rows. The expression legs: Q1-shaped arithmetic
  // aggregates under two string group keys, and a two-item IN list next
  // to the equality filter it widens (Q12's l_shipmode IN (...)).
  const Leg legs[] = {
      {"index_nl_join",
       "SELECT COUNT(*), SUM(f.v) FROM d, f WHERE f.k = d.id AND f.v < 300",
       OptimizerPath::kMySql},
      {"group_by_high_card",
       "SELECT l_orderkey, SUM(l_quantity) FROM li GROUP BY l_orderkey",
       OptimizerPath::kMySql},
      {"hash_build_wide",
       "SELECT COUNT(*), SUM(w.w_price) FROM li LEFT JOIN wide_ord w "
       "ON li.l_orderkey = w.w_key",
       OptimizerPath::kMySql},
      {"scan_filter_agg",
       "SELECT COUNT(*), SUM(v) FROM f WHERE v > 100 AND v < 900",
       OptimizerPath::kMySql},
      {"group_agg", "SELECT k, COUNT(*), SUM(v) FROM f GROUP BY k",
       OptimizerPath::kMySql},
      {"hash_join_probe",
       "SELECT COUNT(*) FROM f f1, f f2 WHERE f1.id = f2.k",
       OptimizerPath::kOrca},
      {"agg_arith",
       "SELECT a_flag, a_status, SUM(a_price * (1 - a_disc) * (1 + a_tax)), "
       "AVG(a_disc), COUNT(*) FROM ag GROUP BY a_flag, a_status",
       OptimizerPath::kMySql},
      {"in_list_filter",
       "SELECT COUNT(*) FROM ag WHERE a_mode IN ('MAIL', 'SHIP')",
       OptimizerPath::kMySql},
      {"eq_filter", "SELECT COUNT(*) FROM ag WHERE a_mode = 'MAIL'",
       OptimizerPath::kMySql},
  };
  const int repeat = 5;
  std::printf("Batch vs Volcano executor (best of %d runs)\n", repeat);
  std::printf("%-18s %12s %12s %10s\n", "pipeline", "volcano_ms", "batch_ms",
              "speedup");
  std::vector<std::pair<std::string, double>> metrics;
  for (const Leg& leg : legs) {
    std::vector<Row> volcano_rows, batch_rows;
    bool batched = false;
    db->exec_config().enable_batch = false;
    double volcano_ms =
        BestMs(db, leg.sql, leg.path, repeat, &volcano_rows, &batched);
    db->exec_config().enable_batch = true;
    double batch_ms =
        BestMs(db, leg.sql, leg.path, repeat, &batch_rows, &batched);
    if (volcano_rows != batch_rows) {
      std::fprintf(stderr, "%s: batch results differ from Volcano!\n",
                   leg.key);
      std::exit(1);
    }
    double speedup = batch_ms > 0 ? volcano_ms / batch_ms : 0.0;
    std::printf("%-18s %12.3f %12.3f %9.2fx%s\n", leg.key, volcano_ms,
                batch_ms, speedup, batched ? "" : "   (stayed row-mode)");
    metrics.emplace_back(std::string(leg.key) + "_volcano_ms", volcano_ms);
    metrics.emplace_back(std::string(leg.key) + "_batch_ms", batch_ms);
    metrics.emplace_back(std::string(leg.key) + "_speedup", speedup);
  }
  std::printf("\n");
  if (want_json) taurus_bench::WriteBenchJson("exec_batch", metrics);
}

}  // namespace
}  // namespace taurus

int main(int argc, char** argv) {
  bool want_json = false;
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) == "--json") want_json = true;
  }
  taurus::RunBatchVsVolcano(want_json);
  return taurus_bench::GBenchJsonMain(argc, argv, "executor");
}
