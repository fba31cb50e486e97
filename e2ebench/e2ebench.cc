// e2ebench: one seeded, closed-loop benchmark of the whole engine, driven
// through the public Server/Session API.
//
//   e2ebench --workload <tpch_analytic|tpcds_adhoc|point_sessions>
//            --seed <n> --seconds <s> --trace <0|1>
//
// Every run builds its inputs from --seed, computes a reference result for
// every statement on a separate engine instance (forced MySQL path,
// Volcano, one worker), sets the measured engine up three times (schema,
// load, ANALYZE, warm-up) and keeps the last, then runs the workload's
// sessions in closed loops for --seconds and checks every result.
//
// --trace 0 reports the end-to-end metrics. --trace 1 spends the first
// half of the time untraced and the second half replaying the same stream
// traced: after each statement the benchmark itself calls every layer's
// public entry point on the same SQL and times it, and folds in the
// counters QueryResult already carries. It reports the per-layer metrics
// and both windows' qps, whose difference is the tracing overhead.
//
// The last line of stdout is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <latch>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "bridge/orca_path.h"
#include "bridge/router.h"
#include "engine/database.h"
#include "engine/plan_cache.h"
#include "frontend/binder.h"
#include "frontend/fingerprint.h"
#include "frontend/prepare.h"
#include "harness.h"
#include "myopt/mysql_optimizer.h"
#include "myopt/refine.h"
#include "parser/parser.h"
#include "server/server.h"
#include "workloads/tpcds.h"
#include "workloads/tpch.h"

namespace e2ebench {
namespace {

using Clock = std::chrono::steady_clock;
using taurus::Database;
using taurus::Row;
using taurus::Session;
using taurus::Status;

double MsSince(Clock::time_point t) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t).count();
}
double UsSince(Clock::time_point t) {
  return std::chrono::duration<double, std::micro>(Clock::now() - t).count();
}

/// Setups per run; setup_s is their median, so one slow load does not move
/// it.
constexpr int kSetups = 5;
/// Hot keys of point_sessions: 16 keys x 2 statement kinds = 32 cached
/// plans, which fit the 64-entry plan cache.
constexpr size_t kHotKeys = 16;
/// Errors printed to stderr before the rest are only counted.
constexpr int kMaxLoggedErrors = 5;

struct WorkloadSpec {
  const char* name;
  bool tpcds;        ///< TPC-DS data and queries; otherwise TPC-H
  double scale;      ///< data scale factor
  int threshold;     ///< router complex_query_threshold
  bool plan_cache;   ///< plan cache on
  int workers;       ///< ExecutorConfig::parallel_workers; 0 = engine default
  int sessions;      ///< closed-loop clients; 1 = the query-suite loop
  bool point;        ///< generated point statements instead of a suite
};

// tpch_analytic runs the executor serial. Under the default 4 workers its
// morsel-parallel Q17 is 4-6x slower than serial and swings with the
// host's load: the median query_ms.p99 of ten runs moved from 77 to 125 ms
// between two sets a quarter hour apart, beyond any bound (NOTES.md). The
// other two workloads' tables are below parallel_min_driver_rows, so they
// run serial with the default too.
const WorkloadSpec kWorkloads[] = {
    {"tpch_analytic", false, 0.01, 3, true, 1, 1, false},
    {"tpcds_adhoc", true, 0.0001, 2, false, 0, 1, false},
    {"point_sessions", false, 0.01, 3, true, 0, 2, true},
};

/// Index of TPC-H Q20 in TpchQueries(): left out of tpch_analytic, its plan
/// scans quadratically on both optimizer paths.
constexpr size_t kTpchQ20 = 19;

// ---------------------------------------------------------------------------
// Inputs and references
// ---------------------------------------------------------------------------

/// Loads the workload's data with the generators' fixed default seeds.
/// --seed deliberately does not reach the data: at these scales a data
/// seed changes the work itself (TPC-H Q17 takes 0.3 ms or 83 ms depending
/// on whether any part matches its brand and container), so runs with
/// different seeds would not measure the same workload.
Status LoadData(const WorkloadSpec& w, Database* db) {
  if (w.tpcds) return taurus::SetupTpcds(db, w.scale);
  return taurus::SetupTpch(db, w.scale);
}

/// A suite workload's statements with their reference results.
struct Suite {
  std::vector<std::string> sql;
  std::vector<int> number;  ///< query number in its benchmark (Q1 = 1)
  std::vector<std::vector<Row>> expected;
  std::string empty_references;  ///< "Q5 Q9 ...": checks that prove nothing
  int empty_count = 0;
};

void SuiteSql(const WorkloadSpec& w, Suite* suite) {
  const std::vector<std::string>& all =
      w.tpcds ? taurus::TpcdsQueries() : taurus::TpchQueries();
  for (size_t i = 0; i < all.size(); ++i) {
    if (!w.tpcds && i == kTpchQ20) continue;
    suite->sql.push_back(all[i]);
    suite->number.push_back(static_cast<int>(i) + 1);
  }
}

Status ReferenceRows(Database* db, const std::string& sql,
                     std::vector<Row>* rows) {
  auto result = db->Query(sql, taurus::OptimizerPath::kMySql);
  if (!result.ok()) return result.status();
  *rows = std::move(result->rows);
  return Status::OK();
}

Status BuildSuite(Database* ref, const WorkloadSpec& w, Suite* suite) {
  SuiteSql(w, suite);
  suite->expected.resize(suite->sql.size());
  for (size_t i = 0; i < suite->sql.size(); ++i) {
    Status st = ReferenceRows(ref, suite->sql[i], &suite->expected[i]);
    if (!st.ok()) return st;
    if (suite->expected[i].empty()) {
      ++suite->empty_count;
      suite->empty_references += " Q" + std::to_string(suite->number[i]);
    }
  }
  return Status::OK();
}

/// Fills `out` with key -> row from one full scan of `sql` (key = column 0).
Status ScanByKey(Database* ref, const std::string& sql,
                 std::unordered_map<int64_t, Row>* out) {
  std::vector<Row> rows;
  Status st = ReferenceRows(ref, sql, &rows);
  if (!st.ok()) return st;
  for (Row& r : rows) {
    const int64_t key = r[0].AsInt();
    out->emplace(key, std::move(r));
  }
  return Status::OK();
}

Status BuildPointData(Database* ref, uint64_t seed, PointData* data) {
  Status st = ScanByKey(ref,
                        "SELECT o_orderkey, o_custkey, o_orderstatus, "
                        "o_totalprice, o_orderdate FROM orders",
                        &data->orders);
  if (st.ok()) {
    st = ScanByKey(ref,
                   "SELECT c_custkey, c_name, c_acctbal, c_nationkey "
                   "FROM customer",
                   &data->customers);
  }
  if (st.ok()) {
    st = ScanByKey(ref, "SELECT n_nationkey, n_name FROM nation",
                   &data->nations);
  }
  if (!st.ok()) return st;
  for (const auto& [key, row] : data->orders) data->order_keys.push_back(key);
  std::sort(data->order_keys.begin(), data->order_keys.end());
  ChooseHotKeys(data, seed, kHotKeys);
  return Status::OK();
}

/// Builds the references on an engine of their own: the same data, but the
/// forced MySQL path, Volcano execution and a single worker, so the timed
/// configuration is checked against a different optimizer and executor
/// path.
Status BuildReferences(const WorkloadSpec& w, uint64_t seed, Suite* suite,
                       PointData* point) {
  auto ref = std::make_unique<Database>();
  ref->exec_config().enable_batch = false;
  ref->exec_config().parallel_workers = 1;
  ref->plan_cache_config().enable = false;
  Status st = LoadData(w, ref.get());
  if (!st.ok()) return st;
  return w.point ? BuildPointData(ref.get(), seed, point)
                 : BuildSuite(ref.get(), w, suite);
}

// ---------------------------------------------------------------------------
// Measured engine
// ---------------------------------------------------------------------------

/// Declaration order is destruction order in reverse: sessions close before
/// the server, and the server goes before the database it wraps.
struct Engine {
  std::unique_ptr<Database> db;
  std::unique_ptr<taurus::Server> server;
  std::vector<std::unique_ptr<Session>> sessions;

  /// Tears down in dependency order (member assignment would not).
  void Reset() {
    sessions.clear();
    server.reset();
    db.reset();
  }
};

struct SetupTiming {
  double setup_s = 0.0;  ///< engine construction through warm-up
  double load_s = 0.0;   ///< LoadTpch/LoadTpcds incl. schema, BulkLoad, ANALYZE
};

/// One setup: schema, data load, ANALYZE, sessions and warm-up. The
/// warm-up runs the suite once (filling the plan cache where it is on), or
/// for point_sessions every hot statement once.
Status SetUp(const WorkloadSpec& w, const Suite& suite, const PointData& point,
             Engine* e, SetupTiming* timing) {
  const auto start = Clock::now();
  e->db = std::make_unique<Database>();
  Database* db = e->db.get();
  db->router_config().complex_query_threshold = w.threshold;
  db->orca_config().strategy = taurus::JoinSearchStrategy::kExhaustive2;
  db->plan_cache_config().enable = w.plan_cache;
  db->exec_config().parallel_workers = w.workers;
  const auto load_start = Clock::now();
  Status st = LoadData(w, db);
  timing->load_s = MsSince(load_start) / 1000.0;
  if (!st.ok()) return st;
  e->server = std::make_unique<taurus::Server>(db);
  for (int s = 0; s < w.sessions; ++s) {
    auto session = e->server->CreateSession();
    if (!session.ok()) return session.status();
    e->sessions.push_back(std::move(*session));
  }
  Session* warm = e->sessions[0].get();
  std::vector<std::string> warm_sql = suite.sql;
  for (int64_t key : point.hot_keys) {
    warm_sql.push_back(MakePointStatement(point, key, false).sql);
    warm_sql.push_back(MakePointStatement(point, key, true).sql);
  }
  for (const std::string& sql : warm_sql) {
    auto result = warm->Query(sql);
    if (!result.ok()) return result.status();
  }
  timing->setup_s = MsSince(start) / 1000.0;
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Recording
// ---------------------------------------------------------------------------

/// Everything one closed-loop window records; mergeable across sessions.
struct Totals {
  int64_t attempted = 0;
  int64_t errors = 0;    ///< statements that returned an error status
  int64_t wrong = 0;     ///< results that differ from the reference
  int64_t rejected = 0;  ///< refused by admission control

  // Statement level, from Session::Query and its QueryResult.
  std::vector<double> latency_ms;
  std::vector<double> execute_ms;
  std::vector<double> residual_us;
  std::vector<double> admission_wait_ms;
  int64_t cache_hits = 0;
  int64_t rows_out = 0;
  int64_t rows_scanned = 0;
  int64_t index_lookups = 0;
  int64_t batch_rows = 0;
  int64_t queued = 0;
  int64_t shed = 0;

  // Layer probes (traced window only).
  int64_t probed = 0;
  int64_t probe_errors = 0;
  int64_t routed_orca = 0;  ///< statements that took the detour probe
  int64_t detour_failed = 0;
  int64_t partitions = 0;
  int64_t memo_groups = 0;
  int64_t mdp_misses = 0;  ///< relation fetches that built a DXL document
  int64_t mdp_hits = 0;    ///< relation fetches served by the mdp cache
  std::vector<double> parse_us, bind_us, prepare_us, fingerprint_us;
  std::vector<double> detour_ms, myopt_us, freeze_us, thaw_us, refine_us;
  std::vector<double> compile_ms;

  void Merge(Totals&& o) {
    attempted += o.attempted;
    errors += o.errors;
    wrong += o.wrong;
    rejected += o.rejected;
    cache_hits += o.cache_hits;
    rows_out += o.rows_out;
    rows_scanned += o.rows_scanned;
    index_lookups += o.index_lookups;
    batch_rows += o.batch_rows;
    queued += o.queued;
    shed += o.shed;
    probed += o.probed;
    probe_errors += o.probe_errors;
    routed_orca += o.routed_orca;
    detour_failed += o.detour_failed;
    partitions += o.partitions;
    memo_groups += o.memo_groups;
    mdp_misses += o.mdp_misses;
    mdp_hits += o.mdp_hits;
    using Samples = std::pair<std::vector<double>*, std::vector<double>*>;
    for (auto [into, from] : std::initializer_list<Samples>{
             {&latency_ms, &o.latency_ms},
             {&execute_ms, &o.execute_ms},
             {&residual_us, &o.residual_us},
             {&admission_wait_ms, &o.admission_wait_ms},
             {&parse_us, &o.parse_us},
             {&bind_us, &o.bind_us},
             {&prepare_us, &o.prepare_us},
             {&fingerprint_us, &o.fingerprint_us},
             {&detour_ms, &o.detour_ms},
             {&myopt_us, &o.myopt_us},
             {&freeze_us, &o.freeze_us},
             {&thaw_us, &o.thaw_us},
             {&refine_us, &o.refine_us},
             {&compile_ms, &o.compile_ms}}) {
      into->insert(into->end(), from->begin(), from->end());
    }
  }
};

/// One session's recorder. The metadata provider belongs to the probes, so
/// its request and cache-hit counters are this session's alone.
struct Recorder {
  explicit Recorder(Database* database) : db(database), mdp(db->catalog()) {}

  void Error(const char* what, const std::string& sql, const std::string& why) {
    if (logged++ < kMaxLoggedErrors) {
      std::fprintf(stderr, "%s: %s\n  statement: %.200s\n", what, why.c_str(),
                   sql.c_str());
    }
  }

  Database* db;
  taurus::MetadataProvider mdp;
  Totals t;
  int logged = 0;
};

/// Parse, bind and Prepare `sql` as the engine's compile does. With
/// `t` set, each step's time is recorded there.
Status FrontEnd(Database* db, const std::string& sql,
                taurus::BoundStatement* stmt, Totals* t) {
  auto start = Clock::now();
  auto parsed = taurus::ParseSelect(sql);
  if (t != nullptr) t->parse_us.push_back(UsSince(start));
  if (!parsed.ok()) return parsed.status();

  start = Clock::now();
  auto bound = taurus::BindStatement(db->catalog(), std::move(*parsed));
  if (t != nullptr) t->bind_us.push_back(UsSince(start));
  if (!bound.ok()) return bound.status();
  *stmt = std::move(*bound);

  start = Clock::now();
  Status prepared = taurus::PrepareStatement(stmt, db->prepare_options());
  if (t != nullptr) t->prepare_us.push_back(UsSince(start));
  return prepared;
}

/// Times the benchmark's own call into each layer's public entry point on
/// `sql`, in pipeline order: parse, bind, Prepare, fingerprint, route, the
/// MySQL optimizer (on every statement; on a fresh copy when the statement
/// routes to Orca), the Orca detour where routed, skeleton freeze and thaw,
/// refinement, and a whole Database::Compile. Runs after the session's
/// query, so the engine saw the statement exactly as in an untraced run.
void Probe(const std::string& sql, Recorder* r) {
  Totals& t = r->t;
  Database* db = r->db;
  ++t.probed;
  auto fail = [&](const char* step, const Status& st) {
    ++t.probe_errors;
    r->Error(step, sql, st.ToString());
  };

  taurus::BoundStatement stmt;
  Status st = FrontEnd(db, sql, &stmt, &t);
  if (!st.ok()) return fail("probe front end", st);

  auto start = Clock::now();
  const taurus::StatementFingerprint fp = taurus::FingerprintStatement(stmt);
  t.fingerprint_us.push_back(UsSince(start));
  if (fp.canonical.empty()) {
    return fail("probe fingerprint", Status::Internal("empty fingerprint"));
  }

  const bool to_orca = taurus::ShouldRouteToOrca(stmt, db->router_config());
  taurus::BoundStatement copy;
  if (to_orca) {
    st = FrontEnd(db, sql, &copy, nullptr);
    if (!st.ok()) return fail("probe front end", st);
  }
  start = Clock::now();
  auto mysql_skel =
      taurus::MySqlOptimize(db->catalog(), to_orca ? &copy : &stmt);
  t.myopt_us.push_back(UsSince(start));
  if (!mysql_skel.ok()) {
    return fail("probe mysql optimize", mysql_skel.status());
  }

  std::unique_ptr<taurus::BlockSkeleton> skeleton = std::move(*mysql_skel);
  if (to_orca) {
    ++t.routed_orca;
    const int64_t dxl_before = r->mdp.dxl_requests();
    const int64_t hits_before = r->mdp.cache_hits();
    taurus::OrcaPathOptimizer orca(db->catalog(), &stmt, &r->mdp,
                                   db->orca_config(), nullptr,
                                   &db->verify_config());
    start = Clock::now();
    auto skel = orca.Optimize();
    t.detour_ms.push_back(MsSince(start));
    if (!skel.ok()) {
      // The engine would fall back to the MySQL path on a re-parsed
      // statement; the probe only counts the failure.
      ++t.detour_failed;
      return;
    }
    skeleton = std::move(*skel);
    t.partitions += orca.metrics().partitions_evaluated;
    t.memo_groups += orca.metrics().memo_groups;
    t.mdp_misses += r->mdp.dxl_requests() - dxl_before;
    t.mdp_hits += r->mdp.cache_hits() - hits_before;
  }

  start = Clock::now();
  auto frozen = taurus::FreezeSkeleton(*skeleton);
  t.freeze_us.push_back(UsSince(start));
  if (!frozen.ok()) return fail("probe freeze", frozen.status());
  // Thaw onto the statement the skeleton was planned on: structurally
  // identical, as the cache guarantees for a fingerprint-equal statement.
  start = Clock::now();
  auto thawed = taurus::ThawSkeleton(*frozen, stmt);
  t.thaw_us.push_back(UsSince(start));
  if (!thawed.ok()) return fail("probe thaw", thawed.status());

  start = Clock::now();
  auto refined = taurus::RefinePlan(std::move(stmt), *skeleton, db->catalog());
  t.refine_us.push_back(UsSince(start));
  if (!refined.ok()) return fail("probe refine", refined.status());

  start = Clock::now();
  auto compiled = db->Compile(sql);
  t.compile_ms.push_back(MsSince(start));
  if (!compiled.ok()) return fail("probe compile", compiled.status());
}

/// Runs one statement through the session, times it around Session::Query,
/// checks the rows against `expected`, and records the QueryResult facts.
void RunStatement(Session* session, const std::string& sql,
                  const std::vector<Row>& expected, bool trace, Recorder* r) {
  Totals& t = r->t;
  const int64_t rejected_before = session->rejected();
  const auto start = Clock::now();
  auto result = session->Query(sql);
  const double ms = MsSince(start);
  ++t.attempted;
  if (!result.ok()) {
    if (session->rejected() != rejected_before) {
      ++t.rejected;
    } else {
      ++t.errors;
    }
    r->Error("statement failed", sql, result.status().ToString());
    return;
  }
  const taurus::QueryResult& q = *result;
  t.latency_ms.push_back(ms);
  t.execute_ms.push_back(q.execute_ms);
  t.residual_us.push_back(
      (ms - q.optimize_ms - q.execute_ms - q.admission_wait_ms) * 1000.0);
  t.admission_wait_ms.push_back(q.admission_wait_ms);
  t.cache_hits += q.plan_cache_hit ? 1 : 0;
  t.rows_out += static_cast<int64_t>(q.rows.size());
  t.rows_scanned += q.rows_scanned;
  t.index_lookups += q.index_lookups;
  t.batch_rows += q.batch_rows;
  t.queued += q.admission_queued ? 1 : 0;
  t.shed += q.shed ? 1 : 0;

  std::string why;
  if (!RowsMatch(std::move(result->rows), expected, &why)) {
    ++t.wrong;
    r->Error("wrong result", sql, why);
  }
  if (trace) Probe(sql, r);
}

// ---------------------------------------------------------------------------
// Closed-loop windows
// ---------------------------------------------------------------------------

struct Window {
  double wall_s = 0.0;
  std::vector<double> pass_ms;  ///< suite workloads: one entry per full pass
  /// Latencies by suite query, or by point statement kind (PointStatement).
  std::vector<std::vector<double>> group_ms;
  Totals t;
  taurus::PlanCacheStats cache_before, cache_after;

  /// Statements per second over the whole window.
  double qps() const {
    return wall_s > 0 ? static_cast<double>(t.latency_ms.size()) / wall_s : 0;
  }
};

/// One session runs full passes over the suite, each in its seeded order,
/// until `seconds` have passed. The pass numbering restarts on every call,
/// so a traced window replays the untraced one.
Window RunSuite(Engine* e, const Suite& suite, uint64_t seed, double seconds,
                bool trace) {
  Window w;
  Recorder rec(e->db.get());
  Session* session = e->sessions[0].get();
  w.cache_before = e->db->plan_cache().stats();
  const auto start = Clock::now();
  const auto deadline =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(seconds));
  w.group_ms.resize(suite.sql.size());
  uint64_t pass = 0;
  do {
    const auto pass_start = Clock::now();
    for (size_t i : SuiteOrder(suite.sql.size(), seed, pass++)) {
      const size_t done = rec.t.latency_ms.size();
      RunStatement(session, suite.sql[i], suite.expected[i], trace, &rec);
      if (rec.t.latency_ms.size() > done) {
        w.group_ms[i].push_back(rec.t.latency_ms.back());
      }
    }
    w.pass_ms.push_back(MsSince(pass_start));
  } while (Clock::now() < deadline);
  w.wall_s = MsSince(start) / 1000.0;
  w.cache_after = e->db->plan_cache().stats();
  w.t = std::move(rec.t);
  return w;
}

/// Every session runs its own seeded point stream, each on its own thread,
/// until `seconds` have passed. The streams restart from the seed on every
/// call, so a traced window replays the untraced one.
Window RunPoint(Engine* e, const PointData& data, uint64_t seed,
                double seconds, bool trace) {
  Window w;
  const size_t n = e->sessions.size();
  std::vector<std::unique_ptr<Recorder>> recs;
  for (size_t s = 0; s < n; ++s) {
    recs.push_back(std::make_unique<Recorder>(e->db.get()));
  }
  std::vector<Clock::time_point> ends(n);
  // Per session: latencies by statement kind.
  std::vector<std::vector<std::vector<double>>> kinds(
      n, std::vector<std::vector<double>>(kPointKinds));
  Clock::time_point start;
  Clock::time_point deadline;
  std::latch ready(static_cast<std::ptrdiff_t>(n) + 1);
  std::latch go(1);
  w.cache_before = e->db->plan_cache().stats();
  std::vector<std::thread> threads;
  for (size_t s = 0; s < n; ++s) {
    threads.emplace_back([&, s] {
      PointGenerator gen(&data, seed, static_cast<int>(s));
      Session* session = e->sessions[s].get();
      ready.count_down();
      go.wait();
      const std::vector<double>& latency = recs[s]->t.latency_ms;
      while (Clock::now() < deadline) {
        PointStatement stmt = gen.Next();
        const size_t done = latency.size();
        RunStatement(session, stmt.sql, stmt.expected, trace, recs[s].get());
        if (latency.size() > done) {
          kinds[s][stmt.kind].push_back(latency.back());
        }
      }
      ends[s] = Clock::now();
    });
  }
  ready.arrive_and_wait();
  start = Clock::now();
  deadline = start + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(seconds));
  go.count_down();
  for (std::thread& th : threads) th.join();
  w.wall_s = std::chrono::duration<double>(
                 *std::max_element(ends.begin(), ends.end()) - start)
                 .count();
  w.cache_after = e->db->plan_cache().stats();
  for (auto& rec : recs) w.t.Merge(std::move(rec->t));
  w.group_ms.resize(kPointKinds);
  for (auto& session_kinds : kinds) {
    for (size_t k = 0; k < kPointKinds; ++k) {
      w.group_ms[k].insert(w.group_ms[k].end(), session_kinds[k].begin(),
                           session_kinds[k].end());
    }
  }
  return w;
}

// ---------------------------------------------------------------------------
// Output
// ---------------------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

double Ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

double Median(std::vector<double> v) { return Percentile(std::move(v), 50); }

double PeakRssMb() {
  struct rusage usage;
  std::memset(&usage, 0, sizeof(usage));
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

std::vector<Metric> EndToEndMetrics(const Window& w,
                                    const std::vector<double>& setup_s) {
  return {
      {"setup_s", Median(setup_s), "s"},
      {"qps", w.qps(), "1/s"},
      {"query_ms.p50", Percentile(w.t.latency_ms, 50), "ms"},
      {"query_ms.p99", Percentile(w.t.latency_ms, 99), "ms"},
      {"peak_rss_mb", PeakRssMb(), "MB"},
  };
}

std::vector<Metric> LayerMetrics(const Window& untraced, const Window& traced,
                                 const std::vector<double>& load_s) {
  const Totals& t = traced.t;
  const double stmts = static_cast<double>(t.latency_ms.size());
  const double evictions = static_cast<double>(traced.cache_after.evictions -
                                               traced.cache_before.evictions);
  const double detours = static_cast<double>(t.routed_orca);
  const double mdp_lookups = static_cast<double>(t.mdp_misses + t.mdp_hits);
  return {
      {"parser.parse_us.p50", Median(t.parse_us), "us"},
      {"frontend.bind_us.p50", Median(t.bind_us), "us"},
      {"frontend.prepare_us.p50", Median(t.prepare_us), "us"},
      {"frontend.fingerprint_us.p50", Median(t.fingerprint_us), "us"},
      {"engine.compile_ms.p50", Median(t.compile_ms), "ms"},
      {"engine.plan_cache.hit_ratio", Ratio(t.cache_hits, stmts), "ratio"},
      {"engine.plan_cache.evictions_per_stmt", Ratio(evictions, stmts),
       "count"},
      {"engine.freeze_us.p50", Median(t.freeze_us), "us"},
      {"engine.thaw_us.p50", Median(t.thaw_us), "us"},
      {"engine.residual_us.p50", Median(t.residual_us), "us"},
      {"bridge.orca_route_share", Ratio(t.routed_orca, t.probed), "ratio"},
      {"bridge.detour_ms.p50", Median(t.detour_ms), "ms"},
      {"bridge.detour_fail_ratio", Ratio(t.detour_failed, detours), "ratio"},
      {"orca.partitions_evaluated.per_detour", Ratio(t.partitions, detours),
       "count"},
      {"orca.memo_groups.per_detour", Ratio(t.memo_groups, detours), "count"},
      {"mdp.lookups.per_detour", Ratio(mdp_lookups, detours), "count"},
      {"mdp.cache_hit_ratio", Ratio(t.mdp_hits, mdp_lookups), "ratio"},
      {"myopt.optimize_us.p50", Median(t.myopt_us), "us"},
      {"myopt.refine_us.p50", Median(t.refine_us), "us"},
      {"exec.execute_ms.p50", Median(t.execute_ms), "ms"},
      {"exec.rows_scanned_per_row", Ratio(t.rows_scanned, t.rows_out),
       "count"},
      {"exec.index_lookups_per_stmt", Ratio(t.index_lookups, stmts), "count"},
      {"exec.batch_row_share", Ratio(t.batch_rows, t.rows_scanned), "ratio"},
      {"server.admission_wait_ms.p99", Percentile(t.admission_wait_ms, 99),
       "ms"},
      {"server.queued_share", Ratio(t.queued, stmts), "ratio"},
      {"server.shed_share", Ratio(t.shed, stmts), "ratio"},
      {"server.rejected_share", Ratio(t.rejected, t.attempted), "ratio"},
      {"workloads.load_s", Median(load_s), "s"},
      {"trace.qps_untraced", untraced.qps(), "1/s"},
      {"trace.qps_traced", traced.qps(), "1/s"},
      {"trace.overhead_share", Ratio(untraced.qps() - traced.qps(),
                                     untraced.qps()), "ratio"},
  };
}

void PrintMetrics(const std::vector<Metric>& metrics) {
  for (const Metric& m : metrics) {
    std::printf("  %-40s %14.6f %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }
}

void PrintJson(bool correct, int64_t attempted, int64_t failed,
               const std::vector<Metric>& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %" PRId64
              ", \"failed\": %" PRId64 ", \"metrics\": {",
              correct ? "true" : "false", attempted, failed);
  for (size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.10g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", metrics[i].name.c_str(), metrics[i].value,
                metrics[i].unit.c_str());
  }
  std::printf("}}\n");
}

// ---------------------------------------------------------------------------
// main
// ---------------------------------------------------------------------------

struct Args {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  bool have_workload = false, have_seed = false, have_seconds = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    char* end = nullptr;
    if (flag == "--workload") {
      args->workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value, &end, 10);
      have_seed = end != value && *end == '\0';
    } else if (flag == "--seconds") {
      args->seconds = std::strtod(value, &end);
      have_seconds = end != value && *end == '\0' && args->seconds > 0;
    } else if (flag == "--trace") {
      args->trace = std::string(value) == "1";
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && have_workload && have_seed && have_seconds;
}

/// Digest of the first statements each session would send, so two runs can
/// be compared for an identical stream.
uint64_t StreamDigest(const WorkloadSpec& w, const Suite& suite,
                      const PointData& point, uint64_t seed) {
  uint64_t h = kFnvOffset;
  if (!w.point) {
    for (uint64_t pass = 0; pass < 10; ++pass) {
      for (size_t i : SuiteOrder(suite.sql.size(), seed, pass)) {
        h = FoldHash(h, suite.sql[i]);
      }
    }
    return h;
  }
  for (int s = 0; s < w.sessions; ++s) {
    PointGenerator gen(&point, seed, s);
    for (int i = 0; i < 1000; ++i) h = FoldHash(h, gen.Next().sql);
  }
  return h;
}

int Run(const Args& args) {
  const WorkloadSpec* spec = nullptr;
  for (const WorkloadSpec& w : kWorkloads) {
    if (args.workload == w.name) spec = &w;
  }
  if (spec == nullptr) {
    std::fprintf(stderr, "unknown workload: %s\n", args.workload.c_str());
    return 2;
  }
  const WorkloadSpec& w = *spec;
  std::printf("e2ebench workload=%s seed=%" PRIu64 " seconds=%g trace=%d\n",
              w.name, args.seed, args.seconds, args.trace ? 1 : 0);

  // References, on their own engine; not part of setup_s.
  Suite suite;
  PointData point;
  {
    const auto start = Clock::now();
    Status st = BuildReferences(w, args.seed, &suite, &point);
    if (!st.ok()) {
      std::fprintf(stderr, "reference: %s\n", st.ToString().c_str());
      return 1;
    }
    std::printf("references: %.3f s, %zu suite statements, %d empty%s\n",
                MsSince(start) / 1000.0, suite.sql.size(), suite.empty_count,
                w.point ? " (point statements each expect one row)"
                        : suite.empty_references.c_str());
  }
  std::printf("stream_digest=%016" PRIx64 "\n",
              StreamDigest(w, suite, point, args.seed));

  Engine engine;
  std::vector<double> setup_s, load_s;
  for (int i = 0; i < kSetups; ++i) {
    engine.Reset();
    SetupTiming timing;
    Status st = SetUp(w, suite, point, &engine, &timing);
    if (!st.ok()) {
      std::fprintf(stderr, "setup: %s\n", st.ToString().c_str());
      return 1;
    }
    setup_s.push_back(timing.setup_s);
    load_s.push_back(timing.load_s);
  }

  auto run_window = [&](double seconds, bool trace) {
    return w.point ? RunPoint(&engine, point, args.seed, seconds, trace)
                   : RunSuite(&engine, suite, args.seed, seconds, trace);
  };

  std::vector<Metric> metrics;
  Totals checked;
  Window shown;
  if (!args.trace) {
    shown = run_window(args.seconds, false);
    metrics = EndToEndMetrics(shown, setup_s);
  } else {
    Window untraced = run_window(args.seconds / 2, false);
    shown = run_window(args.seconds / 2, true);
    metrics = LayerMetrics(untraced, shown, load_s);
    checked.Merge(std::move(untraced.t));
  }
  const Totals& t = shown.t;
  const int64_t attempted = t.attempted + checked.attempted;
  const int64_t failed = t.errors + t.wrong + t.rejected + t.probe_errors +
                         checked.errors + checked.wrong + checked.rejected;

  std::printf("setups: ");
  for (double s : setup_s) std::printf("%.4f ", s);
  std::printf("s (load ");
  for (double s : load_s) std::printf("%.4f ", s);
  std::printf("s)\n");
  std::printf("statements: %zu in %.3f s", t.latency_ms.size(), shown.wall_s);
  if (!shown.pass_ms.empty()) {
    std::printf(", %zu passes, suite_ms.p50 %.3f ms", shown.pass_ms.size(),
                Median(shown.pass_ms));
  }
  for (size_t i = 0; i < shown.group_ms.size(); ++i) {
    const std::string label = w.point ? PointKindName(static_cast<int>(i))
                                      : "Q" + std::to_string(suite.number[i]);
    std::printf("%s%s %.3f (%zu)",
                i % 8 == 0 ? (w.point ? "\n  per-kind p50 ms: "
                                      : "\n  per-query p50 ms: ")
                           : ", ",
                label.c_str(), Median(shown.group_ms[i]),
                shown.group_ms[i].size());
  }
  std::printf("\nerror_rate: %.6f (%" PRId64 " errors, %" PRId64
              " wrong, %" PRId64 " rejected, %" PRId64
              " probe errors of %" PRId64 ")\n",
              Ratio(failed, attempted),
              t.errors + checked.errors, t.wrong + checked.wrong,
              t.rejected + checked.rejected, t.probe_errors, attempted);
  PrintMetrics(metrics);
  PrintJson(failed == 0, std::max<int64_t>(attempted, 1), failed, metrics);
  return 0;
}

}  // namespace
}  // namespace e2ebench

int main(int argc, char** argv) {
  e2ebench::Args args;
  if (!e2ebench::ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: e2ebench --workload <name> --seed <n> --seconds <s> "
                 "--trace <0|1>\n");
    return 2;
  }
  return e2ebench::Run(args);
}
