#include "engine/database.h"

#include <algorithm>
#include <cctype>
#include <chrono>
#include <cstdio>
#include <optional>

#include "bridge/decorrelate.h"
#include "bridge/parse_tree_converter.h"
#include "common/lock_rank.h"
#include "common/strings.h"
#include "engine/explain.h"
#include "exec/block_executor.h"
#include "exec/expr_eval.h"
#include "frontend/binder.h"
#include "frontend/fingerprint.h"
#include "myopt/mysql_optimizer.h"
#include "myopt/refine.h"
#include "parser/parser.h"
#include "verify/block_verifier.h"
#include "verify/skeleton_verifier.h"

namespace taurus {

namespace {

double MsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - start)
      .count();
}

/// Defense-in-depth recursion cap for AST walks; the parser rejects
/// nesting beyond its own (smaller) limit, so this is unreachable for any
/// statement that survived parsing.
constexpr int kMaxBlockNesting = 64;

/// Visits every query block of a statement (derived bodies, expression
/// subquery bodies, UNION continuations).
template <typename Fn>
void ForEachBlock(QueryBlock* block, const Fn& fn, int depth = 0) {
  if (depth > kMaxBlockNesting) return;
  fn(block);
  std::vector<TableRef*> stack;
  for (auto& t : block->from) stack.push_back(t.get());
  while (!stack.empty()) {
    TableRef* r = stack.back();
    stack.pop_back();
    if (r->kind == TableRef::Kind::kJoin) {
      stack.push_back(r->left.get());
      stack.push_back(r->right.get());
    } else if (r->kind == TableRef::Kind::kDerived && r->derived != nullptr) {
      ForEachBlock(r->derived.get(), fn, depth + 1);
    }
  }
  std::vector<Expr*> roots;
  for (auto& item : block->select_items) roots.push_back(item.expr.get());
  if (block->where) roots.push_back(block->where.get());
  for (auto& g : block->group_by) roots.push_back(g.get());
  if (block->having) roots.push_back(block->having.get());
  for (auto& o : block->order_by) roots.push_back(o.expr.get());
  for (auto& t : block->from) stack.push_back(t.get());
  while (!stack.empty()) {
    TableRef* r = stack.back();
    stack.pop_back();
    if (r->kind == TableRef::Kind::kJoin) {
      if (r->on) roots.push_back(r->on.get());
      stack.push_back(r->left.get());
      stack.push_back(r->right.get());
    }
  }
  std::vector<Expr*> estack(roots.begin(), roots.end());
  while (!estack.empty()) {
    Expr* e = estack.back();
    estack.pop_back();
    if (e->subquery) ForEachBlock(e->subquery.get(), fn, depth + 1);
    for (auto& c : e->children) estack.push_back(c.get());
  }
  if (block->union_next) ForEachBlock(block->union_next.get(), fn, depth + 1);
}

/// True when the statement's first token is SHOW (routed to the metrics
/// registry instead of the SELECT pipeline).
bool IsShowStatement(const std::string& sql) {
  size_t i = sql.find_first_not_of(" \t\r\n");
  if (i == std::string::npos || i + 4 > sql.size()) return false;
  const char kShow[] = "show";
  for (size_t j = 0; j < 4; ++j) {
    if (std::tolower(static_cast<unsigned char>(sql[i + j])) != kShow[j]) {
      return false;
    }
  }
  size_t k = i + 4;
  return k >= sql.size() ||
         !(std::isalnum(static_cast<unsigned char>(sql[k])) || sql[k] == '_');
}

/// Fingerprints render as fixed-width hex everywhere (SHOW DIGESTS, SHOW
/// FLIGHT RECORDER, the JSON dumps), matching the fingerprint trace attr.
std::string HexFingerprint(uint64_t fp) {
  char buf[19];
  std::snprintf(buf, sizeof(buf), "0x%016llx",
                static_cast<unsigned long long>(fp));
  return buf;
}

void AppendJsonNum(std::string* out, double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.6g", v);
  *out += buf;
}

void AppendJsonBool(std::string* out, bool v) { *out += v ? "true" : "false"; }

void AppendLatencySummaryJson(std::string* out, const LatencySummary& s) {
  *out += "{\"count\":";
  *out += std::to_string(s.count);
  *out += ",\"sum_ms\":";
  AppendJsonNum(out, s.sum_ms);
  *out += ",\"mean_ms\":";
  AppendJsonNum(out, s.mean_ms());
  *out += ",\"max_ms\":";
  AppendJsonNum(out, s.max_ms);
  *out += "}";
}

}  // namespace

Status Database::ExecuteSql(const std::string& sql) {
  TAURUS_ASSIGN_OR_RETURN(auto stmt, ParseStatement(sql));
  switch (stmt->kind) {
    case Statement::Kind::kCreateTable: {
      TAURUS_ASSIGN_OR_RETURN(TableDef * table,
                              catalog_.CreateTable(stmt->table_name,
                                                   stmt->columns));
      if (!stmt->primary_key.empty()) {
        IndexDef pk;
        pk.name = stmt->table_name + "_pk";
        pk.column_idx = stmt->primary_key;
        pk.unique = true;
        pk.primary = true;
        TAURUS_RETURN_IF_ERROR(catalog_.AddIndex(stmt->table_name, pk));
      }
      storage_.CreateTable(table);
      return Status::OK();
    }
    case Statement::Kind::kCreateIndex: {
      const TableDef* table = catalog_.GetTable(stmt->table_name);
      if (table == nullptr) {
        return Status::NotFound("no such table: " + stmt->table_name);
      }
      IndexDef index = stmt->index;
      for (const ColumnDef& col : stmt->columns) {  // parser parks names here
        int idx = table->ColumnIndex(col.name);
        if (idx < 0) {
          return Status::BindError("index column not found: " + col.name);
        }
        index.column_idx.push_back(idx);
      }
      TAURUS_RETURN_IF_ERROR(catalog_.AddIndex(stmt->table_name, index));
      TableData* data = storage_.Get(table->id);
      if (data != nullptr) data->BuildIndexes();
      return Status::OK();
    }
    case Statement::Kind::kInsert: {
      const TableDef* table = catalog_.GetTable(stmt->table_name);
      TableData* data =
          table != nullptr ? storage_.Get(table->id) : nullptr;
      if (data == nullptr) {
        return Status::NotFound("no such table: " + stmt->table_name);
      }
      for (const auto& row_exprs : stmt->insert_rows) {
        if (row_exprs.size() != table->columns.size()) {
          return Status::InvalidArgument("INSERT arity mismatch");
        }
        Row row;
        for (size_t c = 0; c < row_exprs.size(); ++c) {
          TAURUS_ASSIGN_OR_RETURN(Value v, EvalConstExpr(*row_exprs[c]));
          // Coerce literals to the declared column type where sensible.
          TypeId want = table->columns[c].type;
          if (!v.is_null() && v.type() != want) {
            if (IsTemporalType(want) && v.kind() == Value::Kind::kString) {
              if (CategoryOf(want) == TypeCategory::kDte) {
                TAURUS_ASSIGN_OR_RETURN(int64_t days, ParseDate(v.AsString()));
                v = Value::Date(days);
              } else {
                TAURUS_ASSIGN_OR_RETURN(int64_t secs,
                                        ParseDatetime(v.AsString()));
                v = Value::Datetime(secs);
              }
            } else if (IsNumericType(want) &&
                       v.kind() == Value::Kind::kInt) {
              v = Value::Double(static_cast<double>(v.AsInt()), want);
            } else if (v.kind() == Value::Kind::kInt) {
              v = Value::Int(v.AsInt(), want);
            } else if (v.kind() == Value::Kind::kString) {
              v = Value::Str(v.AsString(), want);
            }
          }
          row.push_back(std::move(v));
        }
        data->Append(std::move(row));
      }
      data->BuildIndexes();
      return Status::OK();
    }
    case Statement::Kind::kAnalyze:
      return Analyze(stmt->table_name);
    case Statement::Kind::kSelect:
    case Statement::Kind::kExplain:
    case Statement::Kind::kExplainAnalyze:
      return Status::InvalidArgument(
          "use Query()/Explain() for SELECT statements");
    case Statement::Kind::kShowStatus:
    case Statement::Kind::kShowDigests:
    case Statement::Kind::kShowFlightRecorder:
    case Statement::Kind::kShowProfile:
      return Status::InvalidArgument("use Query() for SHOW statements");
  }
  return Status::Internal("unreachable statement kind");
}

Status Database::BulkLoad(const std::string& table, std::vector<Row> rows) {
  const TableDef* def = catalog_.GetTable(table);
  TableData* data = def != nullptr ? storage_.Get(def->id) : nullptr;
  if (data == nullptr) return Status::NotFound("no such table: " + table);
  data->Reserve(data->NumRows() + rows.size());
  for (Row& r : rows) {
    if (r.size() != def->columns.size()) {
      return Status::InvalidArgument("bulk load arity mismatch for " + table);
    }
    data->Append(std::move(r));
  }
  data->BuildIndexes();
  return Status::OK();
}

Status Database::Analyze(const std::string& table) {
  const TableDef* def = catalog_.GetTable(table);
  TableData* data = def != nullptr ? storage_.Get(def->id) : nullptr;
  if (data == nullptr) return Status::NotFound("no such table: " + table);
  catalog_.SetStats(def->id, ComputeTableStats(*data));
  return Status::OK();
}

Status Database::AnalyzeAll() {
  for (const std::string& name : catalog_.TableNames()) {
    TAURUS_RETURN_IF_ERROR(Analyze(name));
  }
  return Status::OK();
}

Result<std::unique_ptr<CompiledQuery>> Database::Compile(
    const std::string& sql, OptimizerPath path, QueryEvent* event) {
  QueryEvent discarded;
  return CompileInternal(sql, path, plan_cache_config_.enable, nullptr,
                         event != nullptr ? event : &discarded);
}

void Database::BindCounters() {
  counters_.detours_attempted =
      metrics_.GetCounter("taurus.health.detours_attempted");
  counters_.detours_failed =
      metrics_.GetCounter("taurus.health.detours_failed");
  counters_.fallbacks = metrics_.GetCounter("taurus.health.fallbacks");
  counters_.budget_kills = metrics_.GetCounter("taurus.health.budget_kills");
  counters_.exec_budget_kills =
      metrics_.GetCounter("taurus.health.exec_budget_kills");
  counters_.quarantine_hits =
      metrics_.GetCounter("taurus.health.quarantine_hits");
  counters_.cache_hits = metrics_.GetCounter("taurus.plan_cache.hits");
  counters_.cache_misses = metrics_.GetCounter("taurus.plan_cache.misses");
  counters_.verifier_rules = metrics_.GetCounter("taurus.verify.rules_checked");
  counters_.verifier_violations =
      metrics_.GetCounter("taurus.verify.violations");
  counters_.queries = metrics_.GetCounter("taurus.query.count");
  counters_.query_errors = metrics_.GetCounter("taurus.query.errors");
  counters_.parallel_queries =
      metrics_.GetCounter("taurus.exec.parallel_queries");
  counters_.parallel_pipelines =
      metrics_.GetCounter("taurus.exec.parallel_pipelines");
  counters_.batch_pipelines =
      metrics_.GetCounter("taurus.exec.batch.pipelines");
  counters_.batches = metrics_.GetCounter("taurus.exec.batch.batches");
  counters_.batch_rows = metrics_.GetCounter("taurus.exec.batch.rows");
  counters_.exec_rows_scanned = metrics_.GetCounter("taurus.exec.rows_scanned");
  counters_.exec_index_lookups =
      metrics_.GetCounter("taurus.exec.index_lookups");
  counters_.profile_pipelines =
      metrics_.GetCounter("taurus.exec.profile.pipelines");
  counters_.profile_morsels = metrics_.GetCounter("taurus.exec.profile.morsels");
  counters_.profile_last_busy_ms =
      metrics_.GetGauge("taurus.exec.profile.last_busy_ms");
  counters_.profile_last_idle_ms =
      metrics_.GetGauge("taurus.exec.profile.last_idle_ms");
  counters_.profile_last_workers =
      metrics_.GetGauge("taurus.exec.profile.last_workers");
  counters_.optimize_ms = metrics_.GetHistogram("taurus.query.optimize_ms");
  counters_.execute_ms = metrics_.GetHistogram("taurus.query.execute_ms");
}

void Database::SyncGaugeMetrics() {
  const PlanCacheStats s = plan_cache_.stats();
  metrics_.GetGauge("taurus.plan_cache.insertions")
      ->Set(static_cast<double>(s.insertions));
  metrics_.GetGauge("taurus.plan_cache.evictions")
      ->Set(static_cast<double>(s.evictions));
  metrics_.GetGauge("taurus.plan_cache.invalidations")
      ->Set(static_cast<double>(s.invalidations));
  metrics_.GetGauge("taurus.plan_cache.entries")
      ->Set(static_cast<double>(plan_cache_.size()));
  metrics_.GetGauge("taurus.plan_cache.capacity")
      ->Set(static_cast<double>(plan_cache_.capacity()));
  metrics_.GetGauge("taurus.quarantine.entries")
      ->Set(static_cast<double>(quarantine_.Size()));
  // Workload introspection (DESIGN.md section 15).
  metrics_.GetGauge("taurus.obs.digest.records")
      ->Set(static_cast<double>(digest_store_.records()));
  metrics_.GetGauge("taurus.obs.digest.entries")
      ->Set(static_cast<double>(digest_store_.Size()));
  metrics_.GetGauge("taurus.obs.digest.lru_evictions")
      ->Set(static_cast<double>(digest_store_.lru_evictions()));
  metrics_.GetGauge("taurus.obs.digest.epoch_bumps")
      ->Set(static_cast<double>(digest_store_.epoch_bumps()));
  metrics_.GetGauge("taurus.obs.digest.capacity")
      ->Set(static_cast<double>(digest_config_.capacity));
  metrics_.GetGauge("taurus.obs.recorder.records")
      ->Set(static_cast<double>(flight_recorder_.records()));
  metrics_.GetGauge("taurus.obs.recorder.entries")
      ->Set(static_cast<double>(flight_recorder_.Size()));
  metrics_.GetGauge("taurus.obs.recorder.pinned")
      ->Set(static_cast<double>(flight_recorder_.pinned()));
  metrics_.GetGauge("taurus.obs.recorder.capacity")
      ->Set(static_cast<double>(flight_config_.capacity));
  // Lock-rank analyzer (DESIGN.md section 14). Process-wide, not per-DB:
  // the held-lock stacks are per-thread and every instrumented mutex in
  // the process feeds the same counters.
  metrics_.GetGauge("taurus.verify.lock_rank.enabled")
      ->Set(LockRankRegistry::enabled() ? 1.0 : 0.0);
  metrics_.GetGauge("taurus.verify.lock_rank.checks")
      ->Set(static_cast<double>(LockRankRegistry::checks()));
  metrics_.GetGauge("taurus.verify.lock_rank.violations")
      ->Set(static_cast<double>(LockRankRegistry::violations()));
}

std::string Database::MetricsJson() {
  SyncGaugeMetrics();
  return metrics_.ToJson();
}

Result<QueryResult> Database::ShowStatus(const std::string& pattern) {
  SyncGaugeMetrics();
  QueryResult out;
  out.columns = {"Variable_name", "Value"};
  for (const auto& [name, value] : metrics_.Snapshot()) {
    if (!pattern.empty() && !SqlLikeMatch(name, pattern)) continue;
    Row row;
    row.push_back(Value::Str(name));
    row.push_back(Value::Str(value));
    out.rows.push_back(std::move(row));
  }
  return out;
}

std::shared_ptr<Tracer> Database::NewTracer(bool trace) const {
  if (!trace_config_.enable && !trace) return nullptr;
  return std::make_shared<Tracer>(trace_config_.clock != nullptr
                                      ? trace_config_.clock
                                      : &SteadyClock::Instance());
}

std::string Database::MakeCacheKey(const std::string& canonical,
                                   OptimizerPath path) const {
  // Everything that steers optimization after fingerprinting must be part
  // of the key: the requested path, the router decision inputs, and the
  // Orca knobs / cost constants. A config change then simply misses
  // instead of serving a plan compiled under different settings.
  std::string key = canonical;
  key += "|path=";
  key += std::to_string(static_cast<int>(path));
  key += "|router=";
  key += std::to_string(router_config_.enable_orca);
  key += ",";
  key += std::to_string(router_config_.complex_query_threshold);
  key += "|orca=";
  key += std::to_string(static_cast<int>(orca_config_.strategy));
  for (bool flag :
       {orca_config_.enable_or_factoring, orca_config_.enable_bushy,
        orca_config_.enable_index_nlj, orca_config_.flip_inner_hash_build,
        orca_config_.enable_decorrelation}) {
    key += flag ? '1' : '0';
  }
  const CostParams& c = orca_config_.cost;
  for (double v : {c.seq_row, c.index_descend, c.index_row, c.hash_build,
                   c.hash_probe, c.row_out, c.sort_row, c.materialize_row}) {
    key += ",";
    key += std::to_string(v);
  }
  return key;
}

bool Database::IsQuarantined(uint64_t fingerprint_hash) const {
  return quarantine_.IsQuarantined(fingerprint_hash, catalog_.schema_version(),
                                   catalog_.stats_version(),
                                   quarantine_config_.failure_threshold);
}

void Database::RecordDetourFailure(uint64_t fingerprint_hash) {
  bool newly_quarantined = quarantine_.RecordFailure(
      fingerprint_hash, catalog_.schema_version(), catalog_.stats_version(),
      quarantine_config_.failure_threshold);
  // Entering quarantine reroutes the statement to the MySQL path — a plan
  // change the digest's epoch split must surface, same as a cache
  // invalidation.
  if (newly_quarantined) digest_store_.BumpEpoch(fingerprint_hash, "quarantine");
}

Result<std::unique_ptr<CompiledQuery>> Database::CompileFromCacheEntry(
    const PlanCacheEntry& entry, BoundStatement stmt, Tracer* tracer,
    QueryEvent* event) {
  // Replay the route's deterministic pre-optimization AST rewrites: the
  // cached skeleton was built against the rewritten statement, and the
  // rewritten predicates must reach refinement/execution exactly as on the
  // cold compile.
  if (entry.via_orca_route) {
    if (orca_config_.enable_decorrelation) {
      TAURUS_RETURN_IF_ERROR(DecorrelateScalarSubqueries(&stmt).status());
    }
    if (orca_config_.enable_or_factoring) {
      ForEachBlock(stmt.block.get(), [](QueryBlock* b) {
        if (!b->from.empty()) ApplyOrcaOrFactoring(b);
      });
    }
  } else {
    ForEachBlock(stmt.block.get(), [&stmt](QueryBlock* b) {
      ApplyIndexGatedOrFactoring(b, stmt.leaves);
    });
  }
  ScopedSpan thaw_span(tracer, "cache.thaw");
  TAURUS_ASSIGN_OR_RETURN(auto skeleton, ThawSkeleton(entry.skeleton, stmt));
  thaw_span.End();
  // Thaw verification: a cached skeleton that no longer satisfies the
  // invariants (stale freeze format, catalog drift the version check
  // missed) fails the compile here, and CompileInternal recompiles from
  // SQL with the cache bypassed.
  VerifyReport report;
  if (verify_config_.verify_plans) {
    ScopedSpan verify_span(tracer, "verify.thaw");
    VerifySkeletonPlan(*skeleton, catalog_,
                       /*check_cte_pairing=*/entry.used_orca, &report);
    if (verify_config_.enforce && !report.ok()) {
      return report.ToStatus("verify.thaw");
    }
  }
  ScopedSpan refine_span(tracer, "refine");
  TAURUS_ASSIGN_OR_RETURN(auto compiled,
                          RefinePlan(std::move(stmt), *skeleton, catalog_));
  refine_span.End();
  if (verify_config_.verify_plans) {
    ScopedSpan verify_span(tracer, "verify.block");
    VerifyBlockPlan(*compiled, &report);
    if (verify_config_.enforce && entry.used_orca && !report.ok()) {
      return report.ToStatus("verify.block");
    }
  }
  event->used_orca = entry.used_orca;
  event->verifier_rules += report.rules_checked;
  event->verifier_violations += report.violations();
  return compiled;
}

Result<std::unique_ptr<CompiledQuery>> Database::CompileInternal(
    const std::string& sql, OptimizerPath path, bool use_cache,
    Tracer* tracer, QueryEvent* event) {
  auto start = std::chrono::steady_clock::now();
  event->plan_cache_hit = false;

  ScopedSpan parse_span(tracer, "parse");
  TAURUS_ASSIGN_OR_RETURN(auto parsed, ParseSelect(sql));
  parse_span.End();
  ScopedSpan bind_span(tracer, "bind");
  TAURUS_ASSIGN_OR_RETURN(BoundStatement stmt,
                          BindStatement(catalog_, std::move(parsed)));
  bind_span.End();
  ScopedSpan prepare_span(tracer, "prepare");
  TAURUS_RETURN_IF_ERROR(PrepareStatement(&stmt, prepare_options_));
  prepare_span.End();

  // The normalized statement fingerprint keys the plan cache, the
  // quarantine map and the digest store.
  ScopedSpan fp_span(tracer, "fingerprint");
  StatementFingerprint fp = FingerprintStatement(stmt);
  const uint64_t fingerprint = fp.hash;
  event->fingerprint = fingerprint;
  event->canonical = std::move(fp.canonical);
  const bool quarantined =
      path == OptimizerPath::kAuto && IsQuarantined(fingerprint);
  fp_span.Attr("fingerprint", std::to_string(fingerprint));
  if (quarantined) fp_span.Attr("quarantined", "true");
  fp_span.End();

  // Skeleton-plan cache: looked up strictly before the router, so a hit
  // skips routing and both optimizers. A quarantined statement refuses a
  // cached Orca plan; the fresh compile below re-caches it under the same
  // key as a MySQL-path plan.
  std::string cache_key;
  if (use_cache) {
    cache_key = MakeCacheKey(event->canonical, path);
    ScopedSpan lookup_span(tracer, "cache.lookup");
    std::shared_ptr<const PlanCacheEntry> entry =
        plan_cache_.Lookup(cache_key, catalog_.schema_version(),
                           catalog_.stats_version());
    if (entry != nullptr && quarantined && entry->used_orca) entry.reset();
    lookup_span.Attr("hit", entry != nullptr ? "true" : "false");
    lookup_span.End();
    if (entry != nullptr) {
      auto hit =
          CompileFromCacheEntry(*entry, std::move(stmt), tracer, event);
      if (hit.ok()) {
        counters_.cache_hits->Increment();
        const double ms = MsSince(start);
        event->plan_cache_hit = true;
        event->optimize_ms += ms;
        event->optimize_saved_ms += std::max(entry->cold_optimize_ms - ms, 0.0);
        return hit;
      }
      // Thaw/refine mismatch (should not happen; defensive): the statement
      // was consumed, so recompile from SQL with the cache bypassed.
      counters_.cache_misses->Increment();
      return CompileInternal(sql, path, /*use_cache=*/false, tracer, event);
    }
    counters_.cache_misses->Increment();
  }

  // Freezes `skel` before refinement consumes the statement; null when
  // caching is off or the skeleton does not freeze.
  auto freeze = [&](const BlockSkeleton& skel) {
    std::optional<FrozenBlockSkeleton> frozen;
    if (!use_cache) return frozen;
    ScopedSpan freeze_span(tracer, "cache.freeze");
    auto frozen_or = FreezeSkeleton(skel);
    if (frozen_or.ok()) frozen = std::move(*frozen_or);
    return frozen;
  };
  // Books this compile's time and caches the plan when it froze.
  auto finish = [&](const BlockSkeleton& skel,
                    std::optional<FrozenBlockSkeleton> frozen,
                    bool used_orca) {
    const double ms = MsSince(start);
    event->used_orca = used_orca;
    event->optimize_ms += ms;
    if (!frozen.has_value()) return;
    PlanCacheEntry entry;
    entry.fingerprint = fingerprint;
    entry.skeleton = std::move(*frozen);
    entry.used_orca = used_orca;
    entry.via_orca_route = used_orca;
    entry.est_cost = skel.cost;
    entry.est_rows = skel.out_rows;
    entry.cold_optimize_ms = ms;
    entry.schema_version = catalog_.schema_version();
    entry.stats_version = catalog_.stats_version();
    plan_cache_.Insert(cache_key, std::move(entry),
                       plan_cache_config_.capacity);
  };

  bool try_orca = path == OptimizerPath::kOrca ||
                  (path == OptimizerPath::kAuto &&
                   ShouldRouteToOrca(stmt, router_config_));
  bool quarantine_hit = false;
  if (try_orca && quarantined) {
    try_orca = false;
    quarantine_hit = true;
    event->quarantine_hit = true;
    counters_.quarantine_hits->Increment();
  }
  {
    ScopedSpan route_span(tracer, "route");
    route_span.Attr("decision", quarantine_hit ? "quarantine"
                                : try_orca     ? "orca"
                                               : "mysql");
  }

  if (try_orca) {
    Status detour_error;
    counters_.detours_attempted->Increment();
    ScopedSpan detour_span(tracer, "orca.detour");
    ResourceGovernor governor(resource_budget_);
    OrcaPathOptimizer orca(
        catalog_, &stmt, &mdp_, orca_config_,
        resource_budget_.governs_optimize() ? &governor : nullptr,
        &verify_config_, tracer);
    auto orca_skel = orca.Optimize();
    int verifier_rules = orca.verify_report().rules_checked;
    int verifier_violations = orca.verify_report().violations();
    if (orca_skel.ok()) {
      // The detour proper ends here; freeze/refine/verify.block are shared
      // post-optimization steps and trace as compile-level siblings.
      detour_span.End();
      std::unique_ptr<BlockSkeleton> skeleton = std::move(*orca_skel);
      std::optional<FrozenBlockSkeleton> frozen = freeze(*skeleton);
      ScopedSpan refine_span(tracer, "refine");
      auto refined = RefinePlan(std::move(stmt), *skeleton, catalog_);
      refine_span.End();
      if (refined.ok()) {
        // Post-refinement boundary: the executable block plan (B001-B003).
        if (verify_config_.verify_plans) {
          ScopedSpan verify_span(tracer, "verify.block");
          VerifyReport block_report;
          VerifyBlockPlan(**refined, &block_report);
          verifier_rules += block_report.rules_checked;
          verifier_violations += block_report.violations();
          if (verify_config_.enforce && !block_report.ok()) {
            detour_error = block_report.ToStatus("verify.block");
          }
        }
        if (detour_error.ok()) {
          event->orca = orca.metrics();
          event->verifier_rules += verifier_rules;
          event->verifier_violations += verifier_violations;
          finish(*skeleton, std::move(frozen), /*used_orca=*/true);
          return std::move(*refined);
        }
      } else {
        detour_error = refined.status();
      }
    } else {
      detour_error = orca_skel.status();
    }

    // The detour failed. Forced-Orca surfaces the error; the auto route
    // aborts the detour and resorts to the usual MySQL optimization
    // (Section 4.2.1).
    counters_.detours_failed->Increment();
    if (detour_error.code() == StatusCode::kResourceExhausted) {
      counters_.budget_kills->Increment();
    }
    detour_span.End();
    detour_span.Attr("aborted", "true");
    detour_span.Attr("status", detour_error.ToString());
    if (path == OptimizerPath::kOrca) return detour_error;
    counters_.fallbacks->Increment();
    event->fell_back = true;
    event->fallback_reason = detour_error.ToString();
    RecordDetourFailure(fingerprint);
    // Clean fallback: the detour may have rewritten the AST (decorrelation,
    // OR factoring) or consumed it (refinement), so re-parse and re-bind
    // from the pristine SQL. The MySQL path then sees exactly what it would
    // have seen without the detour — which also makes the compile cacheable.
    ScopedSpan reparse_span(tracer, "fallback.reparse");
    reparse_span.Attr("reason", event->fallback_reason);
    TAURUS_ASSIGN_OR_RETURN(auto reparsed, ParseSelect(sql));
    TAURUS_ASSIGN_OR_RETURN(stmt,
                            BindStatement(catalog_, std::move(reparsed)));
    TAURUS_RETURN_IF_ERROR(PrepareStatement(&stmt, prepare_options_));
  }

  // MySQL path: direct route, quarantine skip, or clean fallback.
  ScopedSpan mysql_span(tracer, "mysql.optimize");
  TAURUS_ASSIGN_OR_RETURN(auto skeleton, MySqlOptimize(catalog_, &stmt));
  mysql_span.End();

  // Counts-only on the MySQL path: it is the fallback of last resort, so
  // violations are surfaced in QueryResult/EXPLAIN but never fatal. S005
  // (CTE pairing) is skipped — the native optimizer legitimately plans
  // each CTE copy independently.
  VerifyReport mysql_report;
  if (verify_config_.verify_plans) {
    ScopedSpan verify_span(tracer, "verify.skeleton");
    VerifySkeletonPlan(*skeleton, catalog_, /*check_cte_pairing=*/false,
                       &mysql_report);
  }
  std::optional<FrozenBlockSkeleton> frozen = freeze(*skeleton);

  ScopedSpan refine_span(tracer, "refine");
  TAURUS_ASSIGN_OR_RETURN(auto compiled,
                          RefinePlan(std::move(stmt), *skeleton, catalog_));
  refine_span.End();
  if (verify_config_.verify_plans) {
    ScopedSpan verify_span(tracer, "verify.block");
    VerifyBlockPlan(*compiled, &mysql_report);
  }
  event->verifier_rules += mysql_report.rules_checked;
  event->verifier_violations += mysql_report.violations();
  finish(*skeleton, std::move(frozen), /*used_orca=*/false);
  return compiled;
}

Result<QueryResult> Database::Query(const std::string& sql,
                                    OptimizerPath path) {
  return Query(sql, path, QueryOptions{});
}

Result<QueryResult> Database::Query(const std::string& sql,
                                    OptimizerPath path,
                                    const QueryOptions& options) {
  // SHOW statements read engine-side state (metrics registry, digest
  // store, flight recorder) and never enter the SELECT pipeline — no
  // trace, no optimizer, and no digest/recorder event of their own, so
  // SHOW DIGESTS totals reconcile exactly with taurus.query.count.
  if (IsShowStatement(sql)) {
    TAURUS_ASSIGN_OR_RETURN(auto stmt, ParseStatement(sql));
    switch (stmt->kind) {
      case Statement::Kind::kShowStatus:
        return ShowStatus(stmt->table_name);
      case Statement::Kind::kShowDigests:
        return ShowDigests(stmt->table_name);
      case Statement::Kind::kShowFlightRecorder:
        return ShowFlightRecorder();
      case Statement::Kind::kShowProfile:
        return ShowProfile(static_cast<uint64_t>(stmt->profile_seq));
      default:
        return Status::InvalidArgument("unsupported SHOW statement");
    }
  }
  return QueryInternal(sql, path, options, nullptr, nullptr);
}

Result<QueryResult> Database::QueryInternal(
    const std::string& sql, OptimizerPath path, const QueryOptions& options,
    OpActualsMap* actuals, std::unique_ptr<CompiledQuery>* compiled_out) {
  QueryResult out;
  static_cast<QueryEvent&>(out) = options.seed;
  Status status =
      QueryPipeline(sql, path, options, actuals, compiled_out, &out);
  RecordQueryEvent(status, &out);
  if (!status.ok()) return status;
  return out;
}

Status Database::QueryPipeline(const std::string& sql, OptimizerPath path,
                               const QueryOptions& options,
                               OpActualsMap* actuals,
                               std::unique_ptr<CompiledQuery>* compiled_out,
                               QueryResult* out) {
  std::shared_ptr<Tracer> tracer_owner = NewTracer(options.trace);
  Tracer* tracer = tracer_owner.get();
  out->trace = std::move(tracer_owner);
  ScopedSpan query_span(tracer, "query");
  ScopedSpan compile_span(tracer, "compile");
  auto compiled_or =
      CompileInternal(sql, path, plan_cache_config_.enable, tracer, out);
  compile_span.End();
  TAURUS_RETURN_IF_ERROR(compiled_or.status());
  std::unique_ptr<CompiledQuery> compiled = std::move(*compiled_or);
  out->columns = compiled->root->column_names;

  auto start = std::chrono::steady_clock::now();
  ExecContext ctx;
  ArmExecContext(&ctx, options.worker_cap, actuals, out);
  ExecContext* final_ctx = &ctx;
  ScopedSpan exec_span(tracer, "execute");
  auto rows = ExecuteQuery(compiled.get(), storage_, &ctx);
  exec_span.End();
  int final_exec_id = exec_span.id();
  ExecContext retry_ctx;  // ExecContext is non-copyable (shared atomic
                          // budget counter), so the fallback re-execution
                          // gets its own context.
  if (!rows.ok()) {
    bool budget_kill = out->used_orca &&
                       rows.status().code() == StatusCode::kResourceExhausted;
    if (!budget_kill || path != OptimizerPath::kAuto) return rows.status();
    // The executor budget killed an Orca plan mid-execution on the auto
    // route: recompile through the MySQL path and re-execute unbudgeted.
    counters_.exec_budget_kills->Increment();
    counters_.fallbacks->Increment();
    RecordDetourFailure(out->fingerprint);
    Status kill = rows.status();
    exec_span.Attr("aborted", "true");
    exec_span.Attr("status", kill.ToString());
    ScopedSpan recompile_span(tracer, "fallback.recompile");
    auto retry_or = CompileInternal(sql, OptimizerPath::kMySql,
                                    plan_cache_config_.enable, tracer, out);
    recompile_span.End();
    TAURUS_RETURN_IF_ERROR(retry_or.status());
    compiled = std::move(*retry_or);
    out->fell_back = true;
    out->fallback_reason = kill.ToString();
    if (actuals != nullptr) actuals->clear();  // the aborted run's are stale
    ArmExecContext(&retry_ctx, options.worker_cap, actuals, out);
    ScopedSpan retry_span(tracer, "execute");
    retry_span.Attr("retry", "true");
    rows = ExecuteQuery(compiled.get(), storage_, &retry_ctx);
    retry_span.End();
    final_exec_id = retry_span.id();
    final_ctx = &retry_ctx;
    TAURUS_RETURN_IF_ERROR(rows.status());
  }
  out->rows = std::move(*rows);
  out->rows_returned = static_cast<int64_t>(out->rows.size());
  out->execute_ms = MsSince(start);
  out->rows_scanned = final_ctx->rows_scanned;
  out->index_lookups = final_ctx->index_lookups;
  out->rebinds = final_ctx->rebinds;
  out->parallel_workers_used = final_ctx->max_workers_used;
  out->parallel_pipelines = final_ctx->parallel_pipelines;
  out->batch_pipelines = final_ctx->batch_pipelines;
  out->batches = final_ctx->batches;
  out->batch_rows = final_ctx->batch_rows;
  if (tracer != nullptr) {
    tracer->SetAttr(final_exec_id, "workers",
                    std::to_string(out->parallel_workers_used));
    tracer->SetAttr(final_exec_id, "pipelines",
                    std::to_string(out->parallel_pipelines));
    tracer->SetAttr(final_exec_id, "batch_pipelines",
                    std::to_string(out->batch_pipelines));
  }
  if (compiled_out != nullptr) *compiled_out = std::move(compiled);
  return Status::OK();
}

void Database::RecordQueryEvent(const Status& status, QueryResult* out) {
  const QueryEvent& e = *out;
  counters_.queries->Increment();
  if (!status.ok()) counters_.query_errors->Increment();
  // Every finished compile adds a positive time; 0 means none finished.
  if (e.optimize_ms > 0) counters_.optimize_ms->Record(e.optimize_ms);
  if (status.ok()) {
    counters_.execute_ms->Record(e.execute_ms);
    counters_.exec_rows_scanned->Increment(e.rows_scanned);
    counters_.exec_index_lookups->Increment(e.index_lookups);
    if (e.verifier_rules > 0) {
      counters_.verifier_rules->Increment(e.verifier_rules);
    }
    if (e.verifier_violations > 0) {
      counters_.verifier_violations->Increment(e.verifier_violations);
    }
    if (e.parallel_pipelines > 0) {
      counters_.parallel_queries->Increment();
      counters_.parallel_pipelines->Increment(e.parallel_pipelines);
    }
    if (e.batch_pipelines > 0) {
      counters_.batch_pipelines->Increment(e.batch_pipelines);
      counters_.batches->Increment(e.batches);
      counters_.batch_rows->Increment(e.batch_rows);
    }
  }
  if (e.profile.pipelines > 0) {
    counters_.profile_pipelines->Increment(e.profile.pipelines);
    counters_.profile_morsels->Increment(e.profile.morsels());
    counters_.profile_last_busy_ms->Set(e.profile.busy_ms());
    counters_.profile_last_idle_ms->Set(e.profile.idle_ms());
    counters_.profile_last_workers->Set(
        static_cast<double>(e.profile.workers.size()));
  }

  double total_ms = e.optimize_ms + e.execute_ms;
  if (e.trace != nullptr) {
    const TraceSpan* root = e.trace->Find("query");
    if (root != nullptr && root->ended) total_ms = root->duration_ms();
  }
  digest_store_.Record(e, !status.ok(), total_ms);
  if (!flight_config_.enable) return;
  FlightRecord rec;
  rec.status = status.ok() ? "ok" : status.ToString();
  rec.total_ms = total_ms;
  rec.event = e;
  out->flight_seq = flight_recorder_.Record(std::move(rec));
}

Result<QueryResult> Database::ShowDigests(const std::string& pattern) {
  QueryResult out;
  out.columns = {"Digest",         "Statement",      "Calls",
                 "Errors",         "OrcaCalls",      "MySqlCalls",
                 "CacheHits",      "Shed",           "Fallbacks",
                 "QuarantineHits", "VerifierViolations", "Rows",
                 "P50Ms",          "P95Ms",          "MaxMs",
                 "PlanEpoch",      "EpochCause",     "EpochCalls",
                 "EpochAvgMs",     "PrevEpochCalls", "PrevEpochAvgMs"};
  for (const DigestSnapshot& d : digest_store_.Snapshot()) {
    if (!pattern.empty() && !SqlLikeMatch(d.statement, pattern)) continue;
    Row row;
    row.push_back(Value::Str(HexFingerprint(d.fingerprint)));
    row.push_back(Value::Str(d.statement));
    row.push_back(Value::Int(d.calls));
    row.push_back(Value::Int(d.errors));
    row.push_back(Value::Int(d.orca_calls));
    row.push_back(Value::Int(d.mysql_calls));
    row.push_back(Value::Int(d.plan_cache_hits));
    row.push_back(Value::Int(d.shed));
    row.push_back(Value::Int(d.fallbacks));
    row.push_back(Value::Int(d.quarantine_hits));
    row.push_back(Value::Int(d.verifier_violations));
    row.push_back(Value::Int(d.rows_returned));
    row.push_back(Value::Double(d.latency_p50));
    row.push_back(Value::Double(d.latency_p95));
    row.push_back(Value::Double(d.latency_max_ms));
    row.push_back(Value::Int(d.plan_epoch));
    row.push_back(Value::Str(d.epoch_cause));
    row.push_back(Value::Int(d.epoch_latency.count));
    row.push_back(Value::Double(d.epoch_latency.mean_ms()));
    row.push_back(Value::Int(d.prev_epoch_latency.count));
    row.push_back(Value::Double(d.prev_epoch_latency.mean_ms()));
    out.rows.push_back(std::move(row));
  }
  return out;
}

Result<QueryResult> Database::ShowFlightRecorder() {
  QueryResult out;
  out.columns = {"Seq",        "Session",  "Digest",     "Status",
                 "Admission",  "WaitMs",   "Path",       "CacheHit",
                 "Rows",       "OptimizeMs", "ExecuteMs", "TotalMs",
                 "Workers",    "Batches",  "PinnedTrace"};
  std::vector<FlightRecord> events = flight_recorder_.Snapshot();
  // Newest first: the post-mortem reader wants the recent past on top.
  for (auto it = events.rbegin(); it != events.rend(); ++it) {
    const QueryEvent& e = it->event;
    Row row;
    row.push_back(Value::Int(static_cast<int64_t>(e.flight_seq)));
    row.push_back(Value::Int(static_cast<int64_t>(e.session_id)));
    row.push_back(Value::Str(HexFingerprint(e.fingerprint)));
    row.push_back(Value::Str(it->status));
    row.push_back(Value::Str(AdmissionOutcome(e)));
    row.push_back(Value::Double(e.admission_wait_ms));
    row.push_back(Value::Str(e.used_orca ? "orca" : "mysql"));
    row.push_back(Value::Bool(e.plan_cache_hit));
    row.push_back(Value::Int(e.rows_returned));
    row.push_back(Value::Double(e.optimize_ms));
    row.push_back(Value::Double(e.execute_ms));
    row.push_back(Value::Double(it->total_ms));
    row.push_back(Value::Int(e.parallel_workers_used));
    row.push_back(Value::Int(e.batches));
    row.push_back(
        Value::Str(e.trace != nullptr ? e.trace->TreeString() : ""));
    out.rows.push_back(std::move(row));
  }
  return out;
}

Result<QueryResult> Database::ShowProfile(uint64_t seq) {
  FlightRecord rec;
  if (!flight_recorder_.Find(seq, &rec)) {
    return Status::NotFound("no flight-recorder event with seq " +
                            std::to_string(seq) +
                            " (overwritten or never recorded)");
  }
  const ExecProfile& profile = rec.event.profile;
  QueryResult out;
  out.columns = {"Seq",     "Worker",    "BusyMs",     "IdleMs",
                 "Morsels", "BatchRows", "VolcanoRows", "AdmissionWaitMs"};
  for (size_t w = 0; w < profile.workers.size(); ++w) {
    const WorkerProfile& wp = profile.workers[w];
    Row row;
    row.push_back(Value::Int(static_cast<int64_t>(seq)));
    row.push_back(Value::Str(std::to_string(w)));
    row.push_back(Value::Double(wp.busy_ms));
    row.push_back(Value::Double(wp.idle_ms));
    row.push_back(Value::Int(wp.morsels));
    row.push_back(Value::Int(wp.batch_rows));
    row.push_back(Value::Int(wp.volcano_rows));
    row.push_back(Value::Double(0.0));
    out.rows.push_back(std::move(row));
  }
  // Totals row (always present, even for serial/unprofiled queries, so the
  // admission wait is visible and "no per-worker rows" is distinguishable
  // from "event not found").
  Row total;
  total.push_back(Value::Int(static_cast<int64_t>(seq)));
  total.push_back(Value::Str("total"));
  total.push_back(Value::Double(profile.busy_ms()));
  total.push_back(Value::Double(profile.idle_ms()));
  total.push_back(Value::Int(profile.morsels()));
  int64_t batch_rows = 0;
  int64_t volcano_rows = 0;
  for (const WorkerProfile& wp : profile.workers) {
    batch_rows += wp.batch_rows;
    volcano_rows += wp.volcano_rows;
  }
  total.push_back(Value::Int(batch_rows));
  total.push_back(Value::Int(volcano_rows));
  total.push_back(Value::Double(rec.event.admission_wait_ms));
  out.rows.push_back(std::move(total));
  return out;
}

std::string Database::DigestsJson() {
  std::string out = "{\"capacity\":";
  out += std::to_string(digest_config_.capacity);
  out += ",\"records\":";
  out += std::to_string(digest_store_.records());
  out += ",\"lru_evictions\":";
  out += std::to_string(digest_store_.lru_evictions());
  out += ",\"epoch_bumps\":";
  out += std::to_string(digest_store_.epoch_bumps());
  out += ",\"digests\":[";
  bool first = true;
  for (const DigestSnapshot& d : digest_store_.Snapshot()) {
    if (!first) out += ",";
    first = false;
    out += "{\"fingerprint\":\"";
    out += HexFingerprint(d.fingerprint);
    out += "\",\"statement\":\"";
    out += JsonEscape(d.statement);
    out += "\",\"calls\":";
    out += std::to_string(d.calls);
    out += ",\"errors\":";
    out += std::to_string(d.errors);
    out += ",\"orca_calls\":";
    out += std::to_string(d.orca_calls);
    out += ",\"mysql_calls\":";
    out += std::to_string(d.mysql_calls);
    out += ",\"plan_cache_hits\":";
    out += std::to_string(d.plan_cache_hits);
    out += ",\"shed\":";
    out += std::to_string(d.shed);
    out += ",\"fallbacks\":";
    out += std::to_string(d.fallbacks);
    out += ",\"quarantine_hits\":";
    out += std::to_string(d.quarantine_hits);
    out += ",\"verifier_violations\":";
    out += std::to_string(d.verifier_violations);
    out += ",\"rows_returned\":";
    out += std::to_string(d.rows_returned);
    out += ",\"latency\":{\"count\":";
    out += std::to_string(d.latency_count);
    out += ",\"sum_ms\":";
    AppendJsonNum(&out, d.latency_sum_ms);
    out += ",\"p50\":";
    AppendJsonNum(&out, d.latency_p50);
    out += ",\"p95\":";
    AppendJsonNum(&out, d.latency_p95);
    out += ",\"p99\":";
    AppendJsonNum(&out, d.latency_p99);
    out += ",\"max_ms\":";
    AppendJsonNum(&out, d.latency_max_ms);
    out += "},\"orca_latency\":";
    AppendLatencySummaryJson(&out, d.orca_latency);
    out += ",\"mysql_latency\":";
    AppendLatencySummaryJson(&out, d.mysql_latency);
    out += ",\"plan_epoch\":";
    out += std::to_string(d.plan_epoch);
    out += ",\"epoch_cause\":\"";
    out += JsonEscape(d.epoch_cause);
    out += "\",\"epoch_latency\":";
    AppendLatencySummaryJson(&out, d.epoch_latency);
    out += ",\"prev_epoch_latency\":";
    AppendLatencySummaryJson(&out, d.prev_epoch_latency);
    out += "}";
  }
  out += "]}";
  return out;
}

std::string Database::FlightRecorderJson() {
  std::string out = "{\"capacity\":";
  out += std::to_string(flight_config_.capacity);
  out += ",\"records\":";
  out += std::to_string(flight_recorder_.records());
  out += ",\"pinned\":";
  out += std::to_string(flight_recorder_.pinned());
  out += ",\"events\":[";
  bool first = true;
  for (const FlightRecord& rec : flight_recorder_.Snapshot()) {
    const QueryEvent& e = rec.event;
    if (!first) out += ",";
    first = false;
    out += "{\"seq\":";
    out += std::to_string(e.flight_seq);
    out += ",\"session\":";
    out += std::to_string(e.session_id);
    out += ",\"fingerprint\":\"";
    out += HexFingerprint(e.fingerprint);
    out += "\",\"status\":\"";
    out += JsonEscape(rec.status);
    out += "\",\"error\":";
    AppendJsonBool(&out, rec.error());
    out += ",\"admission\":\"";
    out += AdmissionOutcome(e);
    out += "\",\"wait_ms\":";
    AppendJsonNum(&out, e.admission_wait_ms);
    out += ",\"used_orca\":";
    AppendJsonBool(&out, e.used_orca);
    out += ",\"fell_back\":";
    AppendJsonBool(&out, e.fell_back);
    out += ",\"shed\":";
    AppendJsonBool(&out, e.shed);
    out += ",\"quarantine_hit\":";
    AppendJsonBool(&out, e.quarantine_hit);
    out += ",\"plan_cache_hit\":";
    AppendJsonBool(&out, e.plan_cache_hit);
    out += ",\"optimize_ms\":";
    AppendJsonNum(&out, e.optimize_ms);
    out += ",\"execute_ms\":";
    AppendJsonNum(&out, e.execute_ms);
    out += ",\"total_ms\":";
    AppendJsonNum(&out, rec.total_ms);
    out += ",\"rows\":";
    out += std::to_string(e.rows_returned);
    out += ",\"workers\":";
    out += std::to_string(e.parallel_workers_used);
    out += ",\"batches\":";
    out += std::to_string(e.batches);
    out += ",\"morsels\":";
    out += std::to_string(e.profile.morsels());
    out += ",\"busy_ms\":";
    AppendJsonNum(&out, e.profile.busy_ms());
    out += ",\"pinned_trace\":";
    AppendJsonBool(&out, e.trace != nullptr);
    out += "}";
  }
  out += "]}";
  return out;
}

Result<std::string> Database::ExplainAnalyze(const std::string& sql,
                                             OptimizerPath path) {
  OpActualsMap actuals;
  std::unique_ptr<CompiledQuery> compiled;
  TAURUS_ASSIGN_OR_RETURN(
      QueryResult res,
      QueryInternal(sql, path, QueryOptions{}, &actuals, &compiled));
  return RenderExplainAnalyze(*compiled, res, actuals);
}

Result<std::string> Database::ExplainAnalyzeJsonDump(const std::string& sql,
                                                     OptimizerPath path) {
  OpActualsMap actuals;
  std::unique_ptr<CompiledQuery> compiled;
  TAURUS_ASSIGN_OR_RETURN(
      QueryResult res,
      QueryInternal(sql, path, QueryOptions{}, &actuals, &compiled));
  return ExplainAnalyzeJson(*compiled, res, actuals);
}

std::shared_ptr<ThreadPool> Database::GetPool(int workers) {
  MutexLock lock(&pool_mu_);
  if (pool_ == nullptr || pool_->size() != workers) {
    // Resize by replacement: queries armed against the old pool keep it
    // alive (and functional) through their ExecContext::pool_owner.
    pool_ = std::make_shared<ThreadPool>(workers);
  }
  return pool_;
}

void Database::ArmExecContext(ExecContext* ctx, int worker_cap,
                              OpActualsMap* actuals, QueryEvent* event) {
  const bool used_orca = event->used_orca;
  if (used_orca && resource_budget_.governs_exec()) {
    // The executor budget governs the detour only; the MySQL path (and any
    // fallback re-execution) runs unbudgeted.
    ctx->max_rows_scanned = resource_budget_.max_exec_rows;
    if (resource_budget_.exec_deadline_ms > 0) {
      ctx->clock_ms = resource_budget_.clock_ms
                          ? resource_budget_.clock_ms
                          : std::function<double()>(
                                &ResourceGovernor::SteadyNowMs);
      ctx->exec_deadline_ms =
          ctx->clock_ms() + resource_budget_.exec_deadline_ms;
    }
  }
  int pool_size = exec_config_.parallel_workers;
  if (pool_size <= 0) pool_size = ThreadPool::HardwareWorkers();
  int workers = pool_size;
  // The admission controller's worker-token lease caps this query's DOP
  // without resizing the shared pool (other queries keep their own leases).
  if (worker_cap > 0) workers = std::min(workers, worker_cap);
  ctx->parallel_workers = workers;
  ctx->morsel_rows = std::max<int64_t>(1, exec_config_.morsel_rows);
  ctx->parallel_min_driver_rows = exec_config_.parallel_min_driver_rows;
  ctx->use_batch = exec_config_.enable_batch;
  ctx->batch_size = std::max<int64_t>(1, exec_config_.batch_size);
  if (workers > 1) {
    ctx->pool_owner = GetPool(pool_size);
    ctx->pool = ctx->pool_owner.get();
  }
  // Per-worker morsel timing lands in the event; the parallel executor's
  // workers stamp private slots and merge on the main thread.
  const Clock* clock = trace_config_.clock != nullptr
                           ? trace_config_.clock
                           : &SteadyClock::Instance();
  ctx->exec_profile = &event->profile;
  ctx->profile_clock = clock;
  if (actuals != nullptr) {
    ctx->op_actuals = actuals;
    ctx->analyze_clock = clock;
  }
  if (verify_config_.verify_plans) {
    // B004 — budget hooks present on the armed execution context.
    VerifyReport arm_report;
    VerifyExecBudgetArming(used_orca, resource_budget_.governs_exec(), *ctx,
                           &arm_report);
    event->verifier_rules += arm_report.rules_checked;
    event->verifier_violations += arm_report.violations();
  }
}

Result<std::string> Database::Explain(const std::string& sql,
                                      OptimizerPath path) {
  QueryEvent event;
  TAURUS_ASSIGN_OR_RETURN(auto compiled, Compile(sql, path, &event));
  return RenderExplain(*compiled, event);
}

}  // namespace taurus
