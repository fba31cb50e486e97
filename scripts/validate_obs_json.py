#!/usr/bin/env python3
"""Validates the observability JSON documents (DESIGN.md sections 10/15).

Usage:
  validate_obs_json.py metrics  < MetricsJson() output
  validate_obs_json.py explain  < ExplainAnalyzeJson() output
  validate_obs_json.py digests  < DigestsJson() output
  validate_obs_json.py recorder < FlightRecorderJson() output

Exits nonzero with a message on the first schema violation. The ctest
entries obs_json_{metrics,explain,digests,recorder} pipe
`obs_dump --metrics-only|--explain-json|--digests-json|--recorder-json`
through this; every document must parse as JSON and carry the keys the
dashboards consume.
"""

import json
import sys

HISTOGRAM_KEYS = {"count", "sum_ms", "p50", "p95", "p99", "max_ms"}

# Counters every Database registers up front (BindCounters); the dump must
# contain each of them even on a fresh instance.
REQUIRED_METRICS = [
    "taurus.health.detours_attempted",
    "taurus.health.detours_failed",
    "taurus.health.fallbacks",
    "taurus.health.budget_kills",
    "taurus.health.exec_budget_kills",
    "taurus.health.quarantine_hits",
    "taurus.plan_cache.hits",
    "taurus.plan_cache.misses",
    "taurus.verify.rules_checked",
    "taurus.verify.violations",
    "taurus.query.count",
    "taurus.query.errors",
    "taurus.query.optimize_ms",
    "taurus.query.execute_ms",
    "taurus.exec.parallel_queries",
    "taurus.exec.parallel_pipelines",
    "taurus.exec.batch.pipelines",
    "taurus.exec.batch.batches",
    "taurus.exec.batch.rows",
    "taurus.exec.rows_scanned",
    "taurus.exec.index_lookups",
    "taurus.exec.profile.pipelines",
    "taurus.exec.profile.morsels",
    "taurus.exec.profile.last_busy_ms",
    "taurus.exec.profile.last_idle_ms",
    "taurus.exec.profile.last_workers",
]

# Gauges synced before every dump (SyncGaugeMetrics); present in any
# MetricsJson() document, fresh instance included.
REQUIRED_METRICS += [
    "taurus.obs.digest.records",
    "taurus.obs.digest.entries",
    "taurus.obs.digest.lru_evictions",
    "taurus.obs.digest.epoch_bumps",
    "taurus.obs.digest.capacity",
    "taurus.obs.recorder.records",
    "taurus.obs.recorder.entries",
    "taurus.obs.recorder.pinned",
    "taurus.obs.recorder.capacity",
]

LATENCY_SUMMARY_KEYS = {"count", "sum_ms", "mean_ms", "max_ms"}


def fail(msg):
    print("validate_obs_json: FAIL: %s" % msg, file=sys.stderr)
    sys.exit(1)


def validate_metrics(doc):
    if not isinstance(doc, dict):
        fail("metrics document is not a JSON object")
    for key in REQUIRED_METRICS:
        if key not in doc:
            fail("missing metric %r" % key)
    for key, value in doc.items():
        if not key.startswith("taurus."):
            fail("metric %r outside the taurus.* namespace" % key)
        if isinstance(value, dict):
            if set(value) != HISTOGRAM_KEYS:
                fail("histogram %r has keys %s, want %s"
                     % (key, sorted(value), sorted(HISTOGRAM_KEYS)))
        elif not isinstance(value, (int, float)):
            fail("metric %r is %s, want number or histogram object"
                 % (key, type(value).__name__))


def validate_plan_node(node, path):
    for key in ("est_rows", "actual_rows", "loops", "time_ms"):
        if key not in node:
            fail("%s missing %r" % (path, key))
    if node["loops"] > 0 and node["actual_rows"] < 0:
        fail("%s has negative actual_rows" % path)
    for i, child in enumerate(node.get("children", [])):
        validate_plan_node(child, "%s.children[%d]" % (path, i))
    if node.get("derived") is not None:
        validate_block(node["derived"], path + ".derived")


def validate_block(block, path):
    if block.get("node") != "block":
        fail("%s is not a block node" % path)
    validate_plan_node(block, path)
    if block.get("pipeline") is not None:
        validate_plan_node(block["pipeline"], path + ".pipeline")
    for i, arm in enumerate(block.get("union_arms", [])):
        validate_block(arm, "%s.union_arms[%d]" % (path, i))


def validate_explain(doc):
    if not isinstance(doc, dict) or doc.get("explain_analyze") is not True:
        fail("not an explain_analyze document")
    for key in ("used_orca", "execute_ms", "rows_returned", "plan",
                "q_errors", "max_q_error"):
        if key not in doc:
            fail("missing top-level key %r" % key)
    validate_block(doc["plan"], "plan")
    for i, q in enumerate(doc["q_errors"]):
        for key in ("position", "est_rows", "actual_rows", "q_error"):
            if key not in q:
                fail("q_errors[%d] missing %r" % (i, key))
        if q["q_error"] < 1.0:
            fail("q_errors[%d] below 1.0 (q-error is max(e/a, a/e))" % i)


def validate_latency_summary(summary, path):
    if not isinstance(summary, dict) or set(summary) != LATENCY_SUMMARY_KEYS:
        fail("%s is not a latency summary (want keys %s)"
             % (path, sorted(LATENCY_SUMMARY_KEYS)))
    if summary["count"] < 0 or summary["sum_ms"] < 0:
        fail("%s has negative count/sum" % path)


def validate_digests(doc):
    if not isinstance(doc, dict):
        fail("digests document is not a JSON object")
    for key in ("capacity", "records", "lru_evictions", "epoch_bumps",
                "digests"):
        if key not in doc:
            fail("missing top-level key %r" % key)
    calls_total = 0
    for i, d in enumerate(doc["digests"]):
        path = "digests[%d]" % i
        for key in ("fingerprint", "statement", "calls", "errors",
                    "orca_calls", "mysql_calls", "plan_cache_hits", "shed",
                    "fallbacks", "quarantine_hits", "verifier_violations",
                    "rows_returned", "latency", "orca_latency",
                    "mysql_latency", "plan_epoch", "epoch_cause",
                    "epoch_latency", "prev_epoch_latency"):
            if key not in d:
                fail("%s missing %r" % (path, key))
        if not str(d["fingerprint"]).startswith("0x"):
            fail("%s fingerprint not hex-rendered" % path)
        if set(d["latency"]) != HISTOGRAM_KEYS:
            fail("%s latency has keys %s, want %s"
                 % (path, sorted(d["latency"]), sorted(HISTOGRAM_KEYS)))
        for key in ("orca_latency", "mysql_latency", "epoch_latency",
                    "prev_epoch_latency"):
            validate_latency_summary(d[key], "%s.%s" % (path, key))
        if d["plan_epoch"] < 1:
            fail("%s plan_epoch below 1" % path)
        if d["orca_latency"]["count"] + d["mysql_latency"]["count"] \
                != d["calls"]:
            fail("%s per-path latency counts do not sum to calls" % path)
        calls_total += d["calls"]
    if doc["lru_evictions"] == 0 and calls_total != doc["records"]:
        fail("digest calls (%d) do not reconcile with records (%d)"
             % (calls_total, doc["records"]))


def validate_recorder(doc):
    if not isinstance(doc, dict):
        fail("recorder document is not a JSON object")
    for key in ("capacity", "records", "pinned", "events"):
        if key not in doc:
            fail("missing top-level key %r" % key)
    if len(doc["events"]) > doc["capacity"]:
        fail("more events (%d) than ring capacity (%d)"
             % (len(doc["events"]), doc["capacity"]))
    prev_seq = 0
    for i, e in enumerate(doc["events"]):
        path = "events[%d]" % i
        for key in ("seq", "session", "fingerprint", "status", "error",
                    "admission", "wait_ms", "used_orca", "fell_back", "shed",
                    "quarantine_hit", "plan_cache_hit", "optimize_ms",
                    "execute_ms", "total_ms", "rows", "workers", "batches",
                    "morsels", "busy_ms", "pinned_trace"):
            if key not in e:
                fail("%s missing %r" % (path, key))
        if e["seq"] <= prev_seq:
            fail("%s seq %d not increasing (ring must dump oldest-first)"
                 % (path, e["seq"]))
        prev_seq = e["seq"]
        if e["admission"] not in ("direct", "queued", "shed", "rejected"):
            fail("%s unknown admission outcome %r" % (path, e["admission"]))


def main():
    modes = {
        "metrics": validate_metrics,
        "explain": validate_explain,
        "digests": validate_digests,
        "recorder": validate_recorder,
    }
    if len(sys.argv) != 2 or sys.argv[1] not in modes:
        fail("usage: validate_obs_json.py %s < doc.json"
             % "|".join(sorted(modes)))
    try:
        doc = json.load(sys.stdin)
    except ValueError as e:
        fail("not valid JSON: %s" % e)
    modes[sys.argv[1]](doc)
    print("validate_obs_json: %s document OK" % sys.argv[1])


if __name__ == "__main__":
    main()
