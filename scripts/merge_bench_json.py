#!/usr/bin/env python3
"""Merges the per-bench BENCH_*.json artifacts into one BENCH_summary.json.

Usage (from the repo root, as scripts/check.sh does):
  merge_bench_json.py [--dir DIR] [--out FILE]

Each bench leg of check.sh writes its own BENCH_<name>.json next to the
repo root. This collects every such file into a single document keyed by
the bench name (the BENCH_/.json-stripped stem), so trend dashboards track
one artifact per run:

  {"benches": {"digest": {...}, "plan_cache_mt": {...}, ...},
   "count": N}

Unparseable files fail the merge (a bench that emits broken JSON should
fail CI, not vanish from the trend). BENCH_summary.json itself is skipped,
so reruns are idempotent.
"""

import argparse
import glob
import json
import os
import sys


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--dir", default=".", help="directory holding BENCH_*.json")
    parser.add_argument("--out", default=None,
                        help="output path (default <dir>/BENCH_summary.json)")
    args = parser.parse_args()

    out_path = args.out or os.path.join(args.dir, "BENCH_summary.json")
    benches = {}
    for path in sorted(glob.glob(os.path.join(args.dir, "BENCH_*.json"))):
        if os.path.abspath(path) == os.path.abspath(out_path):
            continue
        name = os.path.basename(path)[len("BENCH_"):-len(".json")]
        try:
            with open(path) as f:
                benches[name] = json.load(f)
        except ValueError as e:
            print("merge_bench_json: FAIL: %s is not valid JSON: %s"
                  % (path, e), file=sys.stderr)
            sys.exit(1)

    if not benches:
        print("merge_bench_json: FAIL: no BENCH_*.json found in %r"
              % args.dir, file=sys.stderr)
        sys.exit(1)

    doc = {"benches": benches, "count": len(benches)}
    with open(out_path, "w") as f:
        json.dump(doc, f, indent=2, sort_keys=True)
        f.write("\n")
    print("merge_bench_json: wrote %s (%d benches: %s)"
          % (out_path, len(benches), ", ".join(sorted(benches))))


if __name__ == "__main__":
    main()
