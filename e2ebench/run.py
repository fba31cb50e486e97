#!/usr/bin/env python3
"""Builds and runs the end-to-end benchmark.

Run from the repository root:

    python3 e2ebench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Workloads: tpch_analytic, tpcds_adhoc, point_sessions (see NOTES.md).

The engine and the benchmark are compiled from source with CMake into
$CARGO_TARGET_DIR, or .bench_build/ at the repository root when it is unset;
later runs only rebuild what changed. The benchmark's self-test runs before
every measurement. All build and self-test output goes to stderr; the last
line of stdout is the benchmark's JSON result. Exits non-zero, printing no
result, when the engine sources are missing or any step fails.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def build_dir():
    build = Path(os.environ.get("CARGO_TARGET_DIR", ""))
    if not str(build) or str(build) == ".":
        return ROOT / ".bench_build"
    return build if build.is_absolute() else Path.cwd() / build


def run(cmd, **kwargs):
    """Runs `cmd` with stdout sent to stderr; raises on a non-zero exit."""
    subprocess.run(cmd, stdout=sys.stderr, check=True, **kwargs)


def main():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        print(f"e2ebench: engine sources not found in {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    build = build_dir()
    jobs = str(min(4, os.cpu_count() or 1))
    # Compiler temporaries stay in the build tree too.
    tmp = build / "tmp"
    env = dict(os.environ, TMPDIR=str(tmp))
    try:
        tmp.mkdir(parents=True, exist_ok=True)
        if not (build / "CMakeCache.txt").is_file():
            run(["cmake", "-S", str(HERE), "-B", str(build),
                 "-DCMAKE_BUILD_TYPE=RelWithDebInfo"], env=env)
        run(["cmake", "--build", str(build), "-j", jobs,
             "--target", "e2ebench", "e2ebench_selftest"], env=env)
        run([str(build / "e2ebench_selftest")])
    except (OSError, subprocess.CalledProcessError) as err:
        print(f"e2ebench: build or self-test failed: {err}", file=sys.stderr)
        return 1

    proc = subprocess.run([str(build / "e2ebench"), *sys.argv[1:]],
                          stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.rstrip("\n").splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stdout)
        print(f"e2ebench: benchmark exited with {proc.returncode}",
              file=sys.stderr)
        return proc.returncode or 1
    try:
        result = json.loads(lines[-1])
        if set(result) != RESULT_KEYS:
            raise ValueError(f"result keys {sorted(result)}")
    except ValueError as err:
        sys.stderr.write(proc.stdout)
        print(f"e2ebench: malformed result line: {err}", file=sys.stderr)
        return 1
    sys.stdout.write(proc.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
