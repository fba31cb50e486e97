#!/usr/bin/env bash
# Tier-1 verification: configure, build, and run the full test suite.
# Exits nonzero on the first failing step.
#
# Usage: scripts/check.sh [build-dir]
#   Default mode runs two legs:
#     1. RelWithDebInfo with -DTAURUS_WERROR=ON (warnings are errors), the
#        configuration the plan verifiers gate behind the verify_plans knob.
#     2. Debug in build-debug, where the plan verifiers are always on
#        (kVerifyPlansDefault), assertions are live, and the lock-rank
#        registry is armed (kLockRankChecksDefault): every mutex
#        acquisition in the suite is order-checked against the DESIGN.md
#        section 12 rank table, aborting on the first violation.
#   TAURUS_SANITIZE=address|undefined|address,undefined|thread scripts/check.sh
#     opt-in sanitizer mode: builds with -fsanitize=<value> in its own
#     build dir (build-asan / build-ubsan / build-asan-ubsan / build-tsan /
#     build-san) and runs the suite under the sanitizer. The thread leg
#     exercises the morsel-driven parallel executor's concurrency — the
#     suite now includes batch_exec_test, so the vectorized batch pipelines
#     running inside worker clones get the same race sweep — and the
#     multi-session server stress test (server_stress_test: admission
#     queueing, overload shedding, and the
#     plan-cache/quarantine hot paths under {4,16,64} concurrent
#     sessions; its ctest TIMEOUT fails a deadlock fast instead of hanging
#     the leg). The combined address,undefined leg is the one to run over
#     the batch executor's vector kernels (out-of-bounds selection indices
#     and UB in the columnar fast paths in one pass).
#   TAURUS_LINT=1 scripts/check.sh
#     lint mode: runs clang-tidy (config in .clang-tidy) over src/ using
#     the compile database from the default build dir instead of the test
#     legs. Skips with a message and exit 0 when clang-tidy is not
#     installed, so the gate is a no-op on machines without it.
#   TAURUS_THREAD_SAFETY=1 scripts/check.sh
#     thread-safety mode: builds all of src/ with clang++ under
#     -Wthread-safety -Werror=thread-safety (the annotations in
#     src/common/thread_annotations.h become compile errors), then
#     compiles scripts/tsa_mutation_check.cc — a deliberately mis-locked
#     access — EXPECTING failure, so a silently toothless gate is itself a
#     failure. Skips with a message and exit 0 when clang++ is not
#     installed (the annotations are no-ops off Clang).
set -euo pipefail

repo_root="$(cd "$(dirname "$0")/.." && pwd)"

if [[ -n "${TAURUS_LINT:-}" && "${TAURUS_LINT}" != "0" ]]; then
  if ! command -v clang-tidy >/dev/null 2>&1; then
    echo "check.sh: clang-tidy not found; skipping lint leg." >&2
    exit 0
  fi
  build_dir="${1:-$repo_root/build}"
  # Configure (not build) is enough to emit compile_commands.json.
  cmake -B "$build_dir" -S "$repo_root" >/dev/null
  mapfile -t sources < <(find "$repo_root/src" -name '*.cc' | sort)
  echo "check.sh: clang-tidy over ${#sources[@]} files in src/"
  clang-tidy -p "$build_dir" --quiet "${sources[@]}"
  # One-line summary of what actually ran, so CI logs show the coverage.
  num_checks=$(cd "$repo_root" && clang-tidy --list-checks 2>/dev/null     | grep -c '^    ' || true)
  echo "check.sh: lint leg passed — ${num_checks} clang-tidy checks over"        "${#sources[@]} files (config .clang-tidy + src/common/.clang-tidy)."
  exit 0
fi

if [[ -n "${TAURUS_THREAD_SAFETY:-}" && "${TAURUS_THREAD_SAFETY}" != "0" ]]; then
  if ! command -v clang++ >/dev/null 2>&1; then
    echo "check.sh: clang++ not found; skipping thread-safety leg"          "(annotations are no-ops off Clang)." >&2
    exit 0
  fi
  build_dir="${1:-$repo_root/build-thread-safety}"
  echo "check.sh: thread-safety leg — clang++ with -Werror=thread-safety"
  cmake -B "$build_dir" -S "$repo_root" -DCMAKE_CXX_COMPILER=clang++     -DTAURUS_THREAD_SAFETY=ON
  cmake --build "$build_dir" -j "$(nproc)"
  # Mutation check: a mis-locked access must (a) be accepted without the
  # analysis (so any failure below is attributable to the annotations) and
  # (b) be rejected with a thread-safety diagnostic under the gate's flags.
  probe="$repo_root/scripts/tsa_mutation_check.cc"
  clang++ -std=c++20 -I "$repo_root/src" -fsyntax-only "$probe"
  if out=$(clang++ -std=c++20 -I "$repo_root/src" -Wthread-safety              -Werror=thread-safety -fsyntax-only "$probe" 2>&1); then
    echo "check.sh: FAIL — tsa_mutation_check.cc compiled cleanly; the"          "thread-safety gate is not checking anything." >&2
    exit 1
  fi
  if ! grep -q "thread-safety" <<<"$out"; then
    echo "check.sh: FAIL — tsa_mutation_check.cc failed for a reason other"          "than thread safety:" >&2
    echo "$out" >&2
    exit 1
  fi
  echo "check.sh: thread-safety leg passed (src/ clean, mutation rejected)."
  exit 0
fi

cmake_flags=()
if [[ -n "${TAURUS_SANITIZE:-}" ]]; then
  case "$TAURUS_SANITIZE" in
    address) default_dir="$repo_root/build-asan" ;;
    undefined) default_dir="$repo_root/build-ubsan" ;;
    address,undefined) default_dir="$repo_root/build-asan-ubsan" ;;
    thread) default_dir="$repo_root/build-tsan" ;;
    *) default_dir="$repo_root/build-san" ;;
  esac
  build_dir="${1:-$default_dir}"
  cmake_flags+=("-DTAURUS_SANITIZE=$TAURUS_SANITIZE")
  # Halt on the first UBSan report instead of printing and continuing.
  export UBSAN_OPTIONS="${UBSAN_OPTIONS:-halt_on_error=1:print_stacktrace=1}"
  # TSan exits nonzero on any report; second_deadlock_stack aids triage.
  export TSAN_OPTIONS="${TSAN_OPTIONS:-halt_on_error=1:second_deadlock_stack=1}"

  cmake -B "$build_dir" -S "$repo_root" "${cmake_flags[@]}"
  cmake --build "$build_dir" -j "$(nproc)"
  ctest --test-dir "$build_dir" --output-on-failure -j "$(nproc)"
  exit 0
fi

build_dir="${1:-$repo_root/build}"

echo "check.sh: leg 1/2 — RelWithDebInfo, warnings as errors"
cmake -B "$build_dir" -S "$repo_root" -DTAURUS_WERROR=ON
cmake --build "$build_dir" -j "$(nproc)"
ctest --test-dir "$build_dir" --output-on-failure -j "$(nproc)"
# ctest includes the observability JSON checks (obs_json_*: obs_dump piped
# through scripts/validate_obs_json.py).

# Bench legs below run from the repo root so the BENCH_*.json artifacts
# land where the CI trajectory collector looks for them (not inside the
# throwaway build dir).

# Server-core benches: plan-cache hit-path and raw Lookup throughput at
# 1/4/16 threads and the admission controller under overload (sheds +
# rejections).
echo "check.sh: server benches (BENCH_plan_cache_mt.json, BENCH_admission.json)"
(cd "$repo_root" && "$build_dir/bench/micro_plan_cache_mt" --json)
(cd "$repo_root" && "$build_dir/bench/micro_admission" --json)

# Workload-introspection overhead: digest fold + flight-recorder append
# on the fastest hit-path query (acceptance bar: overhead_pct <= 2).
echo "check.sh: digest overhead bench (BENCH_digest.json)"
(cd "$repo_root" && "$build_dir/bench/micro_digest" --json)

# Batch-vs-Volcano executor leg: same queries through both executors with
# result equality enforced; writes BENCH_exec_batch.json for CI trending
# of the vectorization speedup. The google-benchmark micro legs are
# filtered down to the sequential scan, the point lookups, the index
# nested-loop lookups (50 and 4,000 probes per statement), the hash join
# and the hash aggregation (the full set is for hand-tuning).
echo "check.sh: batch executor bench (BENCH_exec_batch.json)"
(cd "$repo_root" && "$build_dir/bench/micro_executor" --json \
  --benchmark_filter='BM_SequentialScan|BM_PointLookup|BM_IndexLookupJoin|BM_HashJoin|BM_HashAggregation')

# Compile-pipeline leg: per-stage compile times plus the Orca join search
# on chain/star/cycle graphs of 4-12 tables (ms/iter and
# partitions_evaluated per shape); writes BENCH_optimizer.json.
echo "check.sh: optimizer bench (BENCH_optimizer.json)"
(cd "$repo_root" && "$build_dir/bench/micro_optimizer" --json)

# Merge the per-bench artifacts into one BENCH_summary.json keyed by bench
# name, so trend dashboards consume a single document per run.
if command -v python3 >/dev/null 2>&1; then
  (cd "$repo_root" && python3 scripts/merge_bench_json.py)
fi

echo "check.sh: leg 2/2 — Debug, plan verifiers + lock-rank registry armed"
debug_dir="$repo_root/build-debug"
cmake -B "$debug_dir" -S "$repo_root" -DCMAKE_BUILD_TYPE=Debug -DTAURUS_WERROR=ON
cmake --build "$debug_dir" -j "$(nproc)"
ctest --test-dir "$debug_dir" --output-on-failure -j "$(nproc)"
