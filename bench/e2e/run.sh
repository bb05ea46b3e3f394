#!/usr/bin/env bash
# End-to-end benchmark: builds bench/e2e (the simulator sources plus the
# ds_e2e driver), primes the victim weight cache once, then measures each
# selected workload in a fresh process.
#
#   bench/e2e/run.sh [--workload NAME]... [--seed N] [--trace 0|1]
#                    [--out-dir DIR] [--write-reference] [--seconds S]
#
# Without --workload it runs all three workloads in turn. --trace 1 (the
# default) adds the traced unit and its per-layer metrics; --trace 0 runs
# the timed units only. How much each run measures is fixed by kRounds in
# ds_e2e.cpp; --seconds is accepted only as the run_seconds that
# BENCHMARK.json records for those rounds. Run it from any directory; everything it
# builds or writes stays under .bench_build/e2e/ at the root of the
# checkout, except the results (--out-dir).
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/../.." && pwd)"
cd "$root"

workloads=()
seed=1
seconds=
trace=1
work=.bench_build/e2e
out_dir="$work/results"
extra=()
while [[ $# -gt 0 ]]; do
  case "$1" in
    --workload) workloads+=("$2"); shift 2 ;;
    --seed) seed="$2"; shift 2 ;;
    --seconds) seconds="$2"; shift 2 ;;
    --trace) trace="$2"; shift 2 ;;
    --out-dir) out_dir="$2"; shift 2 ;;
    --write-reference) extra+=(--write-reference); shift ;;
    *) echo "run.sh: unknown argument '$1'" >&2; exit 2 ;;
  esac
done
run_seconds="$(python3 -c 'import json; print(json.load(open("BENCHMARK.json"))["run_seconds"])')"
if [[ -n "$seconds" && "$seconds" != "$run_seconds" ]]; then
  echo "run.sh: --seconds $seconds is not BENCHMARK.json's run_seconds ($run_seconds)" >&2
  exit 2
fi
if [[ ${#workloads[@]} -eq 0 ]]; then
  workloads=(fig5b-lenet5 strike-scan-lenet5 deepdup-lenet5)
fi

# Measure the product defaults, whatever the caller's environment says.
unset DEEPSTRIKE_CACHE_DIR DS_FORCE_SCALAR

mkdir -p "$work"
jobs="$(nproc)"
threads=$(( jobs < 4 ? jobs : 4 ))
if ! { cmake -S bench/e2e -B "$work/build" -DCMAKE_BUILD_TYPE=Release &&
       cmake --build "$work/build" -j "$jobs"; } >"$work/build.log" 2>&1; then
  tail -n 40 "$work/build.log" >&2
  echo "run.sh: build failed (full log: $work/build.log)" >&2
  exit 1
fi
bin="$work/build/ds_e2e"

# Priming trains LeNet-5 once (about 45 s); it is not part of any metric.
cache="$work/cache"
if [[ ! -f "$cache/primed" ]]; then
  "$bin" --prime --cache-dir "$cache" --threads "$threads"
  touch "$cache/primed"
fi

status=0
for w in "${workloads[@]}"; do
  "$bin" --workload "$w" --seed "$seed" --trace "$trace" \
         --threads "$threads" --cache-dir "$cache" --work-dir "$work/tmp" \
         --out "$out_dir/$w-seed$seed.json" \
         --trace-out "$work/traces/$w-seed$seed.trace.json" \
         --reference-dir bench/e2e/reference --spec BENCHMARK.json \
         "${extra[@]}" || status=1
done
exit "$status"
