#!/usr/bin/env bash
# End-to-end benchmark driver. Builds the simulator from this checkout's src/
# in Release (bench/e2e is its own CMake project, built under .bench_build/)
# and runs one workload in its own process:
#
#   bash bench/e2e/run.sh --workload NAME --seed N --seconds S --trace 0|1 [--quick 1] [--out FILE]
#
# The last line on stdout is the run's JSON result; build output and progress
# go to stderr. Each run also writes its result, with the run's identity, to
# FILE (default .bench_build/e2e/results/NAME-seedN-traceT.json) for compare.py.
#
#   bash bench/e2e/run.sh --workload all [--seed N] [--seconds S] [--quick 1]
#
# runs every workload untraced and traced, one process each, and collects the
# results into .bench_build/e2e/BENCH_e2e.json with nproc and the commit.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/../.." && pwd)"
cd "$root"
if [[ ! -f src/CMakeLists.txt || ! -f fig8_cache.csv ]]; then
  echo "run.sh: $root is not a full sttgpu checkout (needs src/ and fig8_cache.csv)" >&2
  exit 2
fi

workload="" seed=1 seconds=20 trace=0 quick=0 out=""
while (($#)); do
  if (($# < 2)); then
    echo "run.sh: missing value for $1" >&2
    exit 2
  fi
  case "$1" in
    --workload) workload=$2 ;;
    --seed) seed=$2 ;;
    --seconds) seconds=$2 ;;
    --trace) trace=$2 ;;
    --quick) quick=$2 ;;
    --out) out=$2 ;;
    *) echo "run.sh: unknown argument $1" >&2; exit 2 ;;
  esac
  shift 2
done
if [[ -z $workload ]]; then
  echo "run.sh: --workload is required" >&2
  exit 2
fi

build=.bench_build/e2e
if [[ ! -f $build/CMakeCache.txt ]]; then
  cmake -S bench/e2e -B "$build" -DCMAKE_BUILD_TYPE=Release >&2
fi
cmake --build "$build" -j 2 >&2
mkdir -p "$build/results"

run() {  # workload trace [out]
  "$build/e2e_bench" --workload "$1" --seed "$seed" --seconds "$seconds" --trace "$2" \
    --quick "$quick" --out "${3:-$build/results/$1-seed$seed-trace$2.json}"
}

if [[ $workload != all ]]; then
  run "$workload" "$trace" "$out"
  exit
fi

status=0
files=()
for w in fig8-cold fig8-warm sparse-drain serve-closed; do
  for t in 0 1; do
    f="$build/results/$w-seed$seed-trace$t.json"
    rm -f "$f"
    run "$w" "$t" "$f" || status=1
    files+=("$f")
  done
done
# The commit of the simulator sources measured; -dirty when src/ has edits.
commit=$(git rev-parse HEAD 2>/dev/null || echo unknown)
if [[ -n $(git status --porcelain -- src fig8_cache.csv 2>/dev/null) ]]; then
  commit+="-dirty"
fi
{
  printf '{"bench":"e2e","nproc":%s,"commit":"%s","seed":%s,"seconds":%s,"runs":[\n' \
    "$(nproc)" "$commit" "$seed" "$seconds"
  sep=""
  for f in "${files[@]}"; do
    if [[ -f $f ]]; then
      printf '%s%s' "$sep" "$(cat "$f")"
      sep=$',\n'
    fi
  done
  printf '\n]}\n'
} >"$build/BENCH_e2e.json"
echo "wrote $build/BENCH_e2e.json" >&2
exit $status
