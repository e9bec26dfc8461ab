#!/usr/bin/env bash
# Repeated runs of the end-to-end benchmark (bench/e2e/README.md).
#
#   bench/e2e/run.sh [--reps N] [--seconds S] [--seed-base B] [--trace] [--out DIR]
#   bench/e2e/run.sh --check
#
# Runs N repetitions (default 5) of both workloads, seeds B+1 .. B+N,
# through run.py, which builds into build-e2e/. Each repetition runs every
# workload once, so host drift lands on all of them alike. Result files,
# and with --trace the spans files, go to DIR (default
# build-e2e/runs-<timestamp>); compare two such directories with
# compare.py. --check runs the smoke run and compare.py --self-test.
set -euo pipefail

here=$(cd "$(dirname "$0")" && pwd)
root=$(cd "$here/../.." && pwd)
reps=5
seconds=45
seed_base=1000
trace=0
out=""
check=0
while [[ $# -gt 0 ]]; do
  case "$1" in
    --reps) reps=$2; shift 2 ;;
    --seconds) seconds=$2; shift 2 ;;
    --seed-base) seed_base=$2; shift 2 ;;
    --trace) trace=1; shift ;;
    --out) out=$2; shift 2 ;;
    --check) check=1; shift ;;
    *) echo "usage: $0 [--reps N] [--seconds S] [--seed-base B] [--trace]" \
            "[--out DIR] | --check" >&2; exit 2 ;;
  esac
done

if [[ $check == 1 ]]; then
  python3 "$here/run.py" --smoke
  python3 "$here/compare.py" --self-test
  exit 0
fi

out=${out:-$root/build-e2e/runs-$(date +%Y%m%d-%H%M%S)}
mkdir -p "$out"
for rep in $(seq 1 "$reps"); do
  seed=$((seed_base + rep))
  for workload in knn1-uniform kinds-mix; do
    echo "rep $rep/$reps: $workload seed $seed" >&2
    python3 "$here/run.py" --workload "$workload" --seed "$seed" \
      --seconds "$seconds" --trace "$trace" --out-dir "$out" \
      > "$out/$workload-s$seed.log"
  done
done
echo "results in $out"
