#!/usr/bin/env bash
# Run the whole benchmark: every workload untraced over ten seeds, then one
# traced pass per workload. Records land in bench/out/<set>/results.jsonl,
# the driver's reports and any error in bench/out/<set>/log.
#
#   bench/run.sh           one set  (bench/out/set1)
#   bench/run.sh -sets 2   two sets of the same code, then
#                          `ecperf -compare set1 set2`: the stability
#                          check — every pair must read "ok"
#
# To compare a parent commit with a change, run one set in each checkout
# and hand the two results.jsonl files to `bench/ecperf.sh -compare`.
# Seeds and run length are fixed here, the same on both sides of any
# comparison; -compare refuses records that differ in them.
set -euo pipefail
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
sets=1
if [ "${1:-}" = -sets ] && [ $# -eq 2 ]; then
  sets=$2
elif [ $# -gt 0 ]; then
  echo "usage: run.sh [-sets N]" >&2
  exit 2
fi
seconds=$(sed -n 's/.*"run_seconds": *\([0-9]*\).*/\1/p' "$here/../BENCHMARK.json")
workloads="campaign single_run fork_sweep codec_stripe"

# one <set> <workload> <seed> <trace>: a single run, its result line on stdout.
one() {
  echo "== set $1  $2  seed $3  trace $4" | tee -a "$here/out/set$1/log" >&2
  if ! bash "$here/ecperf.sh" -workload "$2" -seed "$3" -seconds "$seconds" -trace "$4" \
      -out "bench/out/set$1" 2>>"$here/out/set$1/log" | tail -n 1; then
    tail -n 20 "$here/out/set$1/log" >&2
    exit 1
  fi
}

for set in $(seq 1 "$sets"); do
  rm -rf "$here/out/set$set"
  mkdir -p "$here/out/set$set"
  for seed in $(seq 1 10); do
    for w in $workloads; do
      one "$set" "$w" "$seed" 0
    done
  done
  for w in $workloads; do
    one "$set" "$w" 1 1
  done
done
if [ "$sets" -ge 2 ]; then
  bash "$here/ecperf.sh" -compare bench/out/set1/results.jsonl bench/out/set2/results.jsonl
fi
