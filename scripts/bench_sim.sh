#!/usr/bin/env bash
# Before/after wall-clock comparison of the experiment campaign
# (BenchmarkSimEngine, the single-worker Figure-2 suite).
#
# Usage:
#   scripts/bench_sim.sh [-b bench-regex] [-n benchtime] [-g]
#
# Default mode compares the snapshot layer on the current tree:
#   before = ECFAULT_NOSNAPSHOT=1 (every cell builds its cluster fresh)
#   after  = snapshot cache on (one populate per layout key, CoW forks)
#
# -g switches to the git-stash procedure used for cross-commit records
# (BENCH_SIM.json): uncommitted changes are stashed and HEAD is benched
# as "before", then the stash is restored and the working tree benched
# as "after". The working tree must be dirty, otherwise there is
# nothing to compare.
set -euo pipefail
cd "$(dirname "$0")/.."

BENCH='BenchmarkSimEngine/fig2suite/scale=50$'
BENCHTIME=3x
STASH_MODE=0
while getopts "b:n:g" opt; do
  case "$opt" in
    b) BENCH="$OPTARG" ;;
    n) BENCHTIME="$OPTARG" ;;
    g) STASH_MODE=1 ;;
    *) exit 2 ;;
  esac
done

bench() { # bench <regex> <env...> -- runs the benchmark, prints ns/op
  local regex=$1
  shift
  env "$@" go test ./internal/experiments -run xxx -bench "$regex" \
    -benchtime "$BENCHTIME" -count=1 2>/dev/null |
    awk '/^Benchmark/ { print $3; exit }'
}

if [ "$STASH_MODE" = 1 ]; then
  if git diff --quiet && git diff --cached --quiet; then
    echo "bench_sim: working tree is clean; -g needs uncommitted changes to compare" >&2
    exit 1
  fi
  echo "== before: $(git rev-parse --short HEAD) (uncommitted changes stashed) =="
  git stash push --quiet --include-untracked -m bench_sim
  trap 'git stash pop --quiet' EXIT
  BEFORE=$(bench "$BENCH")
  git stash pop --quiet
  trap - EXIT
  echo "== after: working tree =="
  AFTER=$(bench "$BENCH")
else
  echo "== before: ECFAULT_NOSNAPSHOT=1 (fresh-build per cell) =="
  BEFORE=$(bench "$BENCH" ECFAULT_NOSNAPSHOT=1)
  echo "== after: snapshot layer on =="
  AFTER=$(bench "$BENCH")
fi

echo "before: ${BEFORE} ns/op"
echo "after:  ${AFTER} ns/op"
awk -v b="$BEFORE" -v a="$AFTER" \
  'BEGIN { printf "speedup: %.2fx\n", b / a }'

# Fork-setup A/B (default mode only): the same working tree benched with
# the shared code registry off (every fork rebuilds its erasure code and
# recompiles plans) versus on. One fork iteration is ~2 ms, so this
# section pins its own iteration count instead of inheriting -n (sized
# for the heavyweight campaign benchmark).
if [ "$STASH_MODE" = 0 ]; then
  BENCHTIME=300x
  for plugin in jerasure_reed_sol_van clay; do
    regex="BenchmarkSnapshotFork/plugin=${plugin}\$"
    echo "== fork setup (${plugin}): before ECFAULT_NOCODECACHE=1, after registry on =="
    FB=$(bench "$regex" ECFAULT_NOCODECACHE=1)
    FA=$(bench "$regex")
    echo "fork before (${plugin}): ${FB} ns/op"
    echo "fork after  (${plugin}): ${FA} ns/op"
    awk -v b="$FB" -v a="$FA" \
      'BEGIN { printf "fork speedup: %.2fx\n", b / a }'
  done
fi
