#!/usr/bin/env bash
# The benchmark's one command (BENCHMARK.json "command"): build bench/ecperf
# from source and run it from the repository root with the given arguments.
#
#   bash bench/ecperf.sh --workload campaign --seed 1 --seconds 12 --trace 0
#
# Everything the build writes — the binary and Go's build cache — stays in
# .bench_build/ inside the checkout; results and span files go to bench/out/.
# A checkout that lacks the program's sources fails here, before any run.
set -euo pipefail
root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/go-cache" GOMODCACHE="$build/go-mod" GOTOOLCHAIN=local GOFLAGS=-buildvcs=false
commit=$(git -C "$root" rev-parse --short HEAD 2>/dev/null || echo unknown)
(cd "$root/bench" && go build -ldflags "-X main.commit=$commit" -o "$build/ecperf" ./ecperf)
cd "$root"
exec "$build/ecperf" "$@"
