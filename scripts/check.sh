#!/usr/bin/env bash
# Repo-wide check: gofmt + vet + build + tier-1 tests (the scale-1 golden of
# cmd/ecbench included: the -compare output against the reproduction
# record, paper_results.txt, byte for byte; and the root surface pins:
# TestKnobSurface for the ECFAULT_* variables, TestConfigSurface for
# cluster.Config's 17 settable leaf fields) + one iteration of every go
# test benchmark (the codec and GF ones) + race audit of the concurrent
# packages and of the lock-free snapshot forks + the engine's ordering and
# gather fuzz smokes
# (the slicing one on two queues that hand outgrown wait rings to each
# other) + the placement fuzz smoke (Select against its straw2 reference)
# + the matrix codes' round-trip fuzz smoke + the codec's two strided fuzz
# smokes (ApplyStrided against its scalar oracle; Clay's batched and
# per-plane formulations against each other and the erased bytes) + the
# store's naive-model fuzz smoke (overlay Reserve included) + the three
# input-surface fuzz smokes (fault lists, whole profile documents,
# ceph.conf text) + a run of every
# example, each of which must exit 0 + the benchmark module's self-test
# and smoke runs.
# Run from the repo root: ./scripts/check.sh
set -euo pipefail
cd "$(dirname "$0")/.."

# gofmt -l walks the whole tree, the bench module included, and lists
# every unformatted file; one is a failure.
echo "== gofmt =="
unformatted=$(gofmt -l .)
test -z "$unformatted" || { echo "gofmt -l: $unformatted" >&2; exit 1; }

echo "== go vet =="
go vet ./...

echo "== go build =="
go build ./...

# An example that is only compiled can silently lie. Each one runs in well
# under a second and exits non-zero when a step or one of its own checks
# fails (a bit-exact decode, a verified payload).
echo "== examples (each must exit 0) =="
for e in examples/*/; do
    go run "./$e" >/dev/null
done

# No -short here: cmd/ecbench's TestScale1Golden compares the full-scale
# evaluation with paper_results.txt and hashes it (about 2 s), and -short
# would skip it.
echo "== go test (tier 1, with the scale-1 golden) =="
go test ./...

# One iteration of each benchmark, so one that panics or fails shows up.
# They are the codec and GF benchmarks the calibration table in
# EXPERIMENTS.md cites; wall clock is measured by bench/ecperf.sh.
echo "== benchmark smoke (one iteration each) =="
go test -run xxx -bench . -benchtime 1x ./...

# blockdev, bluestore and cluster are here because concurrent
# forks of one snapshot read a frozen parent that has no lock
# (cluster.TestConcurrentForksLeaveSnapshotUnchanged): a fork that wrote
# into it would be a race. core.Sweep's two singleflight caches, the
# snapshot LRU and the result LRU, fill concurrently in
# experiments.TestParallelCellsMatchSerial (the whole campaign at 4
# workers, Fig. 3's main run and its 1.0x point one profile) and in
# core's sweep tests.
echo "== go test -race (concurrent packages + kernels) =="
go test -race -count=1 \
    ./internal/gf256 \
    ./internal/erasure/... \
    ./internal/blockdev \
    ./internal/bluestore \
    ./internal/cluster \
    ./internal/experiments \
    ./internal/core \
    ./internal/parallel \
    ./internal/tuner

echo "== fuzz smoke (simclock: same-instant FIFO, RunUntil slicing with wait rings changing queues; simnet: gather == per-ship; crush: Select == straw2 reference; matrix codes: decode/repair == CanRecover; gf256: ApplyStrided == scalar oracle; clay: batched == per-plane == erased bytes; bluestore: store == naive per-chunk model across forks, Reserve included; inputs: fault lists, profile documents and ceph.conf text are run or rejected, never a panic) =="
go test ./internal/simclock -run xxx -fuzz FuzzSimclockFIFO -fuzztime 10s
go test ./internal/simclock -run xxx -fuzz FuzzRunUntilSlicing -fuzztime 10s
go test ./internal/simnet -run xxx -fuzz FuzzGatherMatchesPerShip -fuzztime 10s
go test ./internal/crush -run xxx -fuzz FuzzSelectMatchesReference -fuzztime 10s
go test ./internal/erasure/conformance -run xxx -fuzz FuzzMatrixCodeRoundTrip -fuzztime 10s
go test ./internal/gf256 -run xxx -fuzz FuzzApplyStrided -fuzztime 10s
go test ./internal/erasure/conformance -run xxx -fuzz FuzzClayBatchIdentity -fuzztime 10s
go test ./internal/bluestore -run xxx -fuzz FuzzStoreMatchesNaiveModel -fuzztime 10s
go test ./internal/core -run xxx -fuzz FuzzFaultSpecs -fuzztime 10s
go test ./internal/core -run xxx -fuzz FuzzLoadProfile -fuzztime 10s
go test ./internal/cephconf -run xxx -fuzz FuzzParseApply -fuzztime 10s

echo "== go build/test (purego: portable word kernels, no asm) =="
go build -tags purego ./...
go test -tags purego -count=1 ./internal/gf256 ./internal/erasure/...

# bench/ is a module of its own (repro/bench), so the root commands above
# neither build nor test it; it calls exported cluster/core/workload
# functions, which an internal refactor can break unseen. This step vets
# it, runs its self-test (every workload, traced and untraced, at -smoke
# size, plus the layer probe rebuilt from exported cluster/core/workload
# calls) and then drives the benchmark's one command, bench/ecperf.sh, for
# the two workloads that lean on populate and on forks. It checks that the
# benchmark builds and its correctness gates hold, not speed: speed is
# compared between commits with bench/run.sh and `ecperf -compare`. CI runs
# this in its `check` job; a separate `bench` job would repeat it line for line.
echo "== bench module: vet + self-test + ecperf smoke runs =="
(cd bench && go vet ./... && go test ./...)
smoke=$(mktemp -d)
trap 'rm -rf "$smoke"' EXIT
for w in single_run fork_sweep; do
    bash bench/ecperf.sh -smoke -workload "$w" -seed 1 -trace 1 -out "$smoke" >/dev/null
done

echo "OK"
