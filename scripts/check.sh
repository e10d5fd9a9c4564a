#!/usr/bin/env bash
# Repo-wide check: gofmt + vet + build + tier-1 tests (the scale-1 golden of
# cmd/ecbench included: the -compare output against the reproduction
# record, paper_results.txt, byte for byte; the claims evaluator of
# internal/experiments, experiments.Evaluate, whose tests assert every
# EXPERIMENTS.md shape claim and deviation at scale 1, the record's scale;
# and the root surface pins:
# TestKnobSurface for the ECFAULT_* variables, TestConfigSurface for
# cluster.Config's 17 settable leaf fields, TestMethodSurface for the 22
# exported methods of *cluster.Cluster and the 16 of *bluestore.Store, and
# TestExportedMeansCalled for every exported name under internal/: each
# has a caller outside tests in this module or bench/, or a reasoned entry
# in its allowlist; it lists files with go/build's default context, so the
# purego leg below checks the same list) + one
# iteration of every go test benchmark (the codec and GF ones) + race
# audit of the concurrent packages, of the lock-free snapshot forks and of
# the spare stacks a finished run hands its working set on through +
# the engine's ordering and gather fuzz smokes (the slicing one on two
# queues with backlog nodes changing hands) + the placement fuzz
# smoke (Select against its straw2 reference) + the matrix codes'
# round-trip fuzz smoke + the codec's three kernel fuzz smokes (the row
# kernel of every backend against the bit-by-bit reference; ApplyStrided
# against its scalar oracle; Clay's two decode and two repair formulations
# against each other and the erased bytes, over recycled scratch: each
# input builds a new code while Clay's scratch pool is package-level, so
# slabs pass between shapes and sizes dirty) + the store's
# naive-model fuzz smoke (bulk loads, writes and rewrites over bulk-loaded,
# recovered and corrupted chunks, scrubs and the recovered runs ExpectRun
# declares, across forks, and bulk loads refused for a name out of order
# or repeated) + the three
# input-surface fuzz smokes (fault lists, whole profile documents,
# ceph.conf text) + a run of every example, each of which must exit 0 +
# the whole module built and tested under the purego tag + the benchmark
# module's self-test and smoke runs.
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
# core's sweep tests. simclock and iostat are here because a drained run
# hands its backlog slab and its sample buffer to the next run, on any
# goroutine, through a mutex-guarded spare stack
# (simclock.TestDrainedSlabIsHandedOn drains and refills Sims on four
# goroutines; core.TestForkAfterForkMatchesColdRun forks on two).
# erasure/... is here because one code instance serves every caller and
# each Clay call works in a slab of a package-level pool
# (clay.TestConcurrentCallersGetIndependentSlabs runs four goroutines on
# one instance at shard sizes from 4 KiB to 1 MiB; the codecache stress
# test shares instances of every plugin).
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
    ./internal/simclock \
    ./internal/iostat \
    ./internal/tuner

echo "== fuzz smoke (simclock: same-instant FIFO, RunUntil slicing with backlog nodes changing hands; simnet: gather == per-ship; crush: Select == straw2 reference; matrix codes: decode/repair == CanRecover; gf256: every backend's row kernel == bit-by-bit reference, ApplyStrided == scalar oracle; clay: whole-space == per-plane decode, strided == per-plane repair, both == erased bytes over recycled scratch slabs; bluestore: store == naive per-chunk model across forks, rewrites, recovered runs and refused out-of-order loads included; inputs: fault lists, profile documents and ceph.conf text are run or rejected, never a panic) =="
go test ./internal/simclock -run xxx -fuzz FuzzSimclockFIFO -fuzztime 10s
go test ./internal/simclock -run xxx -fuzz FuzzRunUntilSlicing -fuzztime 10s
go test ./internal/simnet -run xxx -fuzz FuzzGatherMatchesPerShip -fuzztime 10s
go test ./internal/crush -run xxx -fuzz FuzzSelectMatchesReference -fuzztime 10s
go test ./internal/erasure/conformance -run xxx -fuzz FuzzMatrixCodeRoundTrip -fuzztime 10s
go test ./internal/gf256 -run xxx -fuzz FuzzMulAddRow -fuzztime 10s
go test ./internal/gf256 -run xxx -fuzz FuzzApplyStrided -fuzztime 10s
go test ./internal/erasure/clay -run xxx -fuzz FuzzClayBatchIdentity -fuzztime 10s
go test ./internal/bluestore -run xxx -fuzz FuzzStoreMatchesNaiveModel -fuzztime 10s
go test ./internal/core -run xxx -fuzz FuzzFaultSpecs -fuzztime 10s
go test ./internal/core -run xxx -fuzz FuzzLoadProfile -fuzztime 10s
go test ./internal/cephconf -run xxx -fuzz FuzzParseApply -fuzztime 10s

# The SIMD backends are amd64-only: the whole module, built and tested
# with them compiled out, stays green and byte-identical on the portable
# word and scalar kernels, as it would be on arm64. It is also the leg
# where Clay's padded copies (odd sub-chunks on the word kernels) are
# carved from the scratch slab.
echo "== go build/test (purego: portable word kernels, no asm) =="
go build -tags purego ./...
go test -tags purego -count=1 ./...

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
