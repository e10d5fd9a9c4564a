package parallel

import (
	"sync/atomic"
	"testing"
)

func TestWorkersOverridePrecedence(t *testing.T) {
	prev := SetWorkers(3)
	defer SetWorkers(prev)
	if got := Workers(); got != 3 {
		t.Fatalf("Workers with override = %d, want 3", got)
	}
	SetWorkers(0)
	if got := Workers(); got < 1 {
		t.Fatalf("Workers without override = %d, want >= 1", got)
	}
}

func TestSetWorkersReturnsPrevious(t *testing.T) {
	prev := SetWorkers(5)
	defer SetWorkers(prev)
	if got := SetWorkers(7); got != 5 {
		t.Fatalf("SetWorkers returned previous %d, want 5", got)
	}
}

func TestForEachCoversEveryIndexOnce(t *testing.T) {
	for _, workers := range []int{1, 2, 4, 16} {
		const n = 1000
		var counts [n]atomic.Int32
		ForEach(n, workers, func(i int) { counts[i].Add(1) })
		for i := range counts {
			if c := counts[i].Load(); c != 1 {
				t.Fatalf("workers=%d: index %d ran %d times", workers, i, c)
			}
		}
	}
}

func TestForEachInlineWhenSerial(t *testing.T) {
	// workers <= 1 must run on the calling goroutine in order; plain
	// (non-atomic) state is the witness under -race.
	got := make([]int, 0, 5)
	ForEach(5, 1, func(i int) { got = append(got, i) })
	for i, v := range got {
		if v != i {
			t.Fatalf("serial order broken: %v", got)
		}
	}
	if len(got) != 5 {
		t.Fatalf("ran %d of 5", len(got))
	}
}

func TestForEachZeroAndNegative(t *testing.T) {
	ran := false
	ForEach(0, 4, func(int) { ran = true })
	ForEach(-3, 4, func(int) { ran = true })
	if ran {
		t.Fatal("fn ran for n <= 0")
	}
}

func TestForEachPanicPropagates(t *testing.T) {
	defer func() {
		if r := recover(); r != "boom" {
			t.Fatalf("recovered %v, want boom", r)
		}
	}()
	ForEach(100, 4, func(i int) {
		if i == 37 {
			panic("boom")
		}
	})
}

// TestPoolReuse checks the pool is persistent: many fan-outs reuse the
// same parked workers instead of spawning per call, and the pool never
// exceeds its cap.
func TestPoolReuse(t *testing.T) {
	// Warm the pool.
	ForEach(8, 4, func(int) {})
	started := PoolWorkers()
	if started < 1 {
		t.Fatalf("no pool workers started after a parallel ForEach")
	}
	var n atomic.Int32
	for rep := 0; rep < 200; rep++ {
		ForEach(16, 4, func(int) { n.Add(1) })
	}
	if got := n.Load(); got != 200*16 {
		t.Fatalf("ran %d of %d indices", got, 200*16)
	}
	if grown := PoolWorkers() - started; grown > int(poolCap) {
		t.Fatalf("pool grew past cap: %d workers after reuse loop (cap %d)", PoolWorkers(), poolCap)
	}
	if PoolWorkers() > int(poolCap) {
		t.Fatalf("pool size %d exceeds cap %d", PoolWorkers(), poolCap)
	}
}

// TestPoolSurvivesPanic checks a panic in one batch neither kills pool
// workers nor poisons later batches: full coverage still holds after the
// panic propagated.
func TestPoolSurvivesPanic(t *testing.T) {
	func() {
		defer func() { recover() }()
		ForEach(64, 8, func(i int) {
			if i%3 == 0 {
				panic("kaboom")
			}
		})
	}()
	const n = 500
	var counts [n]atomic.Int32
	ForEach(n, 8, func(i int) { counts[i].Add(1) })
	for i := range counts {
		if c := counts[i].Load(); c != 1 {
			t.Fatalf("after panic: index %d ran %d times", i, c)
		}
	}
}

// TestForEachNested checks nested fan-out completes (the caller always
// participates in its own batch, so completion never depends on pool
// pickup even when every worker is busy).
func TestForEachNested(t *testing.T) {
	var n atomic.Int32
	ForEach(8, 8, func(int) {
		ForEach(8, 8, func(int) { n.Add(1) })
	})
	if got := n.Load(); got != 64 {
		t.Fatalf("nested ForEach ran %d of 64", got)
	}
}
