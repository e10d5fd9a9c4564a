package parallel

import (
	"errors"
	"sync/atomic"
	"testing"
	"time"
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

// TestForEachUsableAfterPanic checks a panic in one call does not poison
// later ones: full coverage still holds after the panic propagated.
func TestForEachUsableAfterPanic(t *testing.T) {
	func() {
		defer func() { recover() }()
		ForEach(64, 8, func(i int) {
			if i%3 == 0 {
				panic("kaboom")
			}
		})
	}()
	checkCoverage(t, 8)
}

// TestForEachPanicTypesDiffer: two indices of one call panic with values
// of different dynamic types. The caller must recover the first, and the
// second must not escape on a goroutine the caller cannot recover from
// (an atomic.Value holding the first would itself panic on the second).
func TestForEachPanicTypesDiffer(t *testing.T) {
	func() {
		defer func() {
			if r := recover(); r != "a string" {
				t.Errorf("recovered %v, want the first panic", r)
			}
		}()
		ForEach(2, 2, func(i int) {
			if i == 0 {
				time.Sleep(5 * time.Millisecond)
				panic("a string")
			}
			time.Sleep(20 * time.Millisecond)
			panic(errors.New("an error"))
		})
	}()
	checkCoverage(t, 2)
}

func checkCoverage(t *testing.T, workers int) {
	t.Helper()
	const n = 500
	var counts [n]atomic.Int32
	ForEach(n, workers, func(i int) { counts[i].Add(1) })
	for i := range counts {
		if c := counts[i].Load(); c != 1 {
			t.Fatalf("after panic: index %d ran %d times", i, c)
		}
	}
}

// TestForEachNested checks nested fan-out completes (the caller always
// participates in its own call, so completion never depends on another
// goroutine being scheduled).
func TestForEachNested(t *testing.T) {
	var n atomic.Int32
	ForEach(8, 8, func(int) {
		ForEach(8, 8, func(int) { n.Add(1) })
	})
	if got := n.Load(); got != 64 {
		t.Fatalf("nested ForEach ran %d of 64", got)
	}
}
