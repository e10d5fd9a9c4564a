// Package parallel provides the process-wide worker budget and a small
// fan-out helper, backed by a persistent worker pool, shared by the
// experiment runner and the coding kernels.
//
// Workers (ECFAULT_WORKERS, or the -workers flags in cmd/ecbench and
// cmd/ectuner) is the one budget: experiment cells, tuner grid search,
// durability Monte Carlo and stripe chunking in kernel.Program all read
// it. A budget of 1 makes every helper run inline, which keeps
// single-core machines and tests deterministic by default. The
// discrete-event engine (simclock) and the cluster model are
// single-goroutine and do not use it.
package parallel

import (
	"os"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
)

// override holds a programmatic worker-count override; 0 means none.
var override atomic.Int32

// envWorkers caches the ECFAULT_WORKERS parse. Read once: the environment
// is not expected to change mid-process.
var envWorkers = sync.OnceValue(func() int {
	n, err := strconv.Atoi(os.Getenv("ECFAULT_WORKERS"))
	if err != nil || n < 1 {
		return 0
	}
	return n
})

// Workers returns the current worker budget: the programmatic override if
// set, else ECFAULT_WORKERS if set and valid, else runtime.NumCPU.
func Workers() int {
	if n := override.Load(); n > 0 {
		return int(n)
	}
	if n := envWorkers(); n > 0 {
		return n
	}
	return runtime.NumCPU()
}

// SetWorkers overrides the worker budget process-wide. n <= 0 removes the
// override. It returns the previous override (0 if none) so callers can
// restore it.
func SetWorkers(n int) int {
	if n < 0 {
		n = 0
	}
	return int(override.Swap(int32(n)))
}

// Workers under the name bench/ecperf/host.go reads; ROADMAP 1a removes it.
func KernelWorkers() int { return Workers() }

// The worker pool. ForEach used to spawn fresh goroutines per call; for
// the experiment layer (tasks of milliseconds to seconds) that was in the
// noise, but the kernel layer dispatches sub-100µs fan-outs where
// goroutine start/stop and the scheduler churn of parking new stacks cost
// as much as the work. The pool starts workers lazily, caps them at
// poolCap, and parks them on a channel receive between batches; a batch
// handoff is one buffered-channel send to an already-running goroutine.
//
// The caller always participates in its own batch and claims indices
// through the batch's atomic cursor, so completion never depends on a
// pool worker picking the batch up: if every worker is busy (or the
// handoff queue is full), the caller simply drains the batch itself.
// That property makes nested ForEach calls deadlock-free by
// construction — a worker blocked in an inner ForEach holds no resource
// an outer batch needs.

// poolCap bounds the number of persistent pool workers. It exceeds
// NumCPU so that forced worker counts in tests (race-mode identity runs
// on single-core machines) still get real goroutines.
var poolCap = int32(max(16, runtime.NumCPU()))

var (
	// workCh hands batches to parked workers. A full queue is not an
	// error: the dispatcher drops the helper request and the batch is
	// drained by its caller and whichever workers already hold it.
	workCh = make(chan *batch, 256)

	// poolSize counts started workers (never shrinks; workers park
	// between batches rather than exiting).
	poolSize atomic.Int32
)

// batch is one ForEach invocation: a work-stealing cursor over [0, n)
// plus a completion latch. Workers that pick a batch up after it has
// completed see an exhausted cursor and move on.
type batch struct {
	fn       func(int)
	n        int32
	next     atomic.Int32 // next index to claim
	done     atomic.Int32 // indices finished (or abandoned by panic)
	wake     chan struct{}
	panicked atomic.Value
}

// run claims and executes indices until the cursor is exhausted. A panic
// in fn is recorded (first wins) and swallowed here — the caller
// re-raises it after the batch drains; pool workers survive. The
// panicking claimer also drains the remaining cursor, cancelling work
// that has not started yet: the batch must reach its completion latch
// even when no other goroutine ever picks it up.
func (b *batch) run() {
	defer func() {
		if r := recover(); r != nil {
			b.panicked.CompareAndSwap(nil, r)
			b.finish() // the claimed index that panicked
			for {
				i := b.next.Add(1) - 1
				if i >= b.n {
					return
				}
				b.finish()
			}
		}
	}()
	for {
		i := b.next.Add(1) - 1
		if i >= b.n {
			return
		}
		b.fn(int(i))
		b.finish()
	}
}

func (b *batch) finish() {
	if b.done.Add(1) == b.n {
		close(b.wake)
	}
}

// worker is the persistent pool loop: park on the queue, run a batch,
// repeat. batch.run recovers panics, so a worker never dies.
func worker() {
	for b := range workCh {
		b.run()
	}
}

// dispatch enqueues up to helpers pool requests for b, starting new
// workers while the pool is below its cap. Requests beyond the queue's
// capacity are dropped, not blocked on: the batch completes through its
// caller regardless.
func dispatch(b *batch, helpers int) {
	for h := 0; h < helpers; h++ {
		select {
		case workCh <- b:
			if n := poolSize.Load(); n < poolCap && poolSize.CompareAndSwap(n, n+1) {
				go worker()
			}
		default:
			return
		}
	}
}

// ForEach runs fn(i) for i in [0, n) on up to workers goroutines (the
// caller plus workers-1 pool workers) and returns when all calls have
// finished. workers <= 1 (or n <= 1) runs everything inline on the
// calling goroutine, in order. Panics in fn propagate to the caller after
// the batch drains.
func ForEach(n, workers int, fn func(i int)) {
	if n <= 0 {
		return
	}
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	b := &batch{fn: fn, n: int32(n), wake: make(chan struct{})}
	dispatch(b, workers-1)
	b.run()
	<-b.wake
	if r := b.panicked.Load(); r != nil {
		panic(r)
	}
}

// PoolWorkers reports how many persistent pool workers have been started
// (diagnostics and the pool-reuse test).
func PoolWorkers() int { return int(poolSize.Load()) }
