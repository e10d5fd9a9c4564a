// Package parallel provides the process-wide worker budget and a small
// fan-out helper shared by the experiment runner and the coding kernels.
//
// Workers (ECFAULT_WORKERS, or the -workers flags in cmd/ecbench and
// cmd/ectuner) is the one budget: core.Sweep's profile fan-out (experiment
// cells, tuner searches), the plugin comparison's durability Monte Carlo
// and stripe chunking in kernel.Program all read it. A budget of 1 makes every helper run inline, which keeps
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

// ForEach runs fn(i) for i in [0, n) on up to workers goroutines — the
// caller plus workers-1 started for the call — and returns when every
// one of them has returned. workers <= 1 (or n <= 1) runs everything
// inline on the calling goroutine, in order. All of them claim indices
// from one cursor, so the caller drains the call by itself if the others
// are never scheduled and a nested ForEach cannot deadlock. The first
// panic in fn cancels the indices not yet claimed and is re-raised on
// the caller.
func ForEach(n, workers int, fn func(i int)) {
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	var (
		next     atomic.Int64
		wg       sync.WaitGroup
		once     sync.Once
		panicked any
	)
	run := func() {
		defer wg.Done()
		defer func() {
			if r := recover(); r != nil {
				once.Do(func() { panicked = r })
				next.Store(int64(n))
			}
		}()
		for i := next.Add(1) - 1; i < int64(n); i = next.Add(1) - 1 {
			fn(int(i))
		}
	}
	wg.Add(workers)
	for w := 1; w < workers; w++ {
		go run()
	}
	run()
	wg.Wait()
	if panicked != nil {
		panic(panicked)
	}
}
