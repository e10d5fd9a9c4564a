package main

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"time"
)

// span is one timed call the driver made into the program. Spans are
// recorded from outside: around exported functions only, on the driver's
// single client goroutine, so open spans form a stack.
type span struct {
	ID         int    `json:"id"`     // 1-based; 0 means "no span"
	Parent     int    `json:"parent"` // enclosing span, 0 for a root
	Op         int    `json:"op"`     // operation the span belongs to
	Name       string `json:"name"`
	StartNS    int64  `json:"start_ns"` // since the tracer was created
	EndNS      int64  `json:"end_ns"`
	AllocBytes int64  `json:"alloc_bytes,omitempty"` // heap bytes allocated inside, when measured
}

func (s span) ms() float64 { return float64(s.EndNS-s.StartNS) / 1e6 }

// tracer keeps spans in memory; they are written out once, at exit. A nil
// or switched-off tracer runs the wrapped function and records nothing,
// which is how the untraced pass executes the same code.
type tracer struct {
	on    bool
	t0    time.Time
	spans []span
	open  []int // stack of open span IDs
	op    int
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// nextOp starts a new operation; spans recorded until the next call carry
// its identifier.
func (t *tracer) nextOp() {
	if t != nil {
		t.op++
	}
}

// do runs fn inside a span.
func (t *tracer) do(name string, fn func()) {
	t.record(name, false, fn)
}

// doAlloc runs fn inside a span that also records the bytes allocated
// while it ran. It stops the world twice, so only the layer probe uses it.
func (t *tracer) doAlloc(name string, fn func()) {
	t.record(name, true, fn)
}

func (t *tracer) record(name string, alloc bool, fn func()) {
	if t == nil || !t.on {
		fn()
		return
	}
	id := len(t.spans) + 1
	parent := 0
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	t.spans = append(t.spans, span{ID: id, Parent: parent, Op: t.op, Name: name})
	t.open = append(t.open, id)
	var before uint64
	if alloc {
		before = totalAlloc()
	}
	start := time.Since(t.t0)
	fn()
	end := time.Since(t.t0)
	s := &t.spans[id-1]
	s.StartNS, s.EndNS = int64(start), int64(end)
	if alloc {
		s.AllocBytes = int64(totalAlloc() - before)
	}
	t.open = t.open[:len(t.open)-1]
}

// under returns the spans called name whose outermost ancestor is called
// root, in recording order.
func (t *tracer) under(root, name string) []span {
	var out []span
	for _, s := range t.spans {
		if s.Name != name {
			continue
		}
		top := s
		for top.Parent != 0 {
			top = t.spans[top.Parent-1]
		}
		if top.Name == root {
			out = append(out, s)
		}
	}
	return out
}

// validateSpans checks the structural contract of a span list: IDs are
// 1..n in order, every span ends no earlier than it starts, every parent
// exists and precedes its child, and every child lies inside its parent
// and belongs to the same operation.
func validateSpans(spans []span) error {
	for i, s := range spans {
		if s.ID != i+1 {
			return fmt.Errorf("span %d has id %d", i+1, s.ID)
		}
		if s.Name == "" {
			return fmt.Errorf("span %d has no name", s.ID)
		}
		if s.EndNS < s.StartNS {
			return fmt.Errorf("span %d (%s) ends before it starts", s.ID, s.Name)
		}
		if s.Parent == 0 {
			continue
		}
		if s.Parent < 0 || s.Parent >= s.ID {
			return fmt.Errorf("span %d (%s) has parent %d", s.ID, s.Name, s.Parent)
		}
		p := spans[s.Parent-1]
		if s.StartNS < p.StartNS || s.EndNS > p.EndNS {
			return fmt.Errorf("span %d (%s) lies outside its parent %d (%s)", s.ID, s.Name, p.ID, p.Name)
		}
		if s.Op != p.Op {
			return fmt.Errorf("span %d (%s) is in op %d, its parent in op %d", s.ID, s.Name, s.Op, p.Op)
		}
	}
	return nil
}

// spanFile is what -trace 1 writes next to the results.
type spanFile struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Spans    []span `json:"spans"`
}

func writeSpans(path string, f spanFile) error {
	data, err := json.Marshal(f)
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// totalAlloc returns the cumulative heap bytes allocated by the process.
// ReadMemStats stops the world and flushes every per-P cache, so the
// figure is exact — the reason alloc_mb_per_op repeats run to run.
func totalAlloc() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc
}
