package simclock

import (
	"slices"
	"testing"
	"time"
)

// Ordering contract of the engine: random event programs whose structure
// is a pure function of per-event identities (not of engine internals),
// executed once by a single Run and once as a sequence of RunUntil slices
// followed by Run. The execution traces — every (time, id) pair in firing
// order — must match exactly: where the clock is stopped between events
// must not be observable, which is what lets a driver advance the clock
// in steps (mid-recovery fault injection) without changing the physics.

// mix is splitmix64: the per-event identity hash that derives each
// event's fan-out and delays, so a program's shape depends only on the
// seed and the event's position in the spawn tree.
func mix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

type traceEntry struct {
	at Time
	id uint64
}

// tracer is one program execution: the trace in firing order plus the
// spawn budget bounding the run. Budget consumption order equals
// execution order; if the engines diverge, the traces already differ, so
// the shared counter never masks a failure. The two queues and the
// semaphore share their Sim's backlog slab; owner and handed record which
// of them each node was last seen waiting in, and how often one was seen
// in another's backlog since (see observe).
type tracer struct {
	s      *Sim
	qs     [2]*Queue
	sem    *Semaphore
	trace  []traceEntry
	budget int
	owner  map[int32]int
	handed int
}

// observe walks the three backlogs and counts each node now waiting in a
// different one than when last seen: a node one freed that another took.
// Called from every callback, it sees a lower bound of the hand-offs.
func (tr *tracer) observe() {
	for who, b := range []*backlog{&tr.qs[0].backlog, &tr.qs[1].backlog, &tr.sem.backlog} {
		i := b.head
		for range b.count {
			if was, ok := tr.owner[i]; ok && was != who {
				tr.handed++
			}
			tr.owner[i] = who
			i = tr.s.node(i).next
		}
	}
}

type node struct {
	tr *tracer
	id uint64
}

func runNode(a any) {
	n := a.(*node)
	tr := n.tr
	tr.observe()
	tr.trace = append(tr.trace, traceEntry{tr.s.Now(), n.id})
	h := mix(n.id)
	kids := int(h & 3) // 0..3 children
	for i := 0; i < kids && tr.budget > 0; i++ {
		tr.budget--
		h = mix(h + uint64(i) + 1)
		// Delay in [0, 200µs): zero-delay children land inside the slice
		// being run, long ones several slices ahead.
		d := Time(h % uint64(200*time.Microsecond))
		tr.s.AfterArg(d, runNode, &node{tr: tr, id: h})
	}
	switch {
	case h&0xf == 0 && tr.budget > 0:
		// Ride the Queue path: service time from the hash,
		// completion records a tagged entry.
		tr.budget--
		tr.qs[h>>4&1].SubmitArg(Time(h%uint64(50*time.Microsecond)), queueDone, &node{tr: tr, id: h ^ 0xabcdef})
	case h&0xf == 1 && tr.budget > 0:
		tr.budget--
		id := h ^ 0x123456
		tr.sem.Acquire(func() {
			tr.observe()
			tr.trace = append(tr.trace, traceEntry{tr.s.Now(), id})
			tr.s.AfterArg(Time(h%uint64(30*time.Microsecond)), semDone, tr)
		})
	}
}

func queueDone(a any) {
	n := a.(*node)
	n.tr.observe()
	n.tr.trace = append(n.tr.trace, traceEntry{n.tr.s.Now(), n.id})
}

func semDone(a any) {
	a.(*tracer).sem.Release()
}

// runProgram executes the seeded program. step == 0 drives it with one
// Run; otherwise see runSliced. It also reports how many backlog nodes
// were seen changing hands between the queues and the semaphore (see
// tracer.observe).
func runProgram(seed uint64, step Time) ([]traceEntry, Time, int) {
	s := New()
	tr := &tracer{s: s, qs: [2]*Queue{s.NewQueue(2), s.NewQueue(1)}, sem: s.NewSemaphore(2), budget: 1500, owner: map[int32]int{}}
	r := seed
	for i := 0; i < 16; i++ {
		r = mix(r + uint64(i))
		at := Time(r % uint64(2*time.Millisecond))
		s.atArg(at, runNode, &node{tr: tr, id: mix(r)})
	}
	var end Time
	if step == 0 {
		end = s.Run()
	} else {
		end = runSliced(s, func(int) Time { return step })
	}
	return tr.trace, end, tr.handed
}

// runSliced drives s the way a stepping caller does: RunUntil(t += cut(i))
// while events are pending, then Run, whose result it returns.
func runSliced(s *Sim, cut func(i int) Time) Time {
	var t Time
	for i := 0; len(s.heap) > 0; i++ {
		t += cut(i)
		s.RunUntil(t)
	}
	return s.Run()
}

// slicedEnd is the final time runSliced must report for a program whose
// last event fires at end: RunUntil leaves the clock on its target, so the
// run ends on the first cut at or past that event.
func slicedEnd(end Time, cut func(i int) Time) Time {
	t := cut(0)
	for i := 1; t < end; i++ {
		t += cut(i)
	}
	return t
}

// TestRunUntilSlicingProperty: for random programs, cutting the run into
// RunUntil slices of ANY size fires the same events at the same times in
// the same order as one Run. Steps are chosen to force degenerate slices
// (1ns: millions of mostly empty ones), typical ones, and a single slice
// covering the whole program (10ms).
func TestRunUntilSlicingProperty(t *testing.T) {
	steps := []Time{1, 137, 50 * time.Microsecond, 10 * time.Millisecond}
	handed := 0
	for seed := uint64(1); seed <= 8; seed++ {
		want, wantEnd, n := runProgram(seed, 0)
		if len(want) == 0 {
			t.Fatalf("seed %d: empty trace", seed)
		}
		handed += n
		for _, step := range steps {
			got, gotEnd, _ := runProgram(seed, step)
			if end := slicedEnd(wantEnd, func(int) Time { return step }); gotEnd != end {
				t.Errorf("seed %d step %v: end %v, want %v (one Run ends at %v)",
					seed, step, gotEnd, end, wantEnd)
			}
			if !slices.Equal(got, want) {
				i := 0
				for i < len(got) && i < len(want) && got[i] == want[i] {
					i++
				}
				t.Fatalf("seed %d step %v: trace diverged at event %d/%d (one Run %+v, sliced %+v)",
					seed, step, i, len(want), at(want, i), at(got, i))
			}
		}
	}
	if handed == 0 {
		t.Error("no backlog took a node another had freed: the programs no longer reach the hand-off")
	}
}

func at(tr []traceEntry, i int) any {
	if i < len(tr) {
		return tr[i]
	}
	return "<end>"
}

// FuzzSimclockFIFO pins the same-timestamp tie-break: events scheduled
// for one instant fire in scheduling order. Each input byte schedules one
// root on a tiny timestamp grid (collisions abound); high-bit bytes also
// spawn a zero-delay child at fire time, which must fire after every
// same-instant event already scheduled.
func FuzzSimclockFIFO(f *testing.F) {
	f.Add([]byte{0, 0, 0, 1, 1, 7, 3, 3, 0x83, 0x81, 0xff, 5})
	f.Add([]byte{0x80, 0x80, 0x80, 0x80})
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 || len(data) > 512 {
			t.Skip()
		}
		s := New()
		var trace []traceEntry
		var nextID uint64
		child := func(a any) {
			trace = append(trace, traceEntry{s.Now(), a.(uint64)})
		}
		for _, b := range data {
			b := b
			id := nextID
			nextID++
			s.atArg(Time(b&0x7)*100*time.Nanosecond, func(any) {
				trace = append(trace, traceEntry{s.Now(), id})
				if b&0x80 != 0 {
					cid := nextID
					nextID++
					s.atArg(s.Now(), child, cid)
				}
			}, nil)
		}
		s.Run()

		// FIFO within an instant: ids scheduled before the run ascend per
		// timestamp (children get larger ids than every pre-run root, and
		// also ascend in spawn order).
		byAt := map[Time]uint64{}
		for _, e := range trace {
			if last, ok := byAt[e.at]; ok && e.id <= last {
				t.Fatalf("same-instant FIFO violated at %v: id %d after %d (trace %v)",
					e.at, e.id, last, trace)
			}
			byAt[e.at] = e.id
		}
	})
}

// FuzzRunUntilSlicing is the fuzz form of TestRunUntilSlicingProperty:
// each byte schedules a root on a coarse timestamp grid with optional
// traffic on one of two Queues (picked by the byte's position, so backlog
// nodes change hands between them) and delayed children, and the same
// bytes give the cut points (slice i is data[i%len]*20ns+1 long, so cuts
// fall on, between and past event times). The sliced trace must equal the
// single-Run trace.
func FuzzRunUntilSlicing(f *testing.F) {
	f.Add([]byte{0x00, 0x41, 0x82, 0xc3, 0x24, 0x65, 0xa6, 0xe7})
	f.Add([]byte{0xff, 0xfe, 0xfd, 0x01, 0x02, 0x03})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 || len(data) > 1024 {
			t.Skip()
		}
		// +1 so an all-zero input still advances the clock.
		cut := func(i int) Time { return Time(data[i%len(data)])*20*time.Nanosecond + 1 }
		run := func(sliced bool) ([]traceEntry, Time) {
			s := New()
			qs := [2]*Queue{s.NewQueue(1), s.NewQueue(1)}
			var trace []traceEntry
			record := func(a any) {
				trace = append(trace, traceEntry{s.Now(), a.(uint64)})
			}
			for i, b := range data {
				b := b
				id := uint64(i)
				s.atArg(Time(b&0x3f)*100*time.Nanosecond, func(any) {
					trace = append(trace, traceEntry{s.Now(), id})
					if b&0x40 != 0 {
						qs[id&1].SubmitArg(Time(b)*10*time.Nanosecond, record, id|1<<32)
					}
					if b&0x80 != 0 {
						s.AfterArg(Time(b&0xf)*50*time.Nanosecond, record, id|1<<33)
					}
				}, nil)
			}
			if !sliced {
				return trace, s.Run()
			}
			return trace, runSliced(s, cut)
		}
		want, wantEnd := run(false)
		got, gotEnd := run(true)
		if end := slicedEnd(wantEnd, cut); gotEnd != end {
			t.Fatalf("sliced run ended at %v, want %v (one Run ends at %v)", gotEnd, end, wantEnd)
		}
		if !slices.Equal(got, want) {
			t.Fatalf("sliced run diverged from one Run (%d vs %d events)\none Run %v\nsliced  %v",
				len(got), len(want), want, got)
		}
	})
}
