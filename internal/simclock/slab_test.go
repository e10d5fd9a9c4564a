package simclock

import (
	"math"
	"reflect"
	"slices"
	"sync"
	"testing"
	"time"
	"unsafe"
)

// fireAll fires every pending event as Run does, but leaves the backlog
// slab with its Sim, so a test can count the chunks a peak needed before
// Run would hand them on.
func fireAll(s *Sim) {
	for len(s.heap) > 0 {
		s.fire()
	}
}

// pointerBearing reports whether a value of type t holds anything the
// garbage collector has to trace.
func pointerBearing(t reflect.Type) bool {
	switch t.Kind() {
	case reflect.Bool,
		reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
		reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr,
		reflect.Float32, reflect.Float64, reflect.Complex64, reflect.Complex128:
		return false
	case reflect.Array:
		return t.Len() > 0 && pointerBearing(t.Elem())
	case reflect.Struct:
		for i := 0; i < t.NumField(); i++ {
			if pointerBearing(t.Field(i).Type) {
				return true
			}
		}
		return false
	}
	return true // pointers, strings, slices, maps, chans, funcs, interfaces
}

// TestHeapEntryIsPointerFree guards the reason the heap is cheap to sift:
// an entry the collector never scans, moved without a write barrier, three
// words long. A callback or argument stored in the entry again would
// compile, pass every ordering test and bring the barriers back.
func TestHeapEntryIsPointerFree(t *testing.T) {
	typ := reflect.TypeOf(entry{})
	for i := 0; i < typ.NumField(); i++ {
		if f := typ.Field(i); pointerBearing(f.Type) {
			t.Errorf("entry.%s (%s) carries a pointer", f.Name, f.Type)
		}
	}
	if size := unsafe.Sizeof(entry{}); size != 24 {
		t.Errorf("entry is %d bytes, want 24", size)
	}
	if !pointerBearing(reflect.TypeOf(slot{})) {
		t.Error("pointerBearing finds no pointer in slot, which holds a func, an any and a *Queue")
	}
}

// TestLessBitsMatchesBefore pins the branch-free compare heapDown's
// tournament uses to before, over every pair from a table of times (0 up
// to the largest Time, the domain the at >= 0 invariant leaves) and
// sequence numbers, equal ones included.
func TestLessBitsMatchesBefore(t *testing.T) {
	ats := []Time{0, 1, 2, time.Second, 1<<32 - 1, 1 << 32, 1<<62 + 5, math.MaxInt64 - 1, math.MaxInt64}
	seqs := []uint64{0, 1, 2, 1<<32 - 1, 1 << 32, 1 << 63, math.MaxUint64 - 1, math.MaxUint64}
	var es []entry
	for _, at := range ats {
		for _, seq := range seqs {
			es = append(es, entry{at: at, seq: seq})
		}
	}
	for i := range es {
		for j := range es {
			a, b := &es[i], &es[j]
			want := 0
			if a.before(b) {
				want = 1
			}
			if got := lessBits(a, b); got != want {
				t.Errorf("lessBits(%v/%d, %v/%d) = %d, before says %d", a.at, a.seq, b.at, b.seq, got, want)
			}
		}
	}
}

// TestSlotSlabTracksPending runs random spawn trees through At, After and
// a Queue and checks, inside every callback, that the slots in use are
// exactly the pending events — the firing event's slot is already cleared,
// so it no longer references its callback or argument — and, at the end,
// that the slab grew to the peak number of pending events and no further,
// that every slot is empty, and that the census adds up.
func TestSlotSlabTracksPending(t *testing.T) {
	for seed := uint64(1); seed <= 8; seed++ {
		s := New()
		q := s.NewQueue(2)
		budget, fired, peak := 1500, 0, 0
		inUse := func() (n int) {
			for i := range s.slots {
				if sl := &s.slots[i]; sl.fn != nil || sl.arg != nil || sl.q != nil {
					n++
				}
			}
			return n
		}
		var visit func(a any)
		visit = func(a any) {
			fired++
			if got := inUse(); got != len(s.heap) {
				t.Fatalf("seed %d at %v: %d slots in use, %d events pending", seed, s.Now(), got, len(s.heap))
			}
			peak = max(peak, len(s.heap)) // a promoted Queue job may just have been scheduled
			h := mix(*a.(*uint64))
			for i := 0; i < int(h&3) && budget > 0; i++ {
				budget--
				h = mix(h + uint64(i) + 1)
				d, child := Time(h%uint64(200*time.Microsecond)), h
				if h&8 == 0 {
					q.SubmitArg(d, visit, &child)
				} else {
					s.AfterArg(d, visit, &child)
				}
				peak = max(peak, len(s.heap))
			}
		}
		r := seed
		for i := 0; i < 16; i++ {
			r = mix(r + uint64(i))
			id := mix(r)
			s.atArg(Time(r%uint64(2*time.Millisecond)), visit, &id)
		}
		peak = max(peak, len(s.heap))
		s.Run()

		st := s.Stats()
		if fired < 1000 {
			t.Fatalf("seed %d: only %d events fired", seed, fired)
		}
		if st.HeapPeak != peak || st.SlotPeak != peak {
			t.Errorf("seed %d: heap peak %d, slab %d slots, for at most %d pending events", seed, st.HeapPeak, st.SlotPeak, peak)
		}
		if n := inUse(); n != 0 {
			t.Errorf("seed %d: %d slots still hold a callback after the run", seed, n)
		}
		if st.Scheduled != uint64(fired) || st.Fired != uint64(fired) {
			t.Errorf("seed %d: scheduled %d, fired %d, callbacks run %d", seed, st.Scheduled, st.Fired, fired)
		}
	}
}

// TestStatsMidRun reads the census with events still pending.
func TestStatsMidRun(t *testing.T) {
	s := New()
	q := s.NewQueue(1)
	for i := 1; i <= 5; i++ {
		s.At(Time(i)*time.Second, func() {})
	}
	q.Submit(10*time.Second, nil) // in service: scheduled
	q.Submit(10*time.Second, nil) // waiting: not scheduled until promoted, the one job in the backlog
	s.RunUntil(3 * time.Second)
	if st := s.Stats(); st != (Stats{Scheduled: 6, Fired: 3, HeapPeak: 6, SlotPeak: 6, WaitPeak: 1}) {
		t.Fatalf("mid-run stats %+v", st)
	}
	s.Run()
	if st := s.Stats(); st != (Stats{Scheduled: 7, Fired: 7, HeapPeak: 6, SlotPeak: 6, WaitPeak: 1}) {
		t.Fatalf("final stats %+v", st)
	}
}

// TestSlabTracksBacklog runs random spawn trees through two queues and a
// semaphore of one Sim and checks, inside every callback, that the
// backlog nodes in use — every node of the slab not on its free list —
// are exactly the jobs waiting in the three, and that no free node holds
// a callback or argument. Once every event has fired, and before Run
// would hand the slab on, every node is free and empty, the wait peak is
// the most jobs seen waiting at once, and the slab holds the chunks that
// peak needs and no more.
func TestSlabTracksBacklog(t *testing.T) {
	if size := unsafe.Sizeof([waitChunk]waitNode{}); size != 10<<10 {
		t.Errorf("a backlog chunk is %d bytes, want 10 KiB (40-byte nodes, a malloc size class)", size)
	}
	crossed := false
	for seed := uint64(1); seed <= 8; seed++ {
		s := New()
		qs := [2]*Queue{s.NewQueue(1), s.NewQueue(2)}
		sem := s.NewSemaphore(1)
		budget, fired, peak := 3000, 0, 0
		waiting := func() int { return qs[0].QueueLen() + qs[1].QueueLen() + sem.count }
		check := func() {
			free := 0
			for i := s.free; int(i) < len(s.wait)*waitChunk; i = s.node(i).next {
				if n := s.node(i); n.fn != nil || n.arg != nil {
					t.Fatalf("seed %d at %v: free node %d holds a callback", seed, s.Now(), i)
				}
				free++
			}
			if inUse := len(s.wait)*waitChunk - free; inUse != waiting() || inUse != s.waiting {
				t.Fatalf("seed %d at %v: %d nodes in use (counted %d), %d jobs waiting",
					seed, s.Now(), inUse, s.waiting, waiting())
			}
			peak = max(peak, waiting())
		}
		var visit func(a any)
		visit = func(a any) {
			fired++
			check()
			h := mix(*a.(*uint64))
			for i := 0; i < int(h&3) && budget > 0; i++ {
				budget--
				h = mix(h + uint64(i) + 1)
				d, child := Time(h%uint64(200*time.Microsecond)), h
				switch h >> 8 % 4 {
				case 0, 1:
					qs[h>>8%2].SubmitArg(d/4, visit, &child)
				case 2:
					sem.Acquire(func() {
						s.AfterArg(d/8, func(any) { sem.Release() }, nil)
						visit(&child)
					})
				default:
					s.AfterArg(d, visit, &child)
				}
				peak = max(peak, waiting())
			}
		}
		r := seed
		for i := 0; i < 64; i++ {
			r = mix(r + uint64(i))
			id := mix(r)
			s.atArg(Time(r%uint64(time.Millisecond)), visit, &id)
		}
		fireAll(s)
		check()

		if fired < 2000 {
			t.Fatalf("seed %d: only %d callbacks ran", seed, fired)
		}
		if waiting() != 0 || s.waiting != 0 {
			t.Errorf("seed %d: %d jobs still waiting after the run", seed, waiting())
		}
		if st := s.Stats(); st.WaitPeak != peak || len(s.wait) != (peak+waitChunk-1)/waitChunk {
			t.Errorf("seed %d: wait peak %d, slab of %d chunks, for at most %d jobs waiting", seed, st.WaitPeak, len(s.wait), peak)
		}
		crossed = crossed || len(s.wait) > 1
	}
	if !crossed {
		t.Error("no program needed a second chunk: the slab's growth is not exercised")
	}
}

// TestDrainedSlabIsHandedOn: a Sim that Run leaves drained hands its
// backlog chunks on, and the next Sim to back up takes them before it
// allocates. A Sim with a job still waiting keeps its slab, so no live
// node is ever handed on, and Sims draining and refilling on several
// goroutines at once stay FIFO while chunks move between them.
func TestDrainedSlabIsHandedOn(t *testing.T) {
	backUp := func(s *Sim, jobs int, record func(any), ids []int) {
		q := s.NewQueue(1)
		for i := 0; i < jobs; i++ {
			q.SubmitArg(time.Microsecond, record, &ids[i])
		}
	}
	ids := make([]int, 4*waitChunk)
	for i := range ids {
		ids[i] = i
	}

	t.Run("a second Sim takes the first one's chunks", func(t *testing.T) {
		const jobs = 2*waitChunk + 11 // three chunks of waiting jobs
		first := New()
		backUp(first, jobs, nil, ids)
		handed := slices.Clone(first.wait)
		if len(handed) != 3 {
			t.Fatalf("%d jobs waiting took %d chunks, want 3", jobs-1, len(handed))
		}
		first.Run()
		if len(first.wait) != 0 || first.free != 0 {
			t.Fatalf("a drained Sim kept %d chunks (free list at %d)", len(first.wait), first.free)
		}
		second := New()
		var served []int
		backUp(second, jobs, func(x any) { served = append(served, *x.(*int)) }, ids)
		if len(second.wait) != len(handed) {
			t.Fatalf("the second Sim holds %d chunks, want %d", len(second.wait), len(handed))
		}
		for i, c := range second.wait {
			if !slices.Contains(handed, c) {
				t.Errorf("the second Sim's chunk %d is new, not one the first handed on", i)
			}
		}
		second.Run()
		if !slices.Equal(served, ids[:jobs]) {
			t.Fatalf("jobs on handed-on chunks served out of FIFO order: %v", served)
		}
	})

	t.Run("a Sim with an acquirer waiting keeps its slab", func(t *testing.T) {
		s := New()
		sem := s.NewSemaphore(1)
		granted := false
		sem.Acquire(func() {})
		sem.Acquire(func() { granted = true })
		s.Run()
		if len(s.wait) != 1 || sem.count != 1 {
			t.Fatalf("Run with an acquirer waiting left %d chunks and %d waiting, want 1 and 1", len(s.wait), sem.count)
		}
		// Empty the stack to look through it, then put it back as it was.
		var spare []*[waitChunk]waitNode
		for c := spareChunks.Get(); c != nil; c = spareChunks.Get() {
			spare = append(spare, c)
		}
		live := slices.Contains(spare, s.wait[0])
		slices.Reverse(spare)
		spareChunks.Put(spare...)
		if live {
			t.Fatal("the chunk holding a waiting acquirer was handed on")
		}
		sem.Release()
		if !granted {
			t.Fatal("the waiting acquirer was not granted on Release")
		}
		s.Run()
		if len(s.wait) != 0 {
			t.Fatalf("a drained Sim kept %d chunks", len(s.wait))
		}
	})

	t.Run("Sims on four goroutines drain and refill FIFO", func(t *testing.T) {
		var wg sync.WaitGroup
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				s := New()
				for round := 0; round < 24; round++ {
					jobs := 1 + (g*131+round*389)%len(ids)
					var served []int
					backUp(s, jobs, func(x any) { served = append(served, *x.(*int)) }, ids)
					s.Run()
					if !slices.Equal(served, ids[:jobs]) {
						t.Errorf("goroutine %d round %d: %d jobs served out of FIFO order", g, round, jobs)
						return
					}
					if len(s.wait) != 0 {
						t.Errorf("goroutine %d round %d: a drained Sim kept %d chunks", g, round, len(s.wait))
						return
					}
				}
			}()
		}
		wg.Wait()
	})
}
