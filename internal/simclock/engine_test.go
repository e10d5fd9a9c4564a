package simclock

import (
	"testing"
	"time"
)

// TestHeapOrderingStress drives the 4-ary heap through a few thousand
// pushes and pops with adversarial (colliding, decreasing-then-increasing)
// times and checks the pop sequence is the exact (at, seq) total order:
// times non-decreasing, and same-instant events in scheduling order.
func TestHeapOrderingStress(t *testing.T) {
	s := New()
	type stamp struct {
		at  Time
		seq int
	}
	var fired []stamp
	// A deterministic LCG; times collide heavily so the seq tiebreak is
	// exercised on every level of the heap.
	state := uint64(42)
	next := func() uint64 {
		state = state*6364136223846793005 + 1442695040888963407
		return state >> 33
	}
	const n = 5000
	for i := 0; i < n; i++ {
		i := i
		at := Time(next()%97) * time.Millisecond
		s.At(at, func() { fired = append(fired, stamp{at, i}) })
	}
	// Nested scheduling mid-run: events landing between pending ones.
	s.At(40*time.Millisecond, func() {
		for j := 0; j < 100; j++ {
			j := j
			at := s.Now() + Time(next()%50)*time.Millisecond
			s.At(at, func() { fired = append(fired, stamp{at, n + j}) })
		}
	})
	s.Run()
	if len(fired) != n+100 {
		t.Fatalf("fired %d events, want %d", len(fired), n+100)
	}
	for i := 1; i < len(fired); i++ {
		a, b := fired[i-1], fired[i]
		if b.at < a.at {
			t.Fatalf("time went backwards at %d: %v after %v", i, b.at, a.at)
		}
		if b.at == a.at && b.seq < a.seq {
			t.Fatalf("same-instant events out of scheduling order at %d: seq %d after %d", i, b.seq, a.seq)
		}
	}
}

// atArg schedules fn(arg) at absolute time t without allocating: the call
// every scheduling entry point makes.
func (s *Sim) atArg(t Time, fn func(any), arg any) { s.schedule(t, fn, arg, nil) }

// TestMixedSchedulingSameInstant checks the determinism contract across
// the different scheduling entry points: At, After, AfterArg and the
// schedule call under them all consume one sequence number, so
// same-instant events fire in call order no matter which API scheduled
// them.
func TestMixedSchedulingSameInstant(t *testing.T) {
	s := New()
	var order []int
	rec := func(a any) { order = append(order, *a.(*int)) }
	vals := [6]int{0, 1, 2, 3, 4, 5}
	s.At(time.Second, func() { order = append(order, vals[0]) })
	s.atArg(time.Second, rec, &vals[1])
	s.After(time.Second, func() { order = append(order, vals[2]) })
	s.AfterArg(time.Second, rec, &vals[3])
	s.At(time.Second, func() { order = append(order, vals[4]) })
	s.atArg(time.Second, rec, &vals[5])
	s.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("mixed-API same-instant order = %v", order)
		}
	}
}

// TestQueueRingWraparound cycles a queue through enough submit/drain
// rounds that its backlog keeps reusing the slab nodes earlier rounds
// freed. Completion order must stay FIFO and the stats must match the
// closed-form values.
func TestQueueRingWraparound(t *testing.T) {
	s := New()
	q := s.NewQueue(1)
	var finish []int
	const rounds, burst = 7, 5
	id := 0
	for r := 0; r < rounds; r++ {
		at := Time(r) * 100 * time.Second
		for b := 0; b < burst; b++ {
			id++
			n := id
			s.At(at, func() {
				q.Submit(time.Second, func() { finish = append(finish, n) })
			})
		}
	}
	s.Run()
	if len(finish) != rounds*burst {
		t.Fatalf("served %d jobs, want %d", len(finish), rounds*burst)
	}
	for i, v := range finish {
		if v != i+1 {
			t.Fatalf("jobs completed out of FIFO order: %v", finish)
		}
	}
	if q.JobsServed != rounds*burst {
		t.Fatalf("JobsServed = %d", q.JobsServed)
	}
	// Each round: job i of the burst waits i seconds → 0+1+2+3+4.
	want := Time(rounds*(0+1+2+3+4)) * time.Second
	if q.TotalWaiting() != want {
		t.Fatalf("TotalWaiting = %v, want %v", q.TotalWaiting(), want)
	}
	if q.BusyTime != Time(rounds*burst)*time.Second {
		t.Fatalf("BusyTime = %v", q.BusyTime)
	}
}

// TestQueueRingGrowthWhileWrapped grows a queue's backlog past two slab
// chunks while it is partly drained: the jobs served first leave their
// nodes on the free list, the burst that follows links those back in
// before it takes fresh ones, and service stays FIFO throughout. Once
// every job is served, and before Run would hand the slab on, it holds
// exactly the chunks the peak backlog needs.
func TestQueueRingGrowthWhileWrapped(t *testing.T) {
	s := New()
	q := s.NewQueue(1)
	var finish []int
	submit := func(n int) {
		q.Submit(time.Second, func() { finish = append(finish, n) })
	}
	for i := 1; i <= 9; i++ { // one in service, 8 waiting
		submit(i)
	}
	last := 9 + 2*waitChunk
	s.At(4*time.Second+time.Second/2, func() { // 4 served, 4 nodes freed
		for i := 10; i <= last; i++ {
			submit(i)
		}
	})
	fireAll(s)
	if len(finish) != last {
		t.Fatalf("served %d, want %d", len(finish), last)
	}
	for i, v := range finish {
		if v != i+1 {
			t.Fatalf("order after growth past a chunk: %v", finish)
		}
	}
	peak := last - 5 // jobs 6..last waiting behind job 5
	if st := s.Stats(); st.WaitPeak != peak || len(s.wait) != (peak+waitChunk-1)/waitChunk {
		t.Fatalf("wait peak %d, %d chunks; want %d and the %d chunks it needs",
			st.WaitPeak, len(s.wait), peak, (peak+waitChunk-1)/waitChunk)
	}
}

// TestOutgrownRingsAreReused: every queue and semaphore of a Sim waits in
// its one backlog slab. A queue that backs up and drains leaves its nodes
// on the free list, so a second queue and a semaphore backing up together
// to the same depth later take no new chunk, each stays FIFO, and backing
// them up and draining them again and again allocates nothing. Each phase
// fires its events without Run, which would hand the drained slab on to
// the next Sim.
func TestOutgrownRingsAreReused(t *testing.T) {
	s := New()
	ids := make([]int, 65)
	for i := range ids {
		ids[i] = i
	}
	var served, granted []int
	record := func(x any) { served = append(served, *x.(*int)) }
	fifo := func(phase string, got []int, n int) {
		t.Helper()
		if len(got) != n {
			t.Fatalf("%s: %d jobs done, want %d", phase, len(got), n)
		}
		for i, v := range got {
			if v != i {
				t.Fatalf("%s: out of FIFO order: %v", phase, got)
			}
		}
	}
	chunks := func(phase string, peak int) {
		t.Helper()
		if st := s.Stats(); st.WaitPeak != peak || len(s.wait) != (peak+waitChunk-1)/waitChunk {
			t.Fatalf("%s: wait peak %d, %d chunks; want %d and the %d chunks it needs",
				phase, st.WaitPeak, len(s.wait), peak, (peak+waitChunk-1)/waitChunk)
		}
	}

	a := s.NewQueue(1)
	for i := 0; i <= 64; i++ { // one in service, 64 waiting
		a.SubmitArg(time.Second, record, &ids[i])
	}
	fireAll(s)
	fifo("queue A", served, 65)
	if a.JobsServed != 65 || a.TotalWaiting() != 64*65/2*time.Second {
		t.Fatalf("queue A: JobsServed %d, TotalWaiting %v", a.JobsServed, a.TotalWaiting())
	}
	chunks("queue A", 64)

	b, sem := s.NewQueue(1), s.NewSemaphore(1)
	grants := make([]func(), 33)
	for i := range grants {
		grants[i] = func() { granted = append(granted, i) }
	}
	release := func(x any) { record(x); sem.Release() } // pops alternate
	// cycle backs queue B and the semaphore up to 64 waiters between them
	// and drains them. testing.AllocsPerRun runs it once to warm up (the
	// first back-up after queue A's) and then times it, averaging the
	// process-wide malloc count over the runs, so a stray background
	// allocation cannot show as one of the cycle's.
	cycle := func() {
		served, granted = served[:0], granted[:0]
		b.SubmitArg(time.Second, release, &ids[0]) // in service
		sem.Acquire(grants[0])                     // held
		for i := 1; i <= 32; i++ {
			b.SubmitArg(time.Second, release, &ids[i])
			sem.Acquire(grants[i])
		}
		if b.QueueLen() != 32 || sem.count != 32 {
			t.Fatalf("%d and %d waiting, want 32 each", b.QueueLen(), sem.count)
		}
		fireAll(s)
	}
	const runs = 20
	if n := testing.AllocsPerRun(runs, cycle); n != 0 {
		t.Errorf("backing up a queue and a semaphore to 64 waiters allocated %.1f objects a cycle, want 0", n)
	}
	fifo("queue B", served, 33)
	fifo("semaphore", granted, 33)
	if b.JobsServed != 33*(runs+1) || sem.held != 0 {
		t.Fatalf("queue B served %d jobs, want %d; semaphore holds %d", b.JobsServed, 33*(runs+1), sem.held)
	}
	chunks("queue B and semaphore", 64)
}

// TestSemaphoreFIFOWraparound checks grant order across repeated
// acquire/release cycles through its backlog.
func TestSemaphoreFIFOWraparound(t *testing.T) {
	s := New()
	sem := s.NewSemaphore(2)
	var grants []int
	for i := 1; i <= 25; i++ {
		n := i
		sem.Acquire(func() { grants = append(grants, n) })
	}
	if sem.held != 2 || sem.count != 23 {
		t.Fatalf("held=%d waiting=%d", sem.held, sem.count)
	}
	for i := 0; i < 23; i++ {
		sem.Release()
	}
	if sem.count != 0 || sem.held != 2 {
		t.Fatalf("after drain: held=%d waiting=%d", sem.held, sem.count)
	}
	sem.Release()
	sem.Release()
	if sem.held != 0 {
		t.Fatalf("held = %d", sem.held)
	}
	for i, v := range grants {
		if v != i+1 {
			t.Fatalf("grants out of FIFO order: %v", grants)
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Release without Acquire did not panic")
		}
	}()
	sem.Release()
}

// TestArgVariantsDeliverArg checks the fixed-arg entry points pass their
// argument through untouched.
func TestArgVariantsDeliverArg(t *testing.T) {
	s := New()
	q := s.NewQueue(1)
	type payload struct{ hits int }
	p := &payload{}
	bump := func(a any) { a.(*payload).hits++ }
	s.atArg(time.Second, bump, p)
	s.AfterArg(2*time.Second, bump, p)
	q.SubmitArg(time.Second, bump, p)
	q.SubmitArg(time.Second, nil, nil) // nil completion is allowed
	s.Run()
	if p.hits != 3 {
		t.Fatalf("hits = %d", p.hits)
	}
}

// TestSteadyStateAllocFree verifies the hot path stays allocation-free
// once the heap, slot slab and backlog slab are warm: scheduling through
// the *Arg variants and running to empty must not allocate.
func TestSteadyStateAllocFree(t *testing.T) {
	s := New()
	q := s.NewQueue(2)
	var hits int
	bump := func(any) { hits++ }
	load := func() {
		base := s.Now()
		for i := 0; i < 32; i++ {
			s.atArg(base+Time(i)*time.Millisecond, bump, nil)
			q.SubmitArg(time.Millisecond, bump, nil)
		}
		s.Run()
	}
	load() // warm the heap, slot slab and backlog slab
	allocs := testing.AllocsPerRun(10, load)
	if allocs != 0 {
		t.Fatalf("steady-state run allocated %.1f times per cycle", allocs)
	}
}
