// Package simclock is a small deterministic discrete-event simulation
// engine. The cluster simulator uses it to account for the time cost of
// heartbeats, peering, disk I/O, network transfers and decode CPU without
// running in real time.
//
// Events scheduled for the same instant fire in scheduling order, making
// runs fully reproducible: the heap orders by (time, sequence number) and
// every scheduling call — At, After, Queue.Submit — consumes exactly one
// sequence number, so the firing order is a pure function of the
// scheduling order regardless of heap internals.
//
// The hot path is allocation-free and the heap is pointer-free. A heap
// entry is three scalars — (at, seq) and the index of a callback slot —
// in an implicit 4-ary min-heap (no container/heap interface boxing), so
// sifting moves 24-byte records the garbage collector never has to look
// at and never crosses a write barrier. A sift down picks the least of
// four children without branching on the data, from the borrow of a
// 128-bit subtraction; that is exact because no pending event's time is
// negative. The callback itself, a fixed-arg pair (fn func(any), arg any)
// plus the Queue whose server it occupies, if any, waits in a slab of
// slots that is written when the event is scheduled and cleared when it
// fires. Func values and pointers are pointer-shaped, so storing them in
// an `any` does not allocate. The closure-based At/After/Submit
// signatures remain for cold paths; hot callers use the *Arg variants
// with a pooled or long-lived argument.
//
// A job waiting for a Queue's server or a Semaphore's unit waits in its
// Sim's one backlog slab, which every Queue and Semaphore links a FIFO
// through, so the slab grows to the most jobs waiting at once in the Sim.
//
// A run's drained working set outlives the run. When Run returns with no
// job waiting, the Sim hands its slab chunks to a process-wide
// parallel.Spares stack, and the next Sim to back up, on any goroutine,
// takes them before it allocates. The cluster's repair records and
// iostat's sample buffer travel the same way, each through a stack of its
// own (as do Clay's codec slabs, outside the simulator); nothing else in
// the engine is shared between Sims.
package simclock

import (
	"fmt"
	"math/bits"
	"time"

	"repro/internal/parallel"
)

// Time is simulated time since the start of the run.
type Time = time.Duration

// initialEvents sizes the heap and the slot slab on first use: the
// paper's campaign peaks at 135 to 160 pending events per run, so an
// ordinary run never regrows them.
const initialEvents = 192

// A backlog slab chunk holds waitChunk nodes: 256 of 40 bytes is 10 KiB,
// a malloc size class. Chunks are never copied, so node indices stay valid
// while the slab grows.
const (
	waitShift = 8
	waitChunk = 1 << waitShift
)

// Sim is a discrete-event simulator. It is not safe for concurrent use:
// everything, callbacks included, runs on the caller's goroutine inside
// Run or RunUntil, one event at a time in (time, seq) order.
type Sim struct {
	now Time
	seq uint64

	// heap[:len(heap)] is an implicit 4-ary min-heap on (at, seq). The
	// array behind it is as long as slots, and the entries past the heap's
	// end carry, in their slot field, the indices of the free slots: fire
	// leaves the slot it cleared there and schedule takes it back, so heap
	// and slab grow only together, when every slot is in use.
	heap  []entry
	slots []slot // callbacks of pending events, indexed by entry.slot

	heapPeak int

	// wait is the backlog slab. free heads its LIFO list of free nodes,
	// which ends at the index one past the slab: the list is empty when
	// free is that index. waiting counts the nodes in use.
	wait     []*[waitChunk]waitNode
	free     int32
	waiting  int
	waitPeak int
}

// waitNode is one waiting job: a Queue job, or a Semaphore grant with no
// service time. next links its backlog, or the free list.
type waitNode struct {
	service Time
	fn      func(any)
	arg     any
	next    int32
}

// backlog is a FIFO linked through its Sim's slab from head to tail (both
// unset while count is 0). waited is the area under its count-over-time
// curve up to since, the last time count changed.
type backlog struct {
	head, tail int32
	count      int
	waited     Time
	since      Time
}

// entry is one scheduled event as the heap sees it. It must stay free of
// pointers: that is what keeps sifts out of the write barrier.
//
// Invariant: at >= 0 for every pending entry. schedule refuses t < now,
// and now starts at 0 and never decreases. lessBits relies on it.
type entry struct {
	at   Time
	seq  uint64
	slot int32
}

func (e *entry) before(o *entry) bool {
	return e.at < o.at || (e.at == o.at && e.seq < o.seq)
}

// lessBits is before as 1 or 0, computed without a branch: the borrow out
// of the 128-bit subtraction (a.at, a.seq) − (b.at, b.seq). Comparing at
// unsigned is exact because it is never negative (see entry).
func lessBits(a, b *entry) int {
	_, borrow := bits.Sub64(a.seq, b.seq, 0)
	_, borrow = bits.Sub64(uint64(a.at), uint64(b.at), borrow)
	return int(borrow)
}

// slot holds a pending event's callback. fn and arg are stored separately
// so scheduling never allocates: a bound closure would escape to the heap
// on every call, a func value or pointer stored in an `any` does not. q is
// set on the completion of a Queue job.
type slot struct {
	fn  func(any)
	arg any
	q   *Queue
}

// New returns a simulator at time zero.
func New() *Sim { return &Sim{} }

// Now returns the current simulated time.
func (s *Sim) Now() Time { return s.now }

// callThunk adapts the closure-based scheduling API to the fixed-arg
// event representation.
func callThunk(a any) { a.(func())() }

// At schedules fn at absolute time t, which must not be in the past.
func (s *Sim) At(t Time, fn func()) { s.schedule(t, callThunk, fn, nil) }

// After schedules fn d from now. Negative d is treated as zero.
func (s *Sim) After(d Time, fn func()) {
	if d < 0 {
		d = 0
	}
	s.schedule(s.now+d, callThunk, fn, nil)
}

// AfterArg schedules fn(arg) d from now without allocating. Negative d is
// treated as zero.
func (s *Sim) AfterArg(d Time, fn func(any), arg any) {
	if d < 0 {
		d = 0
	}
	s.schedule(s.now+d, fn, arg, nil)
}

func (s *Sim) schedule(t Time, fn func(any), arg any, q *Queue) {
	if t < s.now {
		panic(fmt.Sprintf("simclock: scheduling into the past (%v < %v)", t, s.now))
	}
	n := len(s.heap)
	if n < len(s.slots) {
		s.heap = s.heap[:n+1] // heap[n].slot is a slot fire freed
	} else {
		if s.slots == nil {
			s.heap = make([]entry, 0, initialEvents)
			s.slots = make([]slot, 0, initialEvents)
		}
		s.heap = append(s.heap, entry{slot: int32(n)})
		s.slots = append(s.slots, slot{})
	}
	s.seq++
	e := &s.heap[n]
	e.at, e.seq = t, s.seq
	s.slots[e.slot] = slot{fn: fn, arg: arg, q: q}
	heapUp(s.heap, n)
	if n >= s.heapPeak {
		s.heapPeak = n + 1
	}
}

// heapUp restores the heap property from leaf i toward the root. The
// moving entry is held in registers and written once at its final place.
// It compares with before: there is one compare per level, and a new
// event usually stops within a level or two, so the branch predicts well.
func heapUp(h []entry, i int) {
	e := h[i]
	for i > 0 {
		p := (i - 1) >> 2
		if !e.before(&h[p]) {
			break
		}
		h[i] = h[p]
		i = p
	}
	h[i] = e
}

// heapDown restores the heap property from place i toward the leaves. With
// four children per node the tree is half as deep as a binary heap, which
// pays off on the pop-heavy event loop.
//
// A full family picks its least child in a branch-free tournament: two
// pairs, then their winners. The heap holds a few dozen events, so a sift
// is short and the compares of a scan mispredict often; the tournament
// trades those branches for lessBits' borrows. Sequence numbers are
// unique, so the least child is unique and the pop order is the one a
// scan gives. The last, partial family (at most one per sift) and the
// stop test keep before.
func heapDown(h []entry, i int) {
	n := len(h)
	e := h[i]
	for {
		c := i<<2 + 1
		var m int
		if c+3 < n {
			x := c + lessBits(&h[c+1], &h[c])
			y := c + 2 + lessBits(&h[c+3], &h[c+2])
			m = x + (y-x)*lessBits(&h[y], &h[x])
		} else if c < n {
			m = c
			for k := c + 1; k < n; k++ {
				if h[k].before(&h[m]) {
					m = k
				}
			}
		} else {
			break
		}
		if !h[m].before(&e) {
			break
		}
		h[i] = h[m]
		i = m
	}
	h[i] = e
}

// fire removes the earliest event, advances the clock to it and runs its
// callback. The slot is cleared and handed back before the callback runs,
// so a fired event keeps nothing alive and whatever the callback schedules
// first takes the slot over.
func (s *Sim) fire() {
	h := s.heap
	e := h[0]
	n := len(h) - 1
	h[0] = h[n]
	h[n].slot = e.slot // first entry past the heap's end: a free slot
	h = h[:n]
	if n > 0 {
		heapDown(h, 0)
	}
	s.heap = h

	sl := &s.slots[e.slot]
	fn, arg, q := sl.fn, sl.arg, sl.q
	*sl = slot{}

	s.now = e.at
	if q != nil {
		q.jobDone(fn, arg)
	} else {
		fn(arg)
	}
}

// Run processes events until none remain, returning the final time. A
// drained Sim, one with no job waiting either, then hands its backlog
// slab on to the next Sim that backs up; it keeps its chunk table, so a
// Sim run again takes chunks back without growing it. A Sim left with a
// semaphore acquirer waiting keeps its slab.
func (s *Sim) Run() Time {
	for len(s.heap) > 0 {
		s.fire()
	}
	if s.waiting == 0 && len(s.wait) > 0 {
		spareChunks.Put(s.wait...)
		clear(s.wait)
		s.wait, s.free = s.wait[:0], 0
	}
	return s.now
}

// RunUntil processes events with time <= t, then sets the clock to t.
func (s *Sim) RunUntil(t Time) {
	for len(s.heap) > 0 && s.heap[0].at <= t {
		s.fire()
	}
	if t > s.now {
		s.now = t
	}
}

// Stats is the engine's census of a simulator's life so far.
type Stats struct {
	Scheduled uint64 // events scheduled
	Fired     uint64 // events fired
	HeapPeak  int    // most events pending at once
	SlotPeak  int    // callback slots ever in use at once
	WaitPeak  int    // most jobs waiting at once, across queues and semaphores
}

// Stats returns the census. It is always on: the counts fall out of the
// sequence number and the slab's length, the heap and wait peaks are one
// compare per scheduled event or waiting job.
func (s *Sim) Stats() Stats {
	return Stats{
		Scheduled: s.seq,
		Fired:     s.seq - uint64(len(s.heap)),
		HeapPeak:  s.heapPeak,
		SlotPeak:  len(s.slots),
		WaitPeak:  s.waitPeak,
	}
}

// node returns the backlog slab's node i.
func (s *Sim) node(i int32) *waitNode {
	return &s.wait[i>>waitShift][i&(waitChunk-1)]
}

// spareChunks holds the backlog chunks of drained Sims. Every node of a
// spare chunk is cleared: pop clears a node before it frees it, and a Sim
// hands its slab on only when every node is free.
var spareChunks parallel.Spares[*[waitChunk]waitNode]

// push appends a job to b's tail in a node off the free list. When the
// list is empty, a chunk becomes it, in order, ending one past the slab
// again: a spare one if a drained Sim left one, else a new one.
func (s *Sim) push(b *backlog, service Time, fn func(any), arg any) {
	if base := int32(len(s.wait)) << waitShift; s.free == base {
		c := spareChunks.Get()
		if c == nil {
			c = new([waitChunk]waitNode)
		}
		for j := range c {
			c[j].next = base + int32(j) + 1
		}
		s.wait = append(s.wait, c)
	}
	i := s.free
	n := s.node(i)
	s.free = n.next
	n.service, n.fn, n.arg = service, fn, arg
	if b.count == 0 {
		b.head = i
	} else {
		s.node(b.tail).next = i
	}
	b.tail = i
	b.waited += Time(b.count) * (s.now - b.since)
	b.since = s.now
	b.count++
	s.waiting++
	if s.waiting > s.waitPeak {
		s.waitPeak = s.waiting
	}
}

// pop removes the job at b's head, which must not be empty. The node is
// cleared before it goes back on the free list, so a drained backlog
// keeps nothing alive.
func (s *Sim) pop(b *backlog) (service Time, fn func(any), arg any) {
	i := b.head
	n := s.node(i)
	service, fn, arg = n.service, n.fn, n.arg
	b.head = n.next
	*n = waitNode{next: s.free}
	s.free = i
	b.waited += Time(b.count) * (s.now - b.since)
	b.since = s.now
	b.count--
	s.waiting--
	return service, fn, arg
}

// Queue is a FIFO service center with a fixed number of parallel servers.
// Jobs are submitted with a service duration; each occupies one server for
// that duration, then its completion callback fires.
//
// Disks, NICs and per-OSD recovery/CPU slots are all modeled as Queues.
type Queue struct {
	sim     *Sim
	servers int
	busy    int
	backlog // jobs waiting for a server

	// Stats.
	JobsServed int
	BusyTime   Time // total server-occupied duration
}

// NewQueue creates a service center with the given parallelism (>= 1).
func (s *Sim) NewQueue(servers int) *Queue {
	if servers < 1 {
		panic("simclock: queue needs at least one server")
	}
	return &Queue{sim: s, servers: servers}
}

// Submit enqueues a job with the given service time; done (may be nil)
// fires at completion.
func (q *Queue) Submit(service Time, done func()) {
	if done == nil {
		q.SubmitArg(service, nil, nil)
		return
	}
	q.SubmitArg(service, callThunk, done)
}

// SubmitArg enqueues a job whose completion fires fn(arg) (fn may be
// nil), allocating nothing. It is the hot-path form of Submit.
func (q *Queue) SubmitArg(service Time, fn func(any), arg any) {
	if service < 0 {
		service = 0
	}
	if q.busy < q.servers {
		q.start(service, fn, arg)
		return
	}
	q.sim.push(&q.backlog, service, fn, arg)
}

func (q *Queue) start(service Time, fn func(any), arg any) {
	q.busy++
	q.BusyTime += service
	q.sim.schedule(q.sim.now+service, fn, arg, q)
}

// jobDone runs when an in-service job's completion event fires. The order
// — free a server, account the completion, promote the oldest waiter,
// then fire the job's own callback — is load-bearing: promoted work
// schedules its completion before anything the callback schedules,
// exactly as the closure-based engine did.
func (q *Queue) jobDone(fn func(any), arg any) {
	q.busy--
	q.JobsServed++
	if q.count > 0 {
		q.start(q.sim.pop(&q.backlog))
	}
	if fn != nil {
		fn(arg)
	}
}

// InFlight reports currently executing jobs.
func (q *Queue) InFlight() int { return q.busy }

// QueueLen reports jobs waiting for a server.
func (q *Queue) QueueLen() int { return q.count }

// TotalWaiting is the cumulative time jobs spent queued before service:
// the area under the queue's backlog curve, which is the sum of the
// per-job waits exactly once the queue has drained. Mid-run it also
// counts the time that still-waiting jobs have waited so far.
func (q *Queue) TotalWaiting() Time {
	return q.waited + Time(q.count)*(q.sim.now-q.since)
}

// Semaphore is a counting semaphore with FIFO waiters, used for held
// resources like Ceph's per-OSD recovery/backfill reservations (unlike
// Queue, which models jobs with known service times).
type Semaphore struct {
	sim      *Sim
	capacity int
	held     int
	backlog  // acquirers waiting for a unit
}

// NewSemaphore creates a semaphore with the given capacity (>= 1).
func (s *Sim) NewSemaphore(capacity int) *Semaphore {
	if capacity < 1 {
		panic("simclock: semaphore needs capacity >= 1")
	}
	return &Semaphore{sim: s, capacity: capacity}
}

// Acquire grants a unit to fn, immediately if available, otherwise when a
// holder releases. Grants are FIFO.
func (sem *Semaphore) Acquire(fn func()) {
	if sem.held < sem.capacity {
		sem.held++
		fn()
		return
	}
	sem.sim.push(&sem.backlog, 0, callThunk, fn)
}

// Release returns a unit, granting the oldest waiter if any.
func (sem *Semaphore) Release() {
	if sem.held <= 0 {
		panic("simclock: Release without Acquire")
	}
	if sem.count > 0 {
		_, fn, arg := sem.sim.pop(&sem.backlog)
		fn(arg)
		return
	}
	sem.held--
}

// Join is a completion barrier: after n calls to Done, fn fires once.
type Join struct {
	remaining int
	fn        func()
}

// NewJoin creates a barrier over n completions. If n == 0 the callback
// fires immediately.
func NewJoin(n int, fn func()) *Join {
	j := &Join{remaining: n, fn: fn}
	if n == 0 && fn != nil {
		fn()
	}
	return j
}

// Done records one completion, firing the callback on the last.
func (j *Join) Done() {
	if j.remaining <= 0 {
		panic("simclock: Join.Done called too many times")
	}
	j.remaining--
	if j.remaining == 0 && j.fn != nil {
		j.fn()
	}
}
