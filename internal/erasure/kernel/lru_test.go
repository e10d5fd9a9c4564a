package kernel

import (
	"errors"
	"math/bits"
	"sync"
	"sync/atomic"
	"testing"
)

func TestMaskBasics(t *testing.T) {
	m := MaskOf(0, 63, 64, 200)
	for _, i := range []int{0, 63, 64, 200} {
		if !m.Has(i) {
			t.Fatalf("bit %d should be set", i)
		}
	}
	if m.Has(1) || m.Has(255) {
		t.Fatal("unexpected bits set")
	}
	if set := bits.OnesCount64(m[0]) + bits.OnesCount64(m[1]) + bits.OnesCount64(m[2]) + bits.OnesCount64(m[3]); set != 4 {
		t.Fatalf("%d bits set, want 4", set)
	}
	b := MaskOfBools([]bool{true, false, true})
	if b != MaskOf(0, 2) {
		t.Fatalf("MaskOfBools mismatch: %v", b)
	}
}

func TestMaskOutOfRangePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Set(256) did not panic")
		}
	}()
	var m Mask
	m.Set(256)
}

// TestLRUEvictionOrder checks true least-recently-used behavior through
// the one entry point: a hit promotes, a fill evicts from the cold end,
// and the eviction order reflects accesses rather than insertion alone.
func TestLRUEvictionOrder(t *testing.T) {
	l := NewLRU[Mask, int](3)
	// touch returns whether key i was cached, filling it when it was not.
	touch := func(i int) bool {
		hit := true
		v, err := l.GetOrCompute(MaskOf(i), func() (int, error) { hit = false; return i, nil })
		if err != nil || v != i {
			t.Fatalf("GetOrCompute(%d) = %d, %v", i, v, err)
		}
		return hit
	}
	for i := 1; i <= 3; i++ {
		if touch(i) {
			t.Fatalf("%d cached before its first fill", i)
		}
	}
	// Touch 1 so 2 becomes the coldest entry; filling 4 evicts it.
	if !touch(1) {
		t.Fatal("1 should be cached")
	}
	touch(4)
	if l.Len() != 3 {
		t.Fatalf("Len = %d, want 3", l.Len())
	}
	for _, i := range []int{1, 3, 4} {
		if !touch(i) {
			t.Fatalf("%d should still be cached", i)
		}
	}
	// Recency is now 4, 3, 1 from hot to cold: refilling 2 evicts 1 and
	// nothing else.
	if touch(2) {
		t.Fatal("2 should have been evicted")
	}
	if !touch(3) || !touch(4) || touch(1) {
		t.Fatal("refilling 2 should have evicted 1, the coldest entry")
	}
}

// TestLRUGetAllocs locks in the allocation-free lookup path: a hit may
// not allocate, in particular the Mask key must not escape to the heap
// the way the old fmt.Sprint keys did.
func TestLRUGetAllocs(t *testing.T) {
	l := NewLRU[Mask, *int](8)
	v := 42
	hit := MaskOf(1, 9, 17)
	fill := func() (*int, error) { return &v, nil }
	if _, err := l.GetOrCompute(hit, fill); err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(200, func() {
		if got, _ := l.GetOrCompute(hit, fill); got != &v {
			t.Fatal("expected hit")
		}
	}); n != 0 {
		t.Fatalf("GetOrCompute (hit) allocates %v times per call, want 0", n)
	}
}

func TestLRUGetOrCompute(t *testing.T) {
	l := NewLRU[Mask, int](2)
	calls := 0
	f := func() (int, error) { calls++; return 7, nil }
	for i := 0; i < 3; i++ {
		v, err := l.GetOrCompute(MaskOf(5), f)
		if err != nil || v != 7 {
			t.Fatalf("GetOrCompute = %d, %v", v, err)
		}
	}
	if calls != 1 {
		t.Fatalf("compute ran %d times, want 1", calls)
	}
}

// TestLRUGetOrComputeSingleflight: concurrent misses on one key run the
// compute function exactly once; every caller receives the same value.
func TestLRUGetOrComputeSingleflight(t *testing.T) {
	l := NewLRU[Mask, *int](4)
	var calls int32
	started := make(chan struct{})
	release := make(chan struct{})
	compute := func() (*int, error) {
		if atomic.AddInt32(&calls, 1) == 1 {
			close(started)
		}
		<-release
		v := 99
		return &v, nil
	}

	const waiters = 8
	results := make(chan *int, waiters)
	for i := 0; i < waiters; i++ {
		go func() {
			v, err := l.GetOrCompute(MaskOf(3), compute)
			if err != nil {
				t.Error(err)
			}
			results <- v
		}()
	}
	<-started // the leader is inside compute; everyone else must wait
	close(release)

	var first *int
	for i := 0; i < waiters; i++ {
		v := <-results
		if first == nil {
			first = v
		} else if v != first {
			t.Fatal("waiters received distinct values")
		}
	}
	if n := atomic.LoadInt32(&calls); n != 1 {
		t.Fatalf("compute ran %d times, want 1", n)
	}
}

// TestLRUGetOrComputeErrorNotCached: a failed fill is retried by the next
// caller rather than poisoning the key.
func TestLRUGetOrComputeError(t *testing.T) {
	l := NewLRU[Mask, int](2)
	calls := 0
	boom := errors.New("boom")
	fail := func() (int, error) { calls++; return 0, boom }
	if _, err := l.GetOrCompute(MaskOf(1), fail); err != boom {
		t.Fatalf("err = %v, want boom", err)
	}
	if _, err := l.GetOrCompute(MaskOf(1), fail); err != boom {
		t.Fatalf("err = %v, want boom", err)
	}
	if calls != 2 {
		t.Fatalf("compute ran %d times, want 2 (errors are not cached)", calls)
	}
	if l.Len() != 0 {
		t.Fatalf("Len = %d after failed fills, want 0", l.Len())
	}
}

// TestLRUGetOrComputePanic: a panicking fill propagates on the leader,
// unblocks waiters with an error, and leaves the cache usable.
func TestLRUGetOrComputePanic(t *testing.T) {
	l := NewLRU[Mask, int](2)
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("panic did not propagate")
			}
		}()
		l.GetOrCompute(MaskOf(2), func() (int, error) { panic("kaboom") })
	}()
	v, err := l.GetOrCompute(MaskOf(2), func() (int, error) { return 5, nil })
	if err != nil || v != 5 {
		t.Fatalf("GetOrCompute after panic = %d, %v", v, err)
	}
}

// TestLRUConcurrent drives mixed hits, misses and evictions (64 keys, 32
// slots) from many goroutines; meaningful mostly under -race.
func TestLRUConcurrent(t *testing.T) {
	s := NewLRU[Mask, int](32)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				key := MaskOf((w*7 + i) % 64)
				want := (w*7 + i) % 64
				v, err := s.GetOrCompute(key, func() (int, error) { return want, nil })
				if err != nil || v != want {
					t.Errorf("GetOrCompute = %d, %v; want %d", v, err, want)
					return
				}
			}
		}()
	}
	wg.Wait()
}
