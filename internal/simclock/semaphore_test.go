package simclock

import (
	"testing"
	"time"
)

func TestSemaphoreImmediateGrant(t *testing.T) {
	s := New()
	sem := s.NewSemaphore(2)
	granted := 0
	sem.Acquire(func() { granted++ })
	sem.Acquire(func() { granted++ })
	if granted != 2 || sem.held != 2 {
		t.Fatalf("granted=%d held=%d", granted, sem.held)
	}
	sem.Acquire(func() { granted++ })
	if granted != 2 || sem.count != 1 {
		t.Fatalf("third acquire should wait: granted=%d waiting=%d", granted, sem.count)
	}
	sem.Release()
	if granted != 3 || sem.held != 2 {
		t.Fatalf("release should grant the waiter: granted=%d held=%d", granted, sem.held)
	}
}

func TestSemaphoreFIFO(t *testing.T) {
	s := New()
	sem := s.NewSemaphore(1)
	var order []int
	sem.Acquire(func() {})
	for i := 1; i <= 3; i++ {
		i := i
		sem.Acquire(func() { order = append(order, i) })
	}
	for range 3 {
		sem.Release()
	}
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Fatalf("order = %v", order)
	}
}

func TestSemaphoreReleaseWithoutAcquirePanics(t *testing.T) {
	s := New()
	sem := s.NewSemaphore(1)
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	sem.Release()
}

func TestSemaphoreWithSimEvents(t *testing.T) {
	// Two "PGs" needing the same resource: the second starts only after
	// the first releases at t=10s.
	s := New()
	sem := s.NewSemaphore(1)
	var secondStart Time
	sem.Acquire(func() {
		s.After(10*time.Second, func() { sem.Release() })
	})
	sem.Acquire(func() { secondStart = s.Now() })
	s.Run()
	if secondStart != 10*time.Second {
		t.Fatalf("second start = %v", secondStart)
	}
}

func TestSemaphoreCapacityValidation(t *testing.T) {
	s := New()
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	s.NewSemaphore(0)
}

// TestSemaphoreOrderedAcquisitionNoDeadlock models the PG reservation
// pattern: many tasks acquire several semaphores in a global order; all
// must eventually run.
func TestSemaphoreOrderedAcquisitionNoDeadlock(t *testing.T) {
	s := New()
	sems := make([]*Semaphore, 6)
	for i := range sems {
		sems[i] = s.NewSemaphore(1)
	}
	completed := 0
	for task := 0; task < 30; task++ {
		needs := []int{task % 6, (task + 2) % 6, (task + 4) % 6}
		// Sort: global acquisition order.
		for i := 0; i < len(needs); i++ {
			for j := i + 1; j < len(needs); j++ {
				if needs[j] < needs[i] {
					needs[i], needs[j] = needs[j], needs[i]
				}
			}
		}
		var acquire func(i int)
		acquire = func(i int) {
			if i == len(needs) {
				s.After(time.Second, func() {
					for j := len(needs) - 1; j >= 0; j-- {
						sems[needs[j]].Release()
					}
					completed++
				})
				return
			}
			sems[needs[i]].Acquire(func() { acquire(i + 1) })
		}
		acquire(0)
	}
	s.Run()
	if completed != 30 {
		t.Fatalf("completed = %d of 30 (deadlock?)", completed)
	}
}
