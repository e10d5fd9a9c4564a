package simclock

import (
	"testing"
	"time"
)

func TestEventOrdering(t *testing.T) {
	s := New()
	var order []int
	s.After(3*time.Second, func() { order = append(order, 3) })
	s.After(1*time.Second, func() { order = append(order, 1) })
	s.After(2*time.Second, func() { order = append(order, 2) })
	end := s.Run()
	if end != 3*time.Second {
		t.Fatalf("end = %v", end)
	}
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Fatalf("order = %v", order)
	}
}

func TestSameInstantFIFO(t *testing.T) {
	s := New()
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		s.At(time.Second, func() { order = append(order, i) })
	}
	s.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("same-instant events fired out of order: %v", order)
		}
	}
}

func TestNestedScheduling(t *testing.T) {
	s := New()
	var hits []Time
	s.After(time.Second, func() {
		hits = append(hits, s.Now())
		s.After(2*time.Second, func() {
			hits = append(hits, s.Now())
		})
	})
	s.Run()
	if len(hits) != 2 || hits[0] != time.Second || hits[1] != 3*time.Second {
		t.Fatalf("hits = %v", hits)
	}
}

func TestSchedulingIntoPastPanics(t *testing.T) {
	s := New()
	s.After(time.Second, func() {
		defer func() {
			if recover() == nil {
				t.Error("scheduling into the past did not panic")
			}
		}()
		s.At(0, func() {})
	})
	s.Run()
}

func TestNegativeDelayClamped(t *testing.T) {
	s := New()
	fired := false
	s.After(-5*time.Second, func() { fired = true })
	s.Run()
	if !fired || s.Now() != 0 {
		t.Fatal("negative delay should fire at now")
	}
}

func TestRunUntil(t *testing.T) {
	s := New()
	count := 0
	for i := 1; i <= 5; i++ {
		s.At(Time(i)*time.Second, func() { count++ })
	}
	s.RunUntil(3 * time.Second)
	if count != 3 {
		t.Fatalf("count = %d, want 3", count)
	}
	if s.Now() != 3*time.Second {
		t.Fatalf("now = %v", s.Now())
	}
	if len(s.heap) != 2 {
		t.Fatalf("pending = %d", len(s.heap))
	}
}

func TestQueueSingleServerSerializes(t *testing.T) {
	s := New()
	q := s.NewQueue(1)
	var finish []Time
	for i := 0; i < 3; i++ {
		q.Submit(10*time.Second, func() { finish = append(finish, s.Now()) })
	}
	s.Run()
	want := []Time{10 * time.Second, 20 * time.Second, 30 * time.Second}
	for i := range want {
		if finish[i] != want[i] {
			t.Fatalf("finish = %v", finish)
		}
	}
	if q.JobsServed != 3 {
		t.Fatalf("JobsServed = %d", q.JobsServed)
	}
	if q.TotalWaiting() != 30*time.Second { // 0 + 10 + 20
		t.Fatalf("TotalWaiting = %v", q.TotalWaiting())
	}
}

func TestQueueParallelServers(t *testing.T) {
	s := New()
	q := s.NewQueue(2)
	var finish []Time
	for i := 0; i < 4; i++ {
		q.Submit(10*time.Second, func() { finish = append(finish, s.Now()) })
	}
	s.Run()
	// Two run immediately, two queue behind them.
	want := []Time{10 * time.Second, 10 * time.Second, 20 * time.Second, 20 * time.Second}
	for i := range want {
		if finish[i] != want[i] {
			t.Fatalf("finish = %v", finish)
		}
	}
}

func TestQueueBusyTime(t *testing.T) {
	s := New()
	q := s.NewQueue(1)
	q.Submit(3*time.Second, nil)
	q.Submit(4*time.Second, nil)
	s.Run()
	if q.BusyTime != 7*time.Second {
		t.Fatalf("BusyTime = %v", q.BusyTime)
	}
}

func TestQueueInterleavedSubmission(t *testing.T) {
	s := New()
	q := s.NewQueue(1)
	var finish []Time
	q.Submit(5*time.Second, func() { finish = append(finish, s.Now()) })
	s.After(1*time.Second, func() {
		q.Submit(5*time.Second, func() { finish = append(finish, s.Now()) })
	})
	s.Run()
	if finish[0] != 5*time.Second || finish[1] != 10*time.Second {
		t.Fatalf("finish = %v", finish)
	}
}

func TestJoin(t *testing.T) {
	fired := 0
	j := NewJoin(3, func() { fired++ })
	j.Done()
	j.Done()
	if fired != 0 {
		t.Fatal("join fired early")
	}
	j.Done()
	if fired != 1 {
		t.Fatal("join did not fire")
	}
}

func TestJoinZero(t *testing.T) {
	fired := false
	NewJoin(0, func() { fired = true })
	if !fired {
		t.Fatal("zero join must fire immediately")
	}
}

func TestJoinOverDonePanics(t *testing.T) {
	j := NewJoin(1, nil)
	j.Done()
	defer func() {
		if recover() == nil {
			t.Fatal("extra Done did not panic")
		}
	}()
	j.Done()
}

func TestDeterminism(t *testing.T) {
	run := func() []Time {
		s := New()
		q := s.NewQueue(2)
		var finish []Time
		for i := 0; i < 20; i++ {
			d := Time(i%5+1) * time.Second
			s.After(Time(i)*time.Second/2, func() {
				q.Submit(d, func() { finish = append(finish, s.Now()) })
			})
		}
		s.Run()
		return finish
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatal("different lengths")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("non-deterministic run")
		}
	}
}
