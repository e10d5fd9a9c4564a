package shec

import (
	"bytes"
	"math/rand"
	"testing"

	"repro/internal/erasure"
)

func newSHEC(t *testing.T, k, m, c int) *SHEC {
	t.Helper()
	s, err := New(k, m, c)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func encodeRandom(t *testing.T, s *SHEC, size int, seed int64) [][]byte {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	shards := make([][]byte, s.N())
	for i := 0; i < s.K(); i++ {
		shards[i] = make([]byte, size)
		rng.Read(shards[i])
	}
	if err := s.Encode(shards); err != nil {
		t.Fatal(err)
	}
	return shards
}

func clone(s [][]byte) [][]byte {
	out := make([][]byte, len(s))
	for i, v := range s {
		if v != nil {
			out[i] = append([]byte(nil), v...)
		}
	}
	return out
}

func TestNewValidation(t *testing.T) {
	if _, err := New(0, 1, 1); err == nil {
		t.Fatal("zero k accepted")
	}
	if _, err := New(4, 2, 3); err == nil {
		t.Fatal("c > m accepted")
	}
	if _, err := New(4, 5, 2); err == nil {
		t.Fatal("m > k accepted")
	}
	if _, err := New(200, 60, 30); err == nil {
		t.Fatal("n > 256 accepted")
	}
}

func TestWindowCoverage(t *testing.T) {
	const c = 3
	s := newSHEC(t, 10, 6, c)
	if s.window != 5 {
		t.Fatalf("window = %d, want ceil(10*3/6)=5", s.window)
	}
	// Every data chunk must be covered by at least c parities (the
	// necessary condition for c-durability).
	for d := 0; d < s.K(); d++ {
		if got := len(s.coveredBy(d)); got < c {
			t.Fatalf("chunk %d covered by %d parities, want >= %d", d, got, c)
		}
	}
}

func TestEveryPatternUpToCDecodes(t *testing.T) {
	for _, params := range []struct{ k, m, c int }{
		{6, 4, 2}, {10, 6, 3}, {8, 4, 2},
	} {
		s := newSHEC(t, params.k, params.m, params.c)
		orig := encodeRandom(t, s, 16, 7)
		n := s.N()
		var patterns [][]int
		var rec func(start int, cur []int)
		rec = func(start int, cur []int) {
			if len(cur) > 0 {
				patterns = append(patterns, append([]int(nil), cur...))
			}
			if len(cur) == params.c {
				return
			}
			for i := start; i < n; i++ {
				rec(i+1, append(cur, i))
			}
		}
		rec(0, nil)
		for _, p := range patterns {
			if !s.CanRecover(p) {
				t.Fatalf("shec(%d,%d,%d): designed-durability pattern %v not recoverable", params.k, params.m, params.c, p)
			}
			work := clone(orig)
			for _, f := range p {
				work[f] = nil
			}
			if err := s.Decode(work); err != nil {
				t.Fatalf("pattern %v: %v", p, err)
			}
			for _, f := range p {
				if !bytes.Equal(work[f], orig[f]) {
					t.Fatalf("shec(%d,%d,%d) pattern %v wrong", params.k, params.m, params.c, p)
				}
			}
		}
	}
}

func TestSomeWidePatternsUnrecoverable(t *testing.T) {
	// SHEC is not MDS: some pattern of m failures must be unrecoverable
	// (that is the trade for cheap repair).
	s := newSHEC(t, 10, 6, 3)
	n := s.N()
	found := false
	var rec func(start int, cur []int) bool
	rec = func(start int, cur []int) bool {
		if len(cur) == s.M() {
			return !s.CanRecover(cur)
		}
		for i := start; i < n; i++ {
			if rec(i+1, append(cur, i)) {
				return true
			}
		}
		return false
	}
	found = rec(0, nil)
	if !found {
		t.Fatal("every m-failure pattern recoverable — that would make shec MDS, which it is not designed to be")
	}
}

func TestSingleRepairReadsWindowNotK(t *testing.T) {
	s := newSHEC(t, 10, 6, 3)
	plan, err := s.RepairPlan([]int{4})
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Helpers) != s.window {
		t.Fatalf("single repair reads %d chunks, want window=%d (vs k=%d)", len(plan.Helpers), s.window, s.K())
	}
	if len(plan.Helpers) >= s.K() {
		t.Fatal("shec repair should beat reading k chunks")
	}
}

func TestRepairAllSingles(t *testing.T) {
	s := newSHEC(t, 10, 6, 3)
	orig := encodeRandom(t, s, 128, 9)
	for f := 0; f < s.N(); f++ {
		work := clone(orig)
		work[f] = nil
		if err := s.Repair(work, []int{f}); err != nil {
			t.Fatalf("repair %d: %v", f, err)
		}
		if !bytes.Equal(work[f], orig[f]) {
			t.Fatalf("repair %d wrong", f)
		}
	}
}

func TestRepairReadsOnlyPlannedHelpers(t *testing.T) {
	s := newSHEC(t, 10, 6, 3)
	orig := encodeRandom(t, s, 64, 11)
	for _, failed := range [][]int{{0}, {9}, {12}, {2, 7}, {3, 11, 15}} {
		if !s.CanRecover(failed) {
			continue
		}
		plan, err := s.RepairPlan(failed)
		if err != nil {
			t.Fatal(err)
		}
		planned := map[int]bool{}
		for _, h := range plan.Helpers {
			planned[h.Shard] = true
		}
		work := clone(orig)
		for _, f := range failed {
			work[f] = nil
		}
		for i := range work {
			if work[i] != nil && !planned[i] {
				for b := range work[i] {
					work[i][b] = 0xEE
				}
			}
		}
		if err := s.Repair(work, failed); err != nil {
			t.Fatalf("repair %v: %v", failed, err)
		}
		for _, f := range failed {
			if !bytes.Equal(work[f], orig[f]) {
				t.Fatalf("repair %v consulted unplanned shards", failed)
			}
		}
	}
}

func TestParityRepairUsesOwnWindow(t *testing.T) {
	s := newSHEC(t, 10, 6, 3)
	plan, err := s.RepairPlan([]int{s.K() + 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Helpers) != s.window {
		t.Fatalf("parity repair reads %d, want %d", len(plan.Helpers), s.window)
	}
	for _, h := range plan.Helpers {
		if h.Shard >= s.K() {
			t.Fatal("parity repair should read only data chunks")
		}
	}
}

func TestRegistry(t *testing.T) {
	code, err := erasure.New("shec", 10, 6, 3)
	if err != nil {
		t.Fatal(err)
	}
	if code.N() != 16 || code.Name() != "shec" {
		t.Fatalf("registry shec: n=%d", code.N())
	}
	// d=0 defaults c to ceil(m/2).
	code, err = erasure.New("shec", 10, 6, 0)
	if err != nil {
		t.Fatal(err)
	}
	if w := code.(*SHEC).window; w != 5 {
		t.Fatalf("default c: window = %d, want ceil(10*3/6)=5", w)
	}
}
