package lrc

import (
	"bytes"
	"math/rand"
	"testing"

	"repro/internal/erasure"
)

func newLRC(t *testing.T, k, l, g int) *LRC {
	t.Helper()
	c, err := New(k, l, g)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func encodeRandom(t *testing.T, c *LRC, size int, seed int64) [][]byte {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	shards := make([][]byte, c.N())
	for i := 0; i < c.K(); i++ {
		shards[i] = make([]byte, size)
		rng.Read(shards[i])
	}
	if err := c.Encode(shards); err != nil {
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
	if _, err := New(10, 3, 2); err == nil {
		t.Fatal("l must divide k")
	}
	if _, err := New(0, 1, 1); err == nil {
		t.Fatal("zero k accepted")
	}
	if _, err := New(200, 2, 60); err == nil {
		t.Fatal("n > 256 accepted")
	}
}

func TestGeometry(t *testing.T) {
	c := newLRC(t, 8, 2, 2) // two groups of 4, two global parities
	if c.N() != 12 || c.M() != 4 || c.l != 2 {
		t.Fatalf("geometry: n=%d m=%d", c.N(), c.M())
	}
	if c.groupOf(3) != 0 || c.groupOf(4) != 1 || c.groupOf(8) != 0 || c.groupOf(9) != 1 || c.groupOf(10) != -1 {
		t.Fatal("group mapping wrong")
	}
	members := c.groupMembers(1)
	want := []int{4, 5, 6, 7, 9}
	for i := range want {
		if members[i] != want[i] {
			t.Fatalf("members = %v", members)
		}
	}
}

func TestLocalParityIsXOR(t *testing.T) {
	c := newLRC(t, 4, 2, 1)
	shards := encodeRandom(t, c, 64, 1)
	for grp := 0; grp < 2; grp++ {
		xor := make([]byte, 64)
		for j := grp * 2; j < grp*2+2; j++ {
			for b := range xor {
				xor[b] ^= shards[j][b]
			}
		}
		if !bytes.Equal(xor, shards[4+grp]) {
			t.Fatalf("group %d parity is not the XOR of its members", grp)
		}
	}
}

func TestSingleFailureLocalRepair(t *testing.T) {
	c := newLRC(t, 8, 2, 2)
	orig := encodeRandom(t, c, 256, 2)
	for f := 0; f < c.N(); f++ {
		plan, err := c.RepairPlan([]int{f})
		if err != nil {
			t.Fatal(err)
		}
		if f < c.K()+c.l {
			// Data or local parity: repair stays within the group.
			if len(plan.Helpers) != 4 {
				t.Fatalf("shard %d: local repair should read 4 chunks, reads %d", f, len(plan.Helpers))
			}
		} else {
			if len(plan.Helpers) != c.K() {
				t.Fatalf("global parity %d: should read k chunks", f)
			}
		}
		work := clone(orig)
		work[f] = nil
		if err := c.Repair(work, []int{f}); err != nil {
			t.Fatalf("repair %d: %v", f, err)
		}
		if !bytes.Equal(work[f], orig[f]) {
			t.Fatalf("repair %d wrong bytes", f)
		}
	}
}

func TestLocalRepairBeatsRS(t *testing.T) {
	c := newLRC(t, 12, 3, 2) // groups of 4
	plan, err := c.RepairPlan([]int{5})
	if err != nil {
		t.Fatal(err)
	}
	if got := plan.ReadFraction(); got != 4 {
		t.Fatalf("LRC(12,3,2) single repair reads %.0f chunks, want 4 (vs RS's 12)", got)
	}
}

func TestRepairReadsOnlyPlannedHelpers(t *testing.T) {
	c := newLRC(t, 8, 2, 2)
	orig := encodeRandom(t, c, 64, 3)
	for _, failed := range [][]int{{2}, {9}, {10}, {1, 6}, {0, 1}} {
		plan, err := c.RepairPlan(failed)
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
		if err := c.Repair(work, failed); err != nil {
			t.Fatalf("repair %v: %v", failed, err)
		}
		for _, f := range failed {
			if !bytes.Equal(work[f], orig[f]) {
				t.Fatalf("repair %v consulted unplanned shards (shard %d wrong)", failed, f)
			}
		}
	}
}

func TestDecodeAllPatternsUpToGPlusOne(t *testing.T) {
	// Any g+1 = 3 failures that CanRecover accepts must decode exactly.
	c := newLRC(t, 8, 2, 2)
	orig := encodeRandom(t, c, 32, 4)
	n := c.N()
	recoverable, unrecoverable := 0, 0
	for a := 0; a < n; a++ {
		for b := a + 1; b < n; b++ {
			for d := b + 1; d < n; d++ {
				failed := []int{a, b, d}
				work := clone(orig)
				for _, f := range failed {
					work[f] = nil
				}
				err := c.Decode(work)
				if c.CanRecover(failed) {
					recoverable++
					if err != nil {
						t.Fatalf("CanRecover(%v) but decode failed: %v", failed, err)
					}
					for _, f := range failed {
						if !bytes.Equal(work[f], orig[f]) {
							t.Fatalf("pattern %v decoded wrong", failed)
						}
					}
				} else {
					unrecoverable++
					if err == nil {
						t.Fatalf("pattern %v decoded despite CanRecover false", failed)
					}
				}
			}
		}
	}
	// LRC(8,2,2) meets the Gopalan bound d <= n-k-ceil(k/r)+2 = 4 with
	// equality, so every triple must be recoverable.
	if unrecoverable != 0 {
		t.Fatalf("%d triples unrecoverable; construction should achieve distance 4", unrecoverable)
	}
	t.Logf("triples: %d recoverable, %d not", recoverable, unrecoverable)
}

func TestSomeQuadrupleUnrecoverable(t *testing.T) {
	// Four failures wiping a whole local group (3 data + the local
	// parity... a group has 4 data; take 3 data + local parity + ...) —
	// concretely: a group's 4 data chunks all lost leaves only its XOR
	// parity and 2 globals: 3 equations for 4 unknowns.
	c := newLRC(t, 8, 2, 2)
	if c.CanRecover([]int{0, 1, 2, 3}) {
		t.Fatal("losing a whole 4-chunk group must be unrecoverable with 1 local + 2 global parities")
	}
	// While a spread-out quadruple is recoverable.
	if !c.CanRecover([]int{0, 4, 8, 10}) {
		t.Fatal("one loss per group plus parities should be recoverable")
	}
}

func TestAllDoubleFailuresRecoverable(t *testing.T) {
	// One local parity per group + 2 global parities: every pattern of
	// up to g+1 failures hitting distinct groups must be recoverable;
	// verify the stronger empirical claim that all doubles decode.
	c := newLRC(t, 8, 2, 2)
	orig := encodeRandom(t, c, 16, 5)
	for a := 0; a < c.N(); a++ {
		for b := a + 1; b < c.N(); b++ {
			if !c.CanRecover([]int{a, b}) {
				t.Fatalf("double (%d,%d) not recoverable", a, b)
			}
			work := clone(orig)
			work[a], work[b] = nil, nil
			if err := c.Decode(work); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(work[a], orig[a]) || !bytes.Equal(work[b], orig[b]) {
				t.Fatalf("double (%d,%d) wrong", a, b)
			}
		}
	}
}

func TestMultiFailureDistinctGroupsUsesLocalRepairs(t *testing.T) {
	c := newLRC(t, 12, 3, 2)               // groups of 4 data + 1 local parity
	plan, err := c.RepairPlan([]int{1, 5}) // groups 0 and 1
	if err != nil {
		t.Fatal(err)
	}
	// Each group's 4 surviving members: 8 reads total, below k=12 and
	// confined to the two affected groups.
	if len(plan.Helpers) != 8 {
		t.Fatalf("distinct-group repair reads %d, want 8", len(plan.Helpers))
	}
	for _, h := range plan.Helpers {
		grp := c.groupOf(h.Shard)
		if grp != 0 && grp != 1 {
			t.Fatalf("helper %d outside the affected groups", h.Shard)
		}
	}
}

func TestRegistry(t *testing.T) {
	code, err := erasure.New("lrc", 8, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	if code.N() != 12 {
		t.Fatalf("registry lrc n=%d", code.N())
	}
	if _, err := erasure.New("lrc", 9, 2, 2); err == nil {
		t.Fatal("l=2 does not divide k=9, should error")
	}
}

func TestCanRecoverRejectsOutOfRange(t *testing.T) {
	c := newLRC(t, 4, 2, 1)
	if c.CanRecover([]int{99}) {
		t.Fatal("out of range accepted")
	}
}
