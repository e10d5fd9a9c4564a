package gensolve

import (
	"bytes"
	"errors"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/erasure"
	"repro/internal/gfmat"
)

// rsGen builds an MDS systematic generator for testing.
func rsGen(n, k int) *gfmat.Matrix { return gfmat.Cauchy(n, k) }

func TestSolverRecoversMDS(t *testing.T) {
	gen := rsGen(8, 5)
	code := NewCode(gen, nil)
	rng := rand.New(rand.NewSource(1))
	data := make([][]byte, 5)
	for i := range data {
		data[i] = make([]byte, 32)
		rng.Read(data[i])
	}
	// Encode all 8 shards.
	shards := make([][]byte, 8)
	for i := 0; i < 8; i++ {
		shards[i] = make([]byte, 32)
		row := gen.Row(i)
		for j := 0; j < 5; j++ {
			for b := 0; b < 32; b++ {
				shards[i][b] ^= mulByte(row[j], data[j][b])
			}
		}
	}
	orig := make([][]byte, 8)
	for i := range shards {
		orig[i] = append([]byte(nil), shards[i]...)
	}
	shards[1], shards[4], shards[7] = nil, nil, nil
	if err := code.Decode(shards); err != nil {
		t.Fatal(err)
	}
	for _, i := range []int{1, 4, 7} {
		if !bytes.Equal(shards[i], orig[i]) {
			t.Fatalf("shard %d wrong", i)
		}
	}
}

func mulByte(a, b byte) byte {
	var p byte
	for b != 0 {
		if b&1 != 0 {
			p ^= a
		}
		hi := a&0x80 != 0
		a <<= 1
		if hi {
			a ^= 0x1d
		}
		b >>= 1
	}
	return p
}

func TestUndecodablePattern(t *testing.T) {
	// A degenerate generator: two identical parity rows.
	gen := gfmat.New(4, 2)
	gen.Set(0, 0, 1)
	gen.Set(1, 1, 1)
	gen.Set(2, 0, 1)
	gen.Set(2, 1, 1)
	gen.Set(3, 0, 1)
	gen.Set(3, 1, 1) // duplicate of row 2
	code := NewCode(gen, nil)
	// Losing both data shards leaves two dependent rows.
	if _, err := code.RepairPlan([]int{0, 1}); !errors.Is(err, erasure.ErrTooManyErasures) {
		t.Fatalf("got %v", err)
	}
	if code.Decodable([]int{0, 1}) {
		t.Fatal("Decodable should be false")
	}
	// Losing one data shard is fine.
	if !code.Decodable([]int{0}) {
		t.Fatal("single loss should recover")
	}
}

func TestSolverCacheReuse(t *testing.T) {
	code := NewCode(rsGen(6, 4), nil)
	a, err := code.RepairPlan([]int{1})
	if err != nil {
		t.Fatal(err)
	}
	b, err := code.RepairPlan([]int{1, 1})
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatal("solver not memoized")
	}
}

// lrcLike builds an LRC(6, 2, 2)-shaped code: two XOR local groups of
// three, two Cauchy global parities, and the group XOR as its
// local-repair rule for a single lost data or local-parity shard.
func lrcLike() *Code {
	const k, groupSize = 6, 3
	gen := gfmat.New(10, k)
	for i := 0; i < k; i++ {
		gen.Set(i, i, 1)
		gen.Set(k+i/groupSize, i, 1)
	}
	cauchy := gfmat.Cauchy(k+2, k)
	for g := 0; g < 2; g++ {
		for j := 0; j < k; j++ {
			gen.Set(8+g, j, cauchy.At(k+g, j))
		}
	}
	group := func(s int) []int {
		grp := s / groupSize
		if s >= k {
			grp = s - k
		}
		return []int{grp * groupSize, grp*groupSize + 1, grp*groupSize + 2, k + grp}
	}
	return NewCode(gen, func(lost []int) ([]int, [][]byte) {
		if len(lost) != 1 || lost[0] >= 8 {
			return nil, nil
		}
		var helpers []int
		for _, s := range group(lost[0]) {
			if s != lost[0] {
				helpers = append(helpers, s)
			}
		}
		return helpers, [][]byte{{1, 1, 1}}
	})
}

// TestDecodableBuildsNoSolver pins Decodable as a rank-only answer: it
// agrees with "a solver exists" on every sampled pattern, local-repair
// patterns included, and leaves the solver cache the repair path shares
// empty.
func TestDecodableBuildsNoSolver(t *testing.T) {
	code, oracle := lrcLike(), lrcLike()
	rng := rand.New(rand.NewSource(23))
	fatal := 0
	for i := 0; i < 100; i++ {
		lost := rng.Perm(code.N())[:1+rng.Intn(5)]
		_, err := oracle.RepairPlan(lost)
		if got := code.Decodable(lost); got != (err == nil) {
			t.Fatalf("Decodable(%v) = %v, solver says %v", lost, got, err)
		}
		if err != nil {
			fatal++
		}
	}
	if fatal == 0 || fatal == 100 {
		t.Fatalf("sample is one-sided: %d of 100 patterns fatal", fatal)
	}
	if n := code.solvers.Len(); n != 0 {
		t.Fatalf("Decodable left %d solvers in the cache", n)
	}
	if code.Decodable([]int{-1}) || code.Decodable([]int{code.N()}) {
		t.Fatal("out-of-range index reported decodable")
	}
}

func TestIndependentRowsSelection(t *testing.T) {
	gen := rsGen(8, 5)
	basis, chosen := IndependentRows(gen, []int{0, 1, 2, 3, 4}, 5)
	if basis == nil || len(chosen) != 5 {
		t.Fatal("identity-prefix rows must be independent")
	}
	// Candidates with duplicates of the same row can't reach rank 5.
	_, chosen = IndependentRows(gen, []int{0, 0, 0, 0, 0}, 5)
	if len(chosen) != 1 {
		t.Fatalf("chose %d rows from duplicates", len(chosen))
	}
}

// TestDecodableMatchesFullRank pins Decodable's rank test, which
// eliminates only the surviving parity rows cut to the lost data columns,
// to the full one: the surviving generator rows reach rank k. It checks
// every erasure pattern of the LRC-shaped code (duplicates included once
// per pattern), and random patterns of an MDS code that lose more data
// shards than fit Decodable's stack scratch, and sometimes too many.
func TestDecodableMatchesFullRank(t *testing.T) {
	fullRank := func(c *Code, failed []int) bool {
		var surviving []int
		for i := 0; i < c.N(); i++ {
			if !slices.Contains(failed, i) {
				surviving = append(surviving, i)
			}
		}
		_, chosen := IndependentRows(c.gen, surviving, c.K())
		return len(chosen) == c.K()
	}
	code := lrcLike()
	fatal := 0
	for set := 0; set < 1<<code.N(); set++ {
		var failed []int
		for i := 0; i < code.N(); i++ {
			if set&(1<<i) != 0 {
				failed = append(failed, i)
			}
		}
		if len(failed) > 0 {
			failed = append(failed, failed[0])
		}
		want := fullRank(code, failed)
		if got := code.Decodable(failed); got != want {
			t.Fatalf("Decodable(%v) = %v, full rank says %v", failed, got, want)
		}
		if !want {
			fatal++
		}
	}
	if fatal == 0 {
		t.Fatal("no fatal pattern among all of them")
	}

	wide := NewCode(rsGen(44, 22), nil)
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 200; i++ {
		failed := rng.Perm(wide.K())[:stackLost+1+rng.Intn(wide.K()-stackLost)]
		for _, p := range rng.Perm(wide.M())[:rng.Intn(6)] {
			failed = append(failed, wide.K()+p)
		}
		want := fullRank(wide, failed)
		if got := wide.Decodable(failed); got != want || want != (len(failed) <= wide.M()) {
			t.Fatalf("Decodable(%d failed) = %v, full rank says %v", len(failed), got, want)
		}
	}
}

// TestDecodableAllocatesNothing: sampling patterns (durability's fatality
// profile) must not allocate per pattern.
func TestDecodableAllocatesNothing(t *testing.T) {
	code := lrcLike()
	patterns := [][]int{{0}, {0, 1, 2, 6}, {0, 1, 2, 3}, {9, 8, 5, 4, 3}, {0, 1, 2, 3, 4, 5}}
	allocs := testing.AllocsPerRun(50, func() {
		for _, p := range patterns {
			code.Decodable(p)
		}
	})
	if allocs != 0 {
		t.Fatalf("Decodable allocated %.1f times per round of patterns", allocs)
	}
}
