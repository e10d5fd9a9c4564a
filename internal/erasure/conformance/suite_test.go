package conformance

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/erasure"
)

// Options tunes the suite.
type Options struct {
	// ShardSize is the shard size in bytes; it is rounded up to a
	// multiple of the code's sub-chunk count. Default 4 KiB.
	ShardSize int
	// Seed drives the deterministic payloads.
	Seed int64
	// MaxPatterns bounds how many multi-erasure patterns are exercised.
	MaxPatterns int
}

func (o *Options) defaults() {
	if o.ShardSize <= 0 {
		o.ShardSize = 4096
	}
	if o.MaxPatterns <= 0 {
		o.MaxPatterns = 200
	}
}

// Run executes the full suite against a code.
func Run(t testing.TB, code erasure.Code, opts Options) {
	t.Helper()
	opts.defaults()
	size := roundUp(opts.ShardSize, code.SubChunks())
	rng := rand.New(rand.NewSource(opts.Seed))

	original := encode(t, code, size, rng)
	checkSystematic(t, code)
	checkDecodeNoop(t, code, original)
	checkSingleFailures(t, code, original)
	checkMultiFailures(t, code, original, rng, opts.MaxPatterns)
	checkPlans(t, code)
	checkInvalidIndices(t, code, original)
	checkPoisonedRepair(t, code, original, size)
}

func roundUp(v, to int) int { return (v + to - 1) / to * to }

func cloneShards(s [][]byte) [][]byte {
	out := make([][]byte, len(s))
	for i, v := range s {
		if v != nil {
			out[i] = append([]byte(nil), v...)
		}
	}
	return out
}

func encode(t testing.TB, code erasure.Code, size int, rng *rand.Rand) [][]byte {
	t.Helper()
	shards := make([][]byte, code.N())
	for i := 0; i < code.K(); i++ {
		shards[i] = make([]byte, size)
		rng.Read(shards[i])
	}
	if err := code.Encode(shards); err != nil {
		t.Fatalf("%s: encode: %v", code.Name(), err)
	}
	for i, s := range shards {
		if len(s) != size {
			t.Fatalf("%s: shard %d has %d bytes after encode, want %d", code.Name(), i, len(s), size)
		}
	}
	return shards
}

func checkSystematic(t testing.TB, code erasure.Code) {
	t.Helper()
	// Encode fixed data twice: data shards must pass through unchanged
	// and parities must be deterministic.
	size := 64 * code.SubChunks()
	mk := func() [][]byte {
		shards := make([][]byte, code.N())
		for i := 0; i < code.K(); i++ {
			shards[i] = make([]byte, size)
			for b := range shards[i] {
				shards[i][b] = byte(i*31 + b)
			}
		}
		return shards
	}
	a, b := mk(), mk()
	if err := code.Encode(a); err != nil {
		t.Fatalf("%s: encode: %v", code.Name(), err)
	}
	if err := code.Encode(b); err != nil {
		t.Fatalf("%s: encode: %v", code.Name(), err)
	}
	for i := 0; i < code.K(); i++ {
		for bb := range a[i] {
			if a[i][bb] != byte(i*31+bb) {
				t.Fatalf("%s: encode mutated data shard %d", code.Name(), i)
			}
		}
	}
	for i := range a {
		if !bytes.Equal(a[i], b[i]) {
			t.Fatalf("%s: encode not deterministic at shard %d", code.Name(), i)
		}
	}
}

func checkDecodeNoop(t testing.TB, code erasure.Code, original [][]byte) {
	t.Helper()
	work := cloneShards(original)
	if err := code.Decode(work); err != nil {
		t.Fatalf("%s: decode with no erasures: %v", code.Name(), err)
	}
	for i := range work {
		if !bytes.Equal(work[i], original[i]) {
			t.Fatalf("%s: no-op decode changed shard %d", code.Name(), i)
		}
	}
}

func checkSingleFailures(t testing.TB, code erasure.Code, original [][]byte) {
	t.Helper()
	for f := 0; f < code.N(); f++ {
		if !erasure.CanRecover(code, []int{f}) {
			t.Fatalf("%s: single failure %d not recoverable", code.Name(), f)
		}
		work := cloneShards(original)
		work[f] = nil
		if err := code.Decode(work); err != nil {
			t.Fatalf("%s: decode single %d: %v", code.Name(), f, err)
		}
		if !bytes.Equal(work[f], original[f]) {
			t.Fatalf("%s: decode single %d wrong", code.Name(), f)
		}
		work = cloneShards(original)
		work[f] = nil
		if err := code.Repair(work, []int{f}); err != nil {
			t.Fatalf("%s: repair single %d: %v", code.Name(), f, err)
		}
		if !bytes.Equal(work[f], original[f]) {
			t.Fatalf("%s: repair single %d wrong", code.Name(), f)
		}
	}
}

func checkMultiFailures(t testing.TB, code erasure.Code, original [][]byte, rng *rand.Rand, maxPatterns int) {
	t.Helper()
	n := code.N()
	tried := 0
	for count := 2; count <= code.M() && tried < maxPatterns; count++ {
		for trial := 0; trial < maxPatterns/code.M() && tried < maxPatterns; trial++ {
			failed := rng.Perm(n)[:count]
			tried++
			if !erasure.CanRecover(code, failed) {
				// Non-MDS codes may reject the pattern; decode must too.
				work := cloneShards(original)
				for _, f := range failed {
					work[f] = nil
				}
				if err := code.Decode(work); err == nil {
					t.Fatalf("%s: pattern %v decoded but CanRecover says no", code.Name(), failed)
				}
				continue
			}
			work := cloneShards(original)
			for _, f := range failed {
				work[f] = nil
			}
			if err := code.Decode(work); err != nil {
				t.Fatalf("%s: decode %v: %v", code.Name(), failed, err)
			}
			for _, f := range failed {
				if !bytes.Equal(work[f], original[f]) {
					t.Fatalf("%s: decode %v shard %d wrong", code.Name(), failed, f)
				}
			}
		}
	}
}

func checkPlans(t testing.TB, code erasure.Code) {
	t.Helper()
	for f := 0; f < code.N(); f++ {
		plan, err := code.RepairPlan([]int{f})
		if err != nil {
			t.Fatalf("%s: plan %d: %v", code.Name(), f, err)
		}
		if plan.SubChunkTotal != code.SubChunks() {
			t.Fatalf("%s: plan sub-chunk total %d != alpha %d", code.Name(), plan.SubChunkTotal, code.SubChunks())
		}
		if len(plan.Helpers) == 0 {
			t.Fatalf("%s: plan %d has no helpers", code.Name(), f)
		}
		seen := map[int]bool{}
		for _, h := range plan.Helpers {
			if h.Shard == f {
				t.Fatalf("%s: plan %d reads the failed shard", code.Name(), f)
			}
			if seen[h.Shard] {
				t.Fatalf("%s: plan %d lists helper %d twice", code.Name(), f, h.Shard)
			}
			seen[h.Shard] = true
			if len(h.SubChunks) == 0 || len(h.SubChunks) > code.SubChunks() {
				t.Fatalf("%s: plan %d helper %d reads %d sub-chunks", code.Name(), f, h.Shard, len(h.SubChunks))
			}
			for i := 1; i < len(h.SubChunks); i++ {
				if h.SubChunks[i] <= h.SubChunks[i-1] {
					t.Fatalf("%s: plan %d helper %d sub-chunks not sorted", code.Name(), f, h.Shard)
				}
			}
		}
		// The plan never reads more than a full decode would.
		if plan.ReadFraction() > float64(code.N()-1) {
			t.Fatalf("%s: plan %d reads %.2f chunks", code.Name(), f, plan.ReadFraction())
		}
	}
	if _, err := code.RepairPlan(nil); err != nil {
		t.Fatalf("%s: empty plan: %v", code.Name(), err)
	}
}

// checkInvalidIndices verifies that a failed list naming a shard outside
// [0, N) is an error from RepairPlan and from Repair — never a panic —
// and that the refused Repair leaves the shards as passed in.
func checkInvalidIndices(t testing.TB, code erasure.Code, original [][]byte) {
	t.Helper()
	for _, failed := range [][]int{{-1}, {code.N()}, {99}, {0, 99}} {
		work := cloneShards(original)
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("%s: failed=%v panicked: %v", code.Name(), failed, r)
				}
			}()
			if _, err := code.RepairPlan(failed); err == nil {
				t.Fatalf("%s: RepairPlan accepted failed=%v", code.Name(), failed)
			}
			if err := code.Repair(work, failed); err == nil {
				t.Fatalf("%s: Repair accepted failed=%v", code.Name(), failed)
			}
		}()
		for i := range work {
			if !bytes.Equal(work[i], original[i]) {
				t.Fatalf("%s: refused Repair of %v changed shard %d", code.Name(), failed, i)
			}
		}
	}
}

// checkPoisonedRepair verifies the contract that Repair touches only the
// sub-chunks its plan lists.
func checkPoisonedRepair(t testing.TB, code erasure.Code, original [][]byte, size int) {
	t.Helper()
	sub := size / code.SubChunks()
	for f := 0; f < code.N(); f++ {
		plan, err := code.RepairPlan([]int{f})
		if err != nil {
			t.Fatalf("%s: plan: %v", code.Name(), err)
		}
		planned := map[int]map[int]bool{}
		for _, h := range plan.Helpers {
			set := map[int]bool{}
			for _, s := range h.SubChunks {
				set[s] = true
			}
			planned[h.Shard] = set
		}
		work := cloneShards(original)
		work[f] = nil
		for i := range work {
			if i == f {
				continue
			}
			for z := 0; z < code.SubChunks(); z++ {
				if planned[i] == nil || !planned[i][z] {
					for b := 0; b < sub; b++ {
						work[i][z*sub+b] = 0xEE
					}
				}
			}
		}
		if err := code.Repair(work, []int{f}); err != nil {
			t.Fatalf("%s: poisoned repair %d: %v", code.Name(), f, err)
		}
		if !bytes.Equal(work[f], original[f]) {
			t.Fatalf("%s: repair %d read outside its plan", code.Name(), f)
		}
	}
}

// Describe returns a short identity string for logging.
func Describe(code erasure.Code) string {
	return fmt.Sprintf("%s k=%d m=%d alpha=%d", code.Name(), code.K(), code.M(), code.SubChunks())
}
