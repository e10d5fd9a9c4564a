package clay

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/erasure"
)

func randShards(t *testing.T, c *Clay, scs int, seed int64) [][]byte {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	size := c.SubChunks() * scs
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

func cloneShards(s [][]byte) [][]byte {
	out := make([][]byte, len(s))
	for i, v := range s {
		if v != nil {
			out[i] = append([]byte(nil), v...)
		}
	}
	return out
}

func TestNewValidation(t *testing.T) {
	if _, err := New(9, 3, 10); err == nil {
		t.Fatal("d != k+m-1 must be rejected")
	}
	if _, err := New(9, 1, 9); err == nil {
		t.Fatal("m=1 must be rejected")
	}
	c, err := New(9, 3, 11)
	if err != nil {
		t.Fatal(err)
	}
	if c.SubChunks() != 81 {
		t.Fatalf("Clay(12,9,11) alpha = %d, want 81 (q=3,t=4)", c.SubChunks())
	}
	if c.Beta() != 27 {
		t.Fatalf("beta = %d, want 27", c.Beta())
	}
}

func TestGeometrySmall(t *testing.T) {
	c, err := New(2, 2, 3)
	if err != nil {
		t.Fatal(err)
	}
	if c.q != 2 || c.t != 2 || c.alpha != 4 || c.nt != 4 || c.kInt != 2 {
		t.Fatalf("unexpected geometry q=%d t=%d alpha=%d nt=%d kInt=%d", c.q, c.t, c.alpha, c.nt, c.kInt)
	}
}

func TestDigitSetDigit(t *testing.T) {
	c, _ := New(9, 3, 11) // q=3, t=4
	for z := 0; z < c.alpha; z++ {
		for y := 0; y < c.t; y++ {
			d := c.digit(z, y)
			if d < 0 || d >= c.q {
				t.Fatalf("digit out of range")
			}
			for v := 0; v < c.q; v++ {
				z2 := c.setDigit(z, y, v)
				if c.digit(z2, y) != v {
					t.Fatalf("setDigit failed")
				}
				// Other digits unchanged.
				for y2 := 0; y2 < c.t; y2++ {
					if y2 != y && c.digit(z2, y2) != c.digit(z, y2) {
						t.Fatalf("setDigit disturbed digit %d", y2)
					}
				}
			}
		}
	}
}

func TestEncodeDecodeRoundTripAllSinglePatterns(t *testing.T) {
	c, err := New(4, 2, 5) // q=2, t=3, alpha=8
	if err != nil {
		t.Fatal(err)
	}
	orig := randShards(t, c, 3, 1)
	for lost := 0; lost < c.N(); lost++ {
		work := cloneShards(orig)
		work[lost] = nil
		if err := c.Decode(work); err != nil {
			t.Fatalf("decode with shard %d lost: %v", lost, err)
		}
		if !bytes.Equal(work[lost], orig[lost]) {
			t.Fatalf("shard %d not recovered correctly", lost)
		}
	}
}

func TestDecodeAllDoublePatterns(t *testing.T) {
	c, err := New(4, 2, 5)
	if err != nil {
		t.Fatal(err)
	}
	orig := randShards(t, c, 2, 7)
	for a := 0; a < c.N(); a++ {
		for b := a + 1; b < c.N(); b++ {
			work := cloneShards(orig)
			work[a], work[b] = nil, nil
			if err := c.Decode(work); err != nil {
				t.Fatalf("decode with %d,%d lost: %v", a, b, err)
			}
			if !bytes.Equal(work[a], orig[a]) || !bytes.Equal(work[b], orig[b]) {
				t.Fatalf("shards %d,%d not recovered", a, b)
			}
		}
	}
}

func TestDecodeTriplePatternsClay12_9(t *testing.T) {
	if testing.Short() {
		t.Skip("exhaustive triple erasure is slow")
	}
	c, err := New(9, 3, 11)
	if err != nil {
		t.Fatal(err)
	}
	orig := randShards(t, c, 1, 99)
	// Sample of triple patterns including all-data, all-parity, mixed.
	patterns := [][]int{
		{0, 1, 2}, {0, 5, 8}, {9, 10, 11}, {0, 9, 11}, {3, 7, 10}, {6, 8, 9},
	}
	for _, p := range patterns {
		work := cloneShards(orig)
		for _, i := range p {
			work[i] = nil
		}
		if err := c.Decode(work); err != nil {
			t.Fatalf("decode %v: %v", p, err)
		}
		for _, i := range p {
			if !bytes.Equal(work[i], orig[i]) {
				t.Fatalf("pattern %v: shard %d wrong", p, i)
			}
		}
	}
}

func TestTooManyErasures(t *testing.T) {
	c, _ := New(4, 2, 5)
	orig := randShards(t, c, 1, 3)
	work := cloneShards(orig)
	work[0], work[1], work[2] = nil, nil, nil
	if err := c.Decode(work); err == nil {
		t.Fatal("expected error with 3 erasures on m=2 code")
	}
}

func TestRepairSingleMatchesOriginal(t *testing.T) {
	c, err := New(9, 3, 11)
	if err != nil {
		t.Fatal(err)
	}
	orig := randShards(t, c, 2, 5)
	for lost := 0; lost < c.N(); lost++ {
		work := cloneShards(orig)
		work[lost] = nil
		if err := c.Repair(work, []int{lost}); err != nil {
			t.Fatalf("repair shard %d: %v", lost, err)
		}
		if !bytes.Equal(work[lost], orig[lost]) {
			t.Fatalf("repair of shard %d produced wrong bytes", lost)
		}
	}
}

// TestOddSubChunkSizePadding drives the 8-byte padding detour with a
// realistic odd sub-chunk size (809 bytes, the 4 KB stripe-unit case:
// 65536/81 rounds to an odd per-plane slice). Encode, repair and full
// decode must all round-trip exactly; the padded word-kernel path and the
// unpadded byte path compute the same elementwise GF arithmetic.
func TestOddSubChunkSizePadding(t *testing.T) {
	c, err := New(9, 3, 11)
	if err != nil {
		t.Fatal(err)
	}
	orig := randShards(t, c, 809, 17)
	for _, lost := range []int{0, 5, 11} {
		work := cloneShards(orig)
		work[lost] = nil
		if err := c.Repair(work, []int{lost}); err != nil {
			t.Fatalf("repair shard %d: %v", lost, err)
		}
		if !bytes.Equal(work[lost], orig[lost]) {
			t.Fatalf("odd-scs repair of shard %d produced wrong bytes", lost)
		}
	}
	work := cloneShards(orig)
	work[2], work[9] = nil, nil
	if err := c.Decode(work); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(work[2], orig[2]) || !bytes.Equal(work[9], orig[9]) {
		t.Fatal("odd-scs double decode produced wrong bytes")
	}
}

// TestRepairReadsOnlyPlannedSubChunks poisons every sub-chunk the repair
// plan does not list; both repair formulations must still reconstruct the
// lost shard exactly.
func TestRepairReadsOnlyPlannedSubChunks(t *testing.T) {
	c, err := New(9, 3, 11)
	if err != nil {
		t.Fatal(err)
	}
	orig := randShards(t, c, 2, 11)
	scs := len(orig[0]) / c.SubChunks()
	for lost := 0; lost < c.N(); lost++ {
		plan, err := c.RepairPlan([]int{lost})
		if err != nil {
			t.Fatal(err)
		}
		planned := map[int]map[int]bool{}
		for _, h := range plan.Helpers {
			sub := map[int]bool{}
			for _, s := range h.SubChunks {
				sub[s] = true
			}
			planned[h.Shard] = sub
		}
		work := cloneShards(orig)
		work[lost] = nil
		for i := range work {
			if i == lost {
				continue
			}
			for z := 0; z < c.SubChunks(); z++ {
				if !planned[i][z] {
					for b := 0; b < scs; b++ {
						work[i][z*scs+b] = 0xEE // poison
					}
				}
			}
		}
		for _, strided := range []bool{true, false} {
			if !bytes.Equal(repairBy(t, c, work, lost, strided), orig[lost]) {
				t.Fatalf("repair of %d (strided=%v) read outside its plan (wrong output)", lost, strided)
			}
		}
	}
}

func TestRepairPlanBandwidth(t *testing.T) {
	c, _ := New(9, 3, 11)
	plan, err := c.RepairPlan([]int{4})
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Helpers) != c.N()-1 {
		t.Fatalf("helpers = %d, want %d", len(plan.Helpers), c.N()-1)
	}
	for _, h := range plan.Helpers {
		if len(h.SubChunks) != c.Beta() {
			t.Fatalf("helper %d reads %d sub-chunks, want beta=%d", h.Shard, len(h.SubChunks), c.Beta())
		}
	}
	// Repair traffic must be (n-1)/q chunks vs Reed-Solomon's k chunks.
	got := plan.ReadFraction()
	want := float64(c.N()-1) / float64(c.q)
	if got != want {
		t.Fatalf("read fraction %.3f, want %.3f", got, want)
	}
	if got >= float64(c.K()) {
		t.Fatal("clay repair should beat RS k-chunk reads")
	}
}

func TestRepairPlanMultiFailureFallsBack(t *testing.T) {
	c, _ := New(9, 3, 11)
	plan, err := c.RepairPlan([]int{2, 7})
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Helpers) != c.N()-2 {
		t.Fatalf("helpers = %d", len(plan.Helpers))
	}
	for _, h := range plan.Helpers {
		if len(h.SubChunks) != c.SubChunks() {
			t.Fatal("multi-failure plan must read all sub-chunks")
		}
		if h.Runs != 1 {
			t.Fatal("full read should be one contiguous run")
		}
	}
}

func TestRepairMultiFailure(t *testing.T) {
	c, _ := New(9, 3, 11)
	orig := randShards(t, c, 1, 13)
	work := cloneShards(orig)
	work[1], work[10] = nil, nil
	if err := c.Repair(work, []int{1, 10}); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(work[1], orig[1]) || !bytes.Equal(work[10], orig[10]) {
		t.Fatal("multi-failure repair wrong")
	}
}

func TestShortenedCode(t *testing.T) {
	// n=11 with m=3: q=3 does not divide 11, so one virtual zero chunk
	// pads the grid.
	c, err := New(8, 3, 10)
	if err != nil {
		t.Fatal(err)
	}
	if c.nt != 12 || c.kInt != 9 {
		t.Fatalf("shortened geometry nt=%d kInt=%d", c.nt, c.kInt)
	}
	orig := randShards(t, c, 1, 21)
	// Single repair.
	work := cloneShards(orig)
	work[5] = nil
	if err := c.Repair(work, []int{5}); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(work[5], orig[5]) {
		t.Fatal("shortened repair wrong")
	}
	// Triple decode.
	work = cloneShards(orig)
	work[0], work[6], work[9] = nil, nil, nil
	if err := c.Decode(work); err != nil {
		t.Fatal(err)
	}
	for _, i := range []int{0, 6, 9} {
		if !bytes.Equal(work[i], orig[i]) {
			t.Fatalf("shortened decode shard %d wrong", i)
		}
	}
}

func TestRunsCountReflectsColumnPosition(t *testing.T) {
	c, _ := New(9, 3, 11) // q=3, t=4
	// Failing a node in grid column y=0 (most significant digit) gives one
	// contiguous run; column y=t-1 gives beta runs.
	plan0, _ := c.RepairPlan([]int{0}) // node 0 -> (x=0, y=0)
	for _, h := range plan0.Helpers {
		if h.Runs != 1 {
			t.Fatalf("y=0 failure: runs=%d, want 1", h.Runs)
		}
	}
	planLast, _ := c.RepairPlan([]int{9}) // parity 0 -> internal 9 -> (x=0,y=3)
	for _, h := range planLast.Helpers {
		if h.Runs != c.Beta() {
			t.Fatalf("y=t-1 failure: runs=%d, want %d", h.Runs, c.Beta())
		}
	}
}

func TestQuickPropertyRoundTrip(t *testing.T) {
	c, err := New(4, 3, 6) // n=7, q=3, nt=9, alpha=27, 2 virtual chunks
	if err != nil {
		t.Fatal(err)
	}
	f := func(seed int64, lossPattern uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		shards := make([][]byte, c.N())
		for i := 0; i < c.K(); i++ {
			shards[i] = make([]byte, c.SubChunks())
			rng.Read(shards[i])
		}
		if err := c.Encode(shards); err != nil {
			return false
		}
		orig := cloneShards(shards)
		// Pick 1..m distinct shards to lose.
		nLost := 1 + int(lossPattern)%c.M()
		perm := rng.Perm(c.N())[:nLost]
		for _, i := range perm {
			shards[i] = nil
		}
		if err := c.Decode(shards); err != nil {
			return false
		}
		for i := range shards {
			if !bytes.Equal(shards[i], orig[i]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestRegistry(t *testing.T) {
	code, err := erasure.New("clay", 9, 3, 0)
	if err != nil {
		t.Fatal(err)
	}
	if code.SubChunks() != 81 {
		t.Fatal("registry clay should default to d=k+m-1")
	}
}

func TestEncodeRejectsBadShardSize(t *testing.T) {
	c, _ := New(4, 2, 5)
	shards := make([][]byte, c.N())
	for i := 0; i < c.K(); i++ {
		shards[i] = make([]byte, 7) // not divisible by alpha=8
	}
	if err := c.Encode(shards); err == nil {
		t.Fatal("expected shard-size error")
	}
}

func BenchmarkClayEncode12_9(b *testing.B) {
	c, _ := New(9, 3, 11)
	size := 81 * 512 // ~40 KiB shards
	shards := make([][]byte, c.N())
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < c.K(); i++ {
		shards[i] = make([]byte, size)
		rng.Read(shards[i])
	}
	b.SetBytes(int64(size * c.K()))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := c.Encode(shards); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkClayRepairSingle12_9(b *testing.B) {
	c, _ := New(9, 3, 11)
	size := 81 * 512
	shards := make([][]byte, c.N())
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < c.K(); i++ {
		shards[i] = make([]byte, size)
		rng.Read(shards[i])
	}
	if err := c.Encode(shards); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(size))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		work := make([][]byte, len(shards))
		copy(work, shards)
		work[3] = nil
		if err := c.Repair(work, []int{3}); err != nil {
			b.Fatal(err)
		}
	}
}
