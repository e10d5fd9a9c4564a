package clay

import (
	"bytes"
	"math/rand"
	"testing"

	"repro/internal/parallel"
)

// encodeWith runs a fresh encode of the given data shards under the given
// batching setting and returns the full shard set.
func encodeWith(t *testing.T, c *Clay, data [][]byte, batched bool) [][]byte {
	t.Helper()
	restore := SetBatching(batched)
	defer restore()
	shards := make([][]byte, c.N())
	for i := range data {
		shards[i] = append([]byte(nil), data[i]...)
	}
	if err := c.Encode(shards); err != nil {
		t.Fatal(err)
	}
	return shards
}

// TestBatchedEncodeDecodeRepairIdentity checks that the batched encode is
// byte-identical to the per-plane one, and that every decode pattern up
// to two erasures and every single repair reproduces exactly the bytes it
// erased (the data shards are the input data) under both formulations,
// across shapes and sub-chunk sizes covering the strided and per-run
// kernel routes.
func TestBatchedEncodeDecodeRepairIdentity(t *testing.T) {
	// Lift the repair gate so every sub-chunk size below exercises the
	// batched repair, not the gated fallback.
	defer SetBatchLimits(1 << 30)()

	shapes := []struct{ k, m int }{{4, 2}, {9, 3}, {6, 2}, {2, 2}}
	for _, sh := range shapes {
		c, err := New(sh.k, sh.m, sh.k+sh.m-1)
		if err != nil {
			t.Fatal(err)
		}
		for _, scs := range []int{1, 3, 8, 32, 51, 200} {
			data := make([][]byte, c.K())
			rng := rand.New(rand.NewSource(int64(sh.k*1000 + scs)))
			for i := range data {
				data[i] = make([]byte, c.SubChunks()*scs)
				rng.Read(data[i])
			}
			batched := encodeWith(t, c, data, true)
			baseline := encodeWith(t, c, data, false)
			for i := range batched {
				if !bytes.Equal(batched[i], baseline[i]) {
					t.Fatalf("k=%d m=%d scs=%d: encode shard %d diverges from per-plane path",
						sh.k, sh.m, scs, i)
				}
				if i < c.K() && !bytes.Equal(baseline[i], data[i]) {
					t.Fatalf("k=%d m=%d scs=%d: encode changed data shard %d", sh.k, sh.m, scs, i)
				}
			}

			// Every single- and double-erasure decode.
			for a := 0; a < c.N(); a++ {
				for b := a; b < c.N(); b++ {
					for _, batch := range []bool{true, false} {
						restore := SetBatching(batch)
						work := cloneShards(baseline)
						work[a], work[b] = nil, nil
						err := c.Decode(work)
						restore()
						if err != nil {
							t.Fatal(err)
						}
						for i := range work {
							if !bytes.Equal(work[i], baseline[i]) {
								t.Fatalf("k=%d m=%d scs=%d erase(%d,%d) batch=%v: decode shard %d wrong",
									sh.k, sh.m, scs, a, b, batch, i)
							}
						}
					}
				}
			}

			// Every single repair.
			for f := 0; f < c.N(); f++ {
				for _, batch := range []bool{true, false} {
					restore := SetBatching(batch)
					work := make([][]byte, len(baseline))
					copy(work, baseline)
					work[f] = nil
					err := c.Repair(work, []int{f})
					restore()
					if err != nil {
						t.Fatal(err)
					}
					if !bytes.Equal(work[f], baseline[f]) {
						t.Fatalf("k=%d m=%d scs=%d batch=%v: repair of shard %d wrong",
							sh.k, sh.m, scs, batch, f)
					}
				}
			}
		}
	}
}

// TestBatchingToggle checks the gate plumbing.
func TestBatchingToggle(t *testing.T) {
	if !Batching() {
		t.Fatal("batching is off by default")
	}
	restore := SetBatching(false)
	if Batching() {
		t.Fatal("SetBatching(false) did not disable batching")
	}
	restore()
	if !Batching() {
		t.Fatal("restore did not re-enable batching")
	}
}

// TestBatchLimitsIgnoreWorkerBudget: the batched/per-plane repair choice
// depends on the sub-chunk size only, never on how many workers the
// process may use.
func TestBatchLimitsIgnoreWorkerBudget(t *testing.T) {
	prev := parallel.SetWorkers(1)
	defer parallel.SetWorkers(prev)
	rep := batchRepairLimit()
	parallel.SetWorkers(8)
	if r := batchRepairLimit(); r != rep {
		t.Fatalf("repair gate moved with the worker budget: %d -> %d", rep, r)
	}
}
