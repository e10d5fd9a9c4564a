package clay

import (
	"bytes"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"testing"

	"repro/internal/gf256"
)

// recovered runs call on a copy of orig with the shards in erase set to
// nil and returns the shard set the call left.
func recovered(t *testing.T, c *Clay, orig [][]byte, erase []int, call func(*Clay, [][]byte) error) [][]byte {
	t.Helper()
	work := make([][]byte, len(orig))
	copy(work, orig)
	for _, e := range erase {
		work[e] = nil
	}
	if err := call(c, work); err != nil {
		t.Fatal(err)
	}
	return work
}

// TestDirtyScratchIsNeverRead: a slab comes back from the pool holding the
// last call's bytes, and only the zero window is cleared on reuse. Starting
// from a 0xA5-poisoned slab, every Encode, Decode, single repair by each
// formulation and multi-failure Repair on one instance, with shard sizes
// falling and then rising (so a larger call's leftovers sit under a
// smaller one), on every backend (the word kernels take the padded detour
// at odd sub-chunks), must recover the erased bytes exactly, as a cold
// instance running per plane does. The shortened code (k=4, m=3: nine
// grid nodes for seven shards) carves the zero window.
func TestDirtyScratchIsNeverRead(t *testing.T) {
	perPlane := func(c *Clay, s [][]byte) error { perPlaneDecode(t, c, s); return nil }
	for _, backend := range gf256.Backends() {
		restore, err := gf256.SetBackend(backend)
		if err != nil {
			t.Fatal(err)
		}
		for _, sh := range []struct{ k, m int }{{9, 3}, {4, 3}} {
			hot, err := New(sh.k, sh.m, sh.k+sh.m-1)
			if err != nil {
				t.Fatal(err)
			}
			cold, err := New(sh.k, sh.m, sh.k+sh.m-1)
			if err != nil {
				t.Fatal(err)
			}
			k, n := hot.K(), hot.N()
			poison := bytes.Repeat([]byte{0xA5}, 1<<20)
			scratch.Put(&poison)
			for _, scs := range []int{200, 51, 8, 3, 1, 3, 8, 51, 200} {
				orig := randShards(t, cold, scs, int64(scs))
				type step struct {
					name      string
					erase     []int
					call, ref func(*Clay, [][]byte) error
				}
				repair := func(failed ...int) func(*Clay, [][]byte) error {
					return func(c *Clay, s [][]byte) error { return c.Repair(s, failed) }
				}
				repairAs := func(f int, strided bool) func(*Clay, [][]byte) error {
					return func(c *Clay, s [][]byte) error { return c.repairWith(s, f, scs, strided) }
				}
				calls := []step{
					{"encode", []int{k, n - 1}, (*Clay).Encode, perPlane},
					{"decode", []int{1, k}, (*Clay).Decode, perPlane},
					{"decode column", []int{0, 1, 2}, (*Clay).Decode, perPlane},
					{"repair multi", []int{0, n - 1}, repair(0, n-1), perPlane},
				}
				for _, f := range []int{0, k - 1, k, n - 1} {
					calls = append(calls,
						step{fmt.Sprintf("repair %d strided", f), []int{f}, repairAs(f, true), repairAs(f, false)},
						step{fmt.Sprintf("repair %d per plane", f), []int{f}, repairAs(f, false), repairAs(f, false)})
				}
				for _, cl := range calls {
					got := recovered(t, hot, orig, cl.erase, cl.call)
					want := recovered(t, cold, orig, cl.erase, cl.ref)
					for _, e := range cl.erase {
						if !bytes.Equal(got[e], orig[e]) || !bytes.Equal(got[e], want[e]) {
							t.Fatalf("%s clay(%d,%d) scs=%d %s: shard %d differs from the original or the cold instance",
								backend, k, sh.m, scs, cl.name, e)
						}
					}
				}
			}
		}
		restore()
	}
}

// TestConcurrentCallersGetIndependentSlabs: goroutines sharing one
// instance, each cycling through shard sizes from 4 KiB to 1 MiB so that
// slabs of different sizes are held at once, must each recover exactly
// the bytes a cold instance encoded. Run under -race (scripts/check.sh's
// race leg) this is the proof that no two calls share a slab.
func TestConcurrentCallersGetIndependentSlabs(t *testing.T) {
	shared, err := New(9, 3, 11)
	if err != nil {
		t.Fatal(err)
	}
	cold, err := New(9, 3, 11)
	if err != nil {
		t.Fatal(err)
	}
	unit := 8 * cold.SubChunks()
	var golden [][][]byte
	for i, size := range []int{4 << 10, 64 << 10, 256 << 10, 1 << 20} {
		rng := rand.New(rand.NewSource(int64(i)))
		data := make([][]byte, cold.K())
		for j := range data {
			data[j] = make([]byte, (size+unit-1)/unit*unit)
			rng.Read(data[j])
		}
		golden = append(golden, perPlaneEncode(t, cold, data))
	}

	const goroutines, iters = 4, 4
	var wg sync.WaitGroup
	errc := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for it := 0; it < iters; it++ {
				orig := golden[(g+it)%len(golden)]
				if err := cycleMatches(shared, orig, (g+it)%shared.N()); err != nil {
					errc <- fmt.Errorf("goroutine %d, %d-byte shards: %w", g, len(orig[0]), err)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Error(err)
	}
}

// cycleMatches runs encode, single repair of shard f, a three-erasure
// decode and a two-failure repair of orig's stripe on c and reports the
// first shard that differs from orig.
func cycleMatches(c *Clay, orig [][]byte, f int) error {
	k, n := c.K(), c.N()
	for _, step := range []struct {
		name  string
		erase []int
		call  func([][]byte) error
	}{
		{"encode", []int{k, k + 1, k + 2}, c.Encode},
		{"repair", []int{f}, func(s [][]byte) error { return c.Repair(s, []int{f}) }},
		{"decode", []int{(f + 1) % n, (f + 4) % n, (f + 7) % n}, c.Decode},
		{"repair multi", []int{f, (f + 5) % n}, func(s [][]byte) error { return c.Repair(s, []int{f, (f + 5) % n}) }},
	} {
		work := make([][]byte, n)
		copy(work, orig)
		for _, e := range step.erase {
			work[e] = nil
		}
		if err := step.call(work); err != nil {
			return fmt.Errorf("%s: %w", step.name, err)
		}
		for _, e := range step.erase {
			if !bytes.Equal(work[e], orig[e]) {
				return fmt.Errorf("%s: shard %d differs from the cold encode", step.name, e)
			}
		}
	}
	return nil
}

// allocatedBytes runs f three times and returns the least heap volume one
// run allocated, so a stray background allocation, or a GC that emptied
// the pool, cannot fail a budget.
func allocatedBytes(t *testing.T, f func() error) uint64 {
	t.Helper()
	least := ^uint64(0)
	for i := 0; i < 3; i++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if err := f(); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		least = min(least, after.TotalAlloc-before.TotalAlloc)
	}
	return least
}

// TestClayAllocationBudget keeps Clay's working buffers in the pooled
// slab: a warm call allocates the shards it hands the caller and a few
// kilobytes of headers and plane lists, whatever the shard size. Over
// clay(12,9,11) at 64 KiB and 1 MiB shards an Encode returns 3 parity
// shards, a Decode 3 recovered ones and a Repair 1; beyond those, the
// least of three warm runs allocated at most 3,885 / 3,261 / 1,183 bytes
// (Encode, Decode, Repair by either formulation; the word backends'
// padded detour included). When every call made its own U planes, an
// Encode or Decode allocated 16.0 shard sizes (its 3 outputs, 12 U planes
// and a zero window never read at n = nt) and a per-plane Repair 1.18 to
// 1.21. The budgets sit about 20-25% above the pooled figures. Under the
// race detector sync.Pool drops a quarter of what is put back, so the
// test is skipped there.
func TestClayAllocationBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under the race detector")
	}
	c, err := New(9, 3, 11)
	if err != nil {
		t.Fatal(err)
	}
	repair := func(s [][]byte) error { return c.Repair(s, []int{5}) }
	for _, size := range []int{64 << 10, 1 << 20} {
		scs := size / c.SubChunks()
		orig := randShards(t, c, scs, int64(size))
		shard := uint64(scs * c.SubChunks())
		repairAs := func(strided bool) func([][]byte) error {
			return func(s [][]byte) error { return c.repairWith(s, 5, scs, strided) }
		}
		for _, tc := range []struct {
			name  string
			erase []int
			call  func([][]byte) error
			over  uint64 // budget in bytes beyond the outputs
		}{
			{"Encode", []int{9, 10, 11}, c.Encode, 4_800},
			{"Decode", []int{0, 4, 10}, c.Decode, 4_000},
			{"Repair", []int{5}, repair, 1_450},
			{"Repair strided", []int{5}, repairAs(true), 1_450},
			{"Repair per plane", []int{5}, repairAs(false), 1_450},
		} {
			work := make([][]byte, len(orig))
			got := allocatedBytes(t, func() error {
				copy(work, orig)
				for _, e := range tc.erase {
					work[e] = nil
				}
				return tc.call(work)
			})
			outputs := uint64(len(tc.erase)) * shard
			t.Logf("%d-byte shards, %s: %d bytes, %d beyond the outputs", shard, tc.name, got, got-outputs)
			if got > outputs+tc.over {
				t.Errorf("%d-byte shards, %s allocated %d bytes: %d outputs + %d, budget %d over",
					shard, tc.name, got, outputs, got-outputs, tc.over)
			}
		}
	}
}
