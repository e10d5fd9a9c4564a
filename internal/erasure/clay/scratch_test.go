package clay

import (
	"bytes"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"testing"

	"repro/internal/erasure/kernel"
	"repro/internal/gf256"
	"repro/internal/parallel"
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

// TestDirtyScratchIsNeverRead: a slab comes back from the spare stack
// holding the last call's bytes, and only the zero window is cleared on
// reuse. Starting from three 0xA5-poisoned slabs, every Encode, Decode,
// single repair by each formulation and multi-failure Repair on one
// instance, with shard sizes falling and then rising (so a larger call's
// leftovers sit under a smaller one), on every backend (the word kernels
// take the padded detour at odd sub-chunks), must recover exactly the
// erased bytes of a stripe the per-plane encode made; every decode must
// also match a cold instance running per plane. The shortened
// code (k=4, m=3: nine grid nodes for seven shards) carves the zero
// window, and also runs sub-chunks of 2,056 and 4,099 B, which decode in
// two and three column tiles, a partial one last, on three workers, each
// in a slab of its own (4,099 B gathers each tile on the word kernels).
func TestDirtyScratchIsNeverRead(t *testing.T) {
	defer parallel.SetWorkers(parallel.SetWorkers(3))
	perPlane := func(c *Clay, s [][]byte) error { perPlaneDecode(t, c, s); return nil }
	for _, backend := range gf256.Backends() {
		restore, err := gf256.SetBackend(backend)
		if err != nil {
			t.Fatal(err)
		}
		small := []int{200, 51, 8, 3, 1, 3, 8, 51, 200}
		for _, sh := range []struct {
			k, m  int
			sizes []int
		}{{9, 3, small}, {4, 3, append(append([]int{2056}, small...), 4099)}} {
			hot, err := New(sh.k, sh.m, sh.k+sh.m-1)
			if err != nil {
				t.Fatal(err)
			}
			cold, err := New(sh.k, sh.m, sh.k+sh.m-1)
			if err != nil {
				t.Fatal(err)
			}
			k, n := hot.K(), hot.N()
			for range 3 {
				spares.Put(&scratch{bytes: bytes.Repeat([]byte{0xA5}, 1<<20)})
			}
			for _, scs := range sh.sizes {
				orig := perPlaneEncode(t, cold, randShards(t, cold, scs, int64(scs))[:k])
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
						step{fmt.Sprintf("repair %d strided", f), []int{f}, repairAs(f, true), nil},
						step{fmt.Sprintf("repair %d per plane", f), []int{f}, repairAs(f, false), nil})
				}
				for _, cl := range calls {
					got := recovered(t, hot, orig, cl.erase, cl.call)
					want := orig
					if cl.ref != nil {
						want = recovered(t, cold, orig, cl.erase, cl.ref)
					}
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

// TestDecodeBytesIgnoreWorkers: Decode splits the columns into tiles
// that fan out over the worker budget, so Encode and a three-erasure
// Decode at one worker and at three must give the same bytes, at
// sub-chunks of one tile, one tile and a partial one, and codec_stripe's
// 1 MiB shards (seven tiles, the last partial). So must the single Repair
// of every shard (its per-plane solve fans out over the same budget when
// large enough); all of them must give the original's bytes.
func TestDecodeBytesIgnoreWorkers(t *testing.T) {
	c, err := New(9, 3, 11)
	if err != nil {
		t.Fatal(err)
	}
	defer parallel.SetWorkers(parallel.SetWorkers(0))
	for _, scs := range []int{tileBytes, tileBytes + 8, 12952} {
		orig := randShards(t, c, scs, int64(scs))
		var got, fixed [2][][]byte
		for i, workers := range []int{1, 3} {
			parallel.SetWorkers(workers)
			got[i] = recovered(t, c, orig, []int{c.K(), c.K() + 1, c.K() + 2}, (*Clay).Encode)
			got[i] = recovered(t, c, got[i], []int{1, 4, c.N() - 1}, (*Clay).Decode)
			fixed[i] = make([][]byte, c.N())
			for f := range fixed[i] {
				fixed[i][f] = recovered(t, c, orig, []int{f}, func(c *Clay, s [][]byte) error { return c.Repair(s, []int{f}) })[f]
			}
		}
		for e := range orig {
			if !bytes.Equal(got[0][e], got[1][e]) || !bytes.Equal(got[0][e], orig[e]) {
				t.Fatalf("scs=%d: shard %d differs between one worker and three, or from the original", scs, e)
			}
			if !bytes.Equal(fixed[0][e], fixed[1][e]) || !bytes.Equal(fixed[0][e], orig[e]) {
				t.Fatalf("scs=%d: repair of shard %d differs between one worker and three, or from the original", scs, e)
			}
		}
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
// run allocated, so a stray background allocation cannot fail a budget.
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

// TestClayAllocationBudget keeps Clay's working buffers on the spare
// stack: a warm call allocates the shards it hands the caller and a few
// kilobytes of headers and plane lists, whatever the shard size. Over
// clay(12,9,11) at 64 KiB, 1 MiB and 8 MiB shards an Encode returns 3
// parity shards, a Decode 3 recovered ones and a Repair 1. Beyond those,
// with Decode's column tiles at two workers, the least of three warm runs
// allocated at most 1,077 / 1,389 / 1,389 bytes (Encode or Decode at the
// three sizes; the same at 8 MiB as at 1 MiB) and 895 (Repair by either
// formulation). With a sync.Pool slab of full-shard U planes and fresh
// headers per call, Encode and Decode took up to 3,885 and 3,261 bytes,
// and Repair 1,183. When every call made its own U planes, an Encode or
// Decode allocated 16.0 shard sizes and a per-plane Repair 1.18 to 1.21.
// A repair whose slab is larger than the stack keeps (keepMax: strided
// repair forced far past its gate, and the word kernels' padded repair
// detour, whole padded shards) allocates that slab too, and a per-plane
// repair at 8 MiB fans each plane's solve out through Program.Run, so
// their budgets add those bytes. The stack never drops a slab, so the
// budgets hold under the race detector as well.
func TestClayAllocationBudget(t *testing.T) {
	c, err := New(9, 3, 11)
	if err != nil {
		t.Fatal(err)
	}
	defer parallel.SetWorkers(parallel.SetWorkers(2))
	const failed = 5
	for _, size := range []int{64 << 10, 1 << 20, 8 << 20} {
		scs := size / c.SubChunks()
		orig := randShards(t, c, scs, int64(size))
		shard := uint64(scs * c.SubChunks())
		repairAs := func(strided bool) func([][]byte) error {
			return func(s [][]byte) error { return c.repairWith(s, failed, scs, strided) }
		}
		// extra is what a repair allocates besides its headers: a slab
		// too large to keep (in whole 8 KiB pages, as the heap gives a
		// large object) and, per plane, the fan-out of a solve that
		// reaches kernel.Program's parallel threshold (216 to 255 bytes
		// of closures and wait group per Program.Run at two workers).
		_, threshold, _ := kernel.Tuning()
		extra := func(strided bool) uint64 {
			var b uint64
			if n := c.repairNeed(failed, scs, strided); n > c.keepMax() {
				b += uint64(n+8191) &^ 8191
			}
			if !strided && c.m*workWidth(scs) >= threshold {
				b += uint64(c.beta) * 320
			}
			return b
		}
		gate := workWidth(scs) < stridedRepairMax
		for _, tc := range []struct {
			name  string
			erase []int
			call  func([][]byte) error
			over  uint64 // budget in bytes beyond the outputs
		}{
			{"Encode", []int{9, 10, 11}, c.Encode, 4_800},
			{"Decode", []int{0, 4, 10}, c.Decode, 4_000},
			{"Repair", []int{failed}, func(s [][]byte) error { return c.Repair(s, []int{failed}) }, 1_450 + extra(gate)},
			{"Repair strided", []int{failed}, repairAs(true), 1_450 + extra(true)},
			{"Repair per plane", []int{failed}, repairAs(false), 1_450 + extra(false)},
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
