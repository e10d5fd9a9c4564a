package codecache

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"repro/internal/erasure"

	_ "repro/internal/erasure/clay"
	_ "repro/internal/erasure/lrc"
	_ "repro/internal/erasure/reedsolomon"
	_ "repro/internal/erasure/shec"
)

// geometries mirrors the conformance backend sweep: one spec per plugin
// family, sized so every code path (locality, sub-packetization,
// shingling) is exercised.
var geometries = []struct {
	plugin  string
	k, m, d int
}{
	{"jerasure_reed_sol_van", 6, 3, 0},
	{"jerasure_cauchy_orig", 6, 3, 0},
	{"clay", 4, 2, 5},
	{"lrc", 8, 2, 2},
	{"shec", 6, 4, 2},
}

func TestSharedInstancePerSpec(t *testing.T) {
	reset()
	defer reset()
	for _, g := range geometries {
		a, err := Get(g.plugin, g.k, g.m, g.d)
		if err != nil {
			t.Fatalf("Get(%s): %v", g.plugin, err)
		}
		b, err := Get(g.plugin, g.k, g.m, g.d)
		if err != nil {
			t.Fatalf("Get(%s) again: %v", g.plugin, err)
		}
		if a != b {
			t.Errorf("%s: repeated Get returned distinct instances", g.plugin)
		}
	}
	if h, m := Stats(); h != int64(len(geometries)) || m != int64(len(geometries)) {
		t.Errorf("Stats = (%d, %d), want (%d, %d)", h, m, len(geometries), len(geometries))
	}
	if len(entries) != len(geometries) {
		t.Errorf("%d specs constructed, want %d", len(entries), len(geometries))
	}
}

func TestConstructionErrorCached(t *testing.T) {
	reset()
	defer reset()
	if _, err := Get("clay", 4, 2, 3); err == nil { // clay requires d = k+m-1
		t.Fatal("expected construction error")
	}
	if _, err := Get("clay", 4, 2, 3); err == nil {
		t.Fatal("expected cached construction error")
	}
}

// reset drops all shared instances and counters, so a test starts from an
// empty registry. Codes handed out before keep working; they just stop
// being shared with later callers.
func reset() {
	mu.Lock()
	defer mu.Unlock()
	entries = map[Spec]*entry{}
	hits, misses = 0, 0
}

// patternsFor returns recoverable erasure patterns covering single and
// multi failures across data and parity shards.
func patternsFor(code erasure.Code) [][]int {
	n := code.N()
	var out [][]int
	for i := 0; i < n; i++ {
		out = append(out, []int{i})
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if erasure.CanRecover(code, []int{i, j}) {
				out = append(out, []int{i, j})
			}
		}
	}
	return out
}

func encoded(t *testing.T, code erasure.Code, rng *rand.Rand) [][]byte {
	t.Helper()
	size := 64 * code.SubChunks()
	shards := make([][]byte, code.N())
	for i := 0; i < code.K(); i++ {
		shards[i] = make([]byte, size)
		rng.Read(shards[i])
	}
	if err := code.Encode(shards); err != nil {
		t.Fatalf("encode: %v", err)
	}
	return shards
}

// TestSharedCodeStress hammers one registry-shared code from many
// goroutines across distinct erasure patterns, asserting byte-identity
// with a cold private instance. Run under -race this is the concurrency
// proof for the shared plan/solver/program caches.
func TestSharedCodeStress(t *testing.T) {
	reset()
	defer reset()
	const goroutines = 16
	const iters = 8
	for _, g := range geometries {
		g := g
		t.Run(fmt.Sprintf("%s_%d_%d_%d", g.plugin, g.k, g.m, g.d), func(t *testing.T) {
			shared, err := Get(g.plugin, g.k, g.m, g.d)
			if err != nil {
				t.Fatal(err)
			}
			cold, err := erasure.New(g.plugin, g.k, g.m, g.d)
			if err != nil {
				t.Fatal(err)
			}
			golden := encoded(t, cold, rand.New(rand.NewSource(42)))
			patterns := patternsFor(cold)
			var wg sync.WaitGroup
			errc := make(chan error, goroutines)
			for w := 0; w < goroutines; w++ {
				w := w
				wg.Add(1)
				go func() {
					defer wg.Done()
					for it := 0; it < iters; it++ {
						failed := patterns[(w*iters+it)%len(patterns)]
						if err := checkPattern(shared, cold, golden, failed); err != nil {
							errc <- fmt.Errorf("worker %d pattern %v: %w", w, failed, err)
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
		})
	}
}

// checkPattern exercises RepairPlan, Repair, and Decode on the shared
// instance and compares every reconstructed byte (and the plan) against
// the cold private instance.
func checkPattern(shared, cold erasure.Code, golden [][]byte, failed []int) error {
	sp, err := shared.RepairPlan(failed)
	if err != nil {
		return fmt.Errorf("shared RepairPlan: %w", err)
	}
	cp, err := cold.RepairPlan(failed)
	if err != nil {
		return fmt.Errorf("cold RepairPlan: %w", err)
	}
	if !reflect.DeepEqual(sp, cp) {
		return fmt.Errorf("plans diverge: shared %+v cold %+v", sp, cp)
	}

	work := make([][]byte, len(golden))
	copy(work, golden)
	for _, f := range failed {
		work[f] = nil
	}
	if err := shared.Repair(work, failed); err != nil {
		return fmt.Errorf("shared Repair: %w", err)
	}
	for _, f := range failed {
		if !bytes.Equal(work[f], golden[f]) {
			return fmt.Errorf("Repair shard %d diverges from cold encode", f)
		}
	}

	dec := make([][]byte, len(golden))
	copy(dec, golden)
	for _, f := range failed {
		dec[f] = nil
	}
	if err := shared.Decode(dec); err != nil {
		return fmt.Errorf("shared Decode: %w", err)
	}
	for i := range golden {
		if !bytes.Equal(dec[i], golden[i]) {
			return fmt.Errorf("Decode shard %d diverges from cold encode", i)
		}
	}
	return nil
}
