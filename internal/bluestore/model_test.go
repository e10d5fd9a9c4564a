package bluestore

import (
	"bytes"
	"errors"
	"fmt"
	"maps"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/blockdev"
)

// The oracle is the store the base and recovered runs replaced: one
// name-keyed map entry per chunk, bulk-loaded, recovered or neither, and
// all accounting recomputed per chunk from that map. The real store must
// be indistinguishable from it.
type oracleChunk struct {
	size, share int64
	payload     []byte // nil in accounting mode
	corrupted   bool
}

type oracle struct {
	chunks     map[string]oracleChunk
	workingSet int64
}

func (o *oracle) fork() *oracle {
	return &oracle{chunks: maps.Clone(o.chunks), workingSet: o.workingSet}
}

func (o *oracle) dataBytes(cfg Config) (total int64) {
	for _, c := range o.chunks {
		total += (c.size + cfg.MinAllocSize - 1) / cfg.MinAllocSize * cfg.MinAllocSize
	}
	return total
}

// kvFootprint, recordBytes and ecBytes are the three terms of MetaBytes.
func (o *oracle) kvFootprint(cfg Config) int64 {
	var logical int64
	for name := range o.chunks {
		logical += int64(len("o/"+name)) + onodeBytes + 24
	}
	return int64(float64(logical) * kvSpaceAmp)
}

func (o *oracle) recordBytes(cfg Config) (total int64) {
	for _, c := range o.chunks {
		extents := (c.size + blobSize - 1) / blobSize
		csums := (c.size + csumChunkSize - 1) / csumChunkSize
		total += extents*extentEntryBytes + csums*csumEntryBytes
	}
	return total
}

func (o *oracle) ecBytes(cfg Config) (total int64) {
	for _, c := range o.chunks {
		total += int64(ecMetaFraction * float64(c.share))
	}
	return total
}

func (o *oracle) metaBytes(cfg Config) int64 {
	return o.kvFootprint(cfg) + int64(kvSpaceAmp*float64(o.recordBytes(cfg))) + o.ecBytes(cfg)
}

func (o *oracle) accessProfile(cfg Config) (metaHit, kvHit, dataHit float64) {
	kvNeed := float64(o.kvFootprint(cfg)) + kvSpaceAmp*float64(o.recordBytes(cfg)) + float64(o.ecBytes(cfg))
	metaNeed := float64(int64(len(o.chunks)) * onodeBytes)
	dataNeed := float64(o.workingSet)
	total := float64(cfg.CacheBytes)
	var kvCache, metaCache, dataCache float64
	if cfg.Cache.Autotune {
		kvCache, metaCache, dataCache = sliceWaterFill(total, kvNeed, metaNeed, dataNeed)
	} else {
		sum := cfg.Cache.KVRatio + cfg.Cache.MetaRatio + cfg.Cache.DataRatio
		kvCache = total * cfg.Cache.KVRatio / sum
		metaCache = total * cfg.Cache.MetaRatio / sum
		dataCache = total * cfg.Cache.DataRatio / sum
	}
	hit := func(cache, need float64) float64 {
		if need <= 0 || cache/need > 1 {
			return 1
		}
		return cache / need
	}
	return hit(metaCache, metaNeed), hit(kvCache, kvNeed), hit(dataCache, dataNeed)
}

// sliceWaterFill is the slice-based water-filling the array version in
// bluestore.go must match to the bit.
func sliceWaterFill(total float64, needs ...float64) (a, b, c float64) {
	grant := make([]float64, len(needs))
	remainingNeeds := append([]float64(nil), needs...)
	remaining := total
	for iter := 0; iter < 4; iter++ {
		sum := 0.0
		for _, n := range remainingNeeds {
			sum += n
		}
		if sum <= 0 || remaining <= 0 {
			break
		}
		for i, n := range remainingNeeds {
			if n <= 0 {
				continue
			}
			share := remaining * n / sum
			if share > n {
				share = n
			}
			grant[i] += share
			remainingNeeds[i] -= share
		}
		granted := 0.0
		for i := range grant {
			granted += grant[i]
		}
		remaining = total - granted
	}
	return grant[0], grant[1], grant[2]
}

// modelWorld is a root store, the two sibling forks it grows once frozen,
// and one oracle per store.
type modelWorld struct {
	t       *testing.T
	stores  []*Store
	oracles []*oracle
	removed []bool    // the store's device is pulled: every write refuses
	ids     []ChunkID // every id ever used
	runs    []baseRun // every PG shard ever bulk-loaded or declared
	nextObj int
}

var modelSchemes = []CacheConfig{CacheAutotune, CacheKVOptimized, CacheDataOptimized}

func newModelWorld(t *testing.T, scheme byte) *modelWorld {
	dev, err := blockdev.New(64 << 20)
	if err != nil {
		t.Fatal(err)
	}
	// A cache far smaller than the needs, so every hit fraction is < 1
	// and depends on the chunk count and the accounting.
	s := Open(dev, Config{CacheBytes: 8 << 10, Cache: modelSchemes[int(scheme)%len(modelSchemes)]})
	return &modelWorld{t: t, stores: []*Store{s}, oracles: []*oracle{{chunks: map[string]oracleChunk{}}}, removed: []bool{false}}
}

func (w *modelWorld) frozen() bool { return len(w.stores) > 1 }

// pickID returns an id used before, or a fresh one in a PG that may or may
// not have a run on the store.
func (w *modelWorld) pickID(a, b byte) ChunkID {
	if len(w.ids) > 0 && a%4 != 0 {
		return w.ids[(int(a)<<8|int(b))%len(w.ids)]
	}
	id := ChunkID{Pool: "p", PG: 9 + int(a>>2)%3, Object: fmt.Sprintf("solo-%d", b%8), Shard: int(b>>3) % 2}
	w.ids = append(w.ids, id)
	return id
}

var modelSizes = []int64{100, 4096, 5000, 600 << 10}

// newRecords makes one to five new objects in name order, their sizes
// picked by b, in a code of three shards.
func (w *modelWorld) newRecords(b byte) []ObjectRecord {
	var recs []ObjectRecord
	for i := 0; i <= int(b)%5; i++ {
		size := modelSizes[(int(b)+i)%len(modelSizes)]
		recs = append(recs, ObjectRecord{Name: fmt.Sprintf("obj-%07d", w.nextObj), Size: 3 * size, ChunkSize: size})
		w.nextObj++
	}
	return recs
}

// newBulkPG makes newRecords' objects a run of PG pg.
func (w *modelWorld) newBulkPG(pg int, b byte) *BulkPG {
	run, err := NewBulkPG("p", pg, 3, w.newRecords(b))
	if err != nil {
		w.t.Fatal(err)
	}
	return run
}

// addRun records a PG shard and the ids of its chunks, once.
func (w *modelWorld) addRun(r baseRun) {
	if slices.Contains(w.runs, r) {
		return
	}
	w.runs = append(w.runs, r)
	for _, rec := range r.pg.objects {
		w.ids = append(w.ids, ChunkID{Pool: "p", PG: r.pg.pg, Object: rec.Name, Shard: r.shard})
	}
}

// step interprets one (op, a, b) instruction against store `a`-chosen and
// its oracle, requiring both to agree on the outcome.
func (w *modelWorld) step(op, a, b byte) {
	t := w.t
	target := 0
	if w.frozen() {
		target = int(a>>6) % len(w.stores) // 0 is the frozen parent: must refuse
	}
	s, o := w.stores[target], w.oracles[target]
	frozen := w.frozen() && target == 0
	removed := w.removed[target]
	refuses := frozen || removed

	switch op % 10 {
	case 0: // bulk load: a few new objects into one (PG, shard), runs pile up
		if a&0x20 != 0 {
			// A table out of name order, or with a name repeated, is
			// refused before it reaches a store: nothing changes.
			recs := w.newRecords(b)
			if a&0x10 != 0 {
				recs = append(recs, recs[len(recs)-1])
			} else {
				recs = append(w.newRecords(b), recs...) // newer names first
			}
			if _, err := NewBulkPG("p", 9+int(a)%2, 3, recs); err == nil || errors.Is(err, ErrRepeatedName) != (a&0x10 != 0) {
				t.Fatalf("NewBulkPG of %d records out of order or repeated: %v", len(recs), err)
			}
			return
		}
		shard := int(a>>1) % 2
		run := w.newBulkPG(9+int(a)%2, b)
		err := s.WriteChunksBulk(run, shard)
		if (err != nil) != refuses {
			t.Fatalf("WriteChunksBulk: err %v, refuses %v", err, refuses)
		}
		if (s.Writable() != nil) != refuses {
			t.Fatalf("Writable: %v, refuses %v", s.Writable(), refuses)
		}
		w.addRun(baseRun{pg: run, shard: shard})
		if err == nil {
			for _, r := range run.objects {
				id := ChunkID{Pool: "p", PG: run.pg, Object: r.Name, Shard: shard}
				o.chunks[id.String()] = oracleChunk{size: r.ChunkSize, share: r.Size / 3}
			}
		}
	case 1, 2: // write, accounting (1) or payload (2) mode, over anything or nothing
		id := w.pickID(a, b)
		size := modelSizes[int(b)%3]
		var payload []byte
		if op%10 == 2 {
			payload = bytes.Repeat([]byte{b | 1}, int(size))
		}
		err := s.WriteChunk(id, size, size+int64(b), payload)
		if (err != nil) != refuses {
			t.Fatalf("WriteChunk(%s): err %v, refuses %v", id, err, refuses)
		}
		if err == nil {
			o.chunks[id.String()] = oracleChunk{size: size, share: size + int64(b), payload: payload}
		}
	case 3:
		id := w.pickID(a, b)
		c, had := o.chunks[id.String()]
		err := s.CorruptChunk(id)
		switch {
		case frozen:
			if err == nil {
				t.Fatalf("CorruptChunk(%s) on frozen store succeeded", id)
			}
		case removed && had && c.payload != nil:
			// Flipping a payload byte reads the device; a pulled one
			// refuses and the bytes stay as they were.
			if err == nil {
				t.Fatalf("CorruptChunk(%s) of a payload on a removed device succeeded", id)
			}
		case had != (err == nil):
			t.Fatalf("CorruptChunk(%s): had %v, err %v", id, had, err)
		case had:
			// Payload corruption flips one byte, so a second corruption
			// of the same chunk restores it.
			c.corrupted = c.payload == nil || !c.corrupted
			o.chunks[id.String()] = c
		}
	case 4:
		id := w.pickID(a, b)
		c, had := o.chunks[id.String()]
		clean, err := s.ScrubChunk(id)
		if removed && had && c.payload != nil { // a payload scrub reads the device
			had = false
		}
		if had != (err == nil) || (had && clean == c.corrupted) {
			t.Fatalf("ScrubChunk(%s) = %v, %v; oracle had %v corrupted %v", id, clean, err, had, c.corrupted)
		}
	case 5:
		id := w.pickID(a, b)
		c, had := o.chunks[id.String()]
		size, payload, err := s.ReadChunk(id)
		if removed {
			had = false
		}
		if had != (err == nil) {
			t.Fatalf("ReadChunk(%s): had %v, err %v", id, had, err)
		}
		if had && (size != c.size || (c.payload == nil) != (payload == nil)) {
			t.Fatalf("ReadChunk(%s) = %d bytes, payload %v; oracle %d, payload %v", id, size, payload != nil, c.size, c.payload != nil)
		}
		if had && c.payload != nil && !c.corrupted && !bytes.Equal(payload, c.payload) {
			t.Fatalf("ReadChunk(%s) returned other bytes than were written", id)
		}
	case 6:
		if !refuses {
			s.SetDataWorkingSet(int64(b) << 10)
			o.workingSet = int64(b) << 10
		}
	case 7: // freeze the root and grow two sibling forks, once; then b == 255 pulls fork 2's device
		if w.frozen() {
			if b == 255 {
				w.stores[2].Device().Remove()
				w.removed[2] = true
			}
			return
		}
		s.Freeze()
		for i := 0; i < 2; i++ {
			// The second fork changes what a fork may change, the cache
			// scheme and size: it must not inherit the parent's remembered
			// access profile.
			cfg := s.cfg
			if i == 1 {
				cfg.Cache = modelSchemes[(int(a)+1)%len(modelSchemes)]
				cfg.CacheBytes = 12 << 10
			}
			f, err := s.Fork(cfg)
			if err != nil {
				t.Fatal(err)
			}
			w.stores = append(w.stores, f)
			w.oracles = append(w.oracles, o.fork())
			w.removed = append(w.removed, false)
		}
		s.Freeze() // idempotent
	case 8: // declare shard 2, which no store holds, of a new PG or of one met before: invisible, so the oracle ignores it
		var run *BulkPG
		if len(w.runs) > 0 && a&1 == 1 {
			run = w.runs[int(a>>1)%len(w.runs)].pg
		} else {
			run = w.newBulkPG(9+int(a>>1)%2, b)
		}
		if err := s.ExpectRun(run, 2); (err != nil) != frozen {
			t.Fatalf("ExpectRun: err %v, frozen %v", err, frozen)
		}
		w.addRun(baseRun{pg: run, shard: 2})
	case 9: // a recovery write: a chunk of a run, accounting-only, sized as its record says
		if len(w.runs) == 0 {
			return
		}
		r := w.runs[int(a&63)%len(w.runs)]
		rec := &r.pg.objects[int(b)%len(r.pg.objects)]
		id := ChunkID{Pool: "p", PG: r.pg.pg, Object: rec.Name, Shard: r.shard}
		err := s.WriteChunk(id, rec.ChunkSize, rec.Size/3, nil)
		if (err != nil) != refuses {
			t.Fatalf("WriteChunk(%s): err %v, refuses %v", id, err, refuses)
		}
		if err == nil {
			o.chunks[id.String()] = oracleChunk{size: rec.ChunkSize, share: rec.Size / 3}
		}
	}
}

// check compares every store with its oracle: the parent too, so a fork's
// writes showing through to it or to the sibling fail here.
func (w *modelWorld) check(step int) {
	t := w.t
	for i, s := range w.stores {
		o, cfg := w.oracles[i], s.cfg
		if got, want := s.count, len(o.chunks); got != want {
			t.Fatalf("step %d store %d: Chunks %d, oracle %d", step, i, got, want)
		}
		if got, want := s.DataBytes(), o.dataBytes(cfg); got != want {
			t.Fatalf("step %d store %d: DataBytes %d, oracle %d", step, i, got, want)
		}
		if got, want := s.MetaBytes(), o.metaBytes(cfg); got != want {
			t.Fatalf("step %d store %d: MetaBytes %d, oracle %d", step, i, got, want)
		}
		if got, want := s.UsedBytes(), o.dataBytes(cfg)+o.metaBytes(cfg); got != want {
			t.Fatalf("step %d store %d: UsedBytes %d, oracle %d", step, i, got, want)
		}
		// Twice: the store computes its profile on the first call after a
		// change and remembers it for the second; the oracle always
		// recomputes from its chunk map.
		wm, wk, wd := o.accessProfile(cfg)
		for call := 0; call < 2; call++ {
			if gm, gk, gd := s.AccessProfile(); gm != wm || gk != wk || gd != wd {
				t.Fatalf("step %d store %d call %d: AccessProfile (%v,%v,%v), oracle (%v,%v,%v)", step, i, call, gm, gk, gd, wm, wk, wd)
			}
		}
		for _, id := range w.ids {
			c, had := o.chunks[id.String()]
			if s.HasChunk(id) != had {
				t.Fatalf("step %d store %d: HasChunk(%s) = %v, oracle %v", step, i, id, !had, had)
			}
			size, err := s.chunkSize(id)
			if had != (err == nil) || size != c.size {
				t.Fatalf("step %d store %d: ChunkSize(%s) = %d, %v; oracle %d, %v", step, i, id, size, err, c.size, had)
			}
		}
	}
}

// runModel interprets a program: the first byte picks the cache scheme,
// then (op, a, b) triples, the stores checked against their oracles after
// every one.
func runModel(t *testing.T, program []byte) {
	if len(program) == 0 {
		return
	}
	if len(program) > 1+3*400 {
		program = program[:1+3*400] // keeps payload writes inside the device
	}
	w := newModelWorld(t, program[0])
	for i := 1; i+2 < len(program); i += 3 {
		w.step(program[i], program[i+1], program[i+2])
		w.check(i / 3)
	}
}

// modelSeedPrograms reach every op on bulk-loaded chunks, before and
// after the freeze, on both forks.
var modelSeedPrograms = [][]byte{
	// a load, corrupt/rewrite/scrub/read bulk and solo chunks, a rewrite of
	// a corrupted chunk, freeze, then the same on fork 1 (a>>6 == 1) and
	// fork 2 (a>>6 == 2), and writes the parent refuses
	{0, 0, 0, 0, 3, 0, 0, 1, 1, 1, 4, 1, 1, 2, 2, 1, 1, 3, 5, 3, 5, 7, 4, 5, 7, 1, 5, 7, 4, 5, 7,
		5, 6, 3, 6, 0, 9, 7, 0, 0,
		1, 65, 1, 2, 66, 2, 1, 67, 3, 3, 69, 5, 4, 69, 5, 2, 69, 5, 4, 69, 5, 0, 64, 2,
		1, 129, 1, 2, 130, 2, 1, 131, 3, 3, 133, 5, 4, 133, 5, 1, 133, 5, 4, 133, 5, 0, 128, 2,
		1, 1, 1, 1, 2, 2},
	// freeze, load and rewrite on both forks, then ExpectRun on the parent
	// (refused) and on fork 1 ahead of a write and a recovery write
	{1, 7, 0, 0, 0, 64, 3, 0, 128, 4, 1, 65, 0, 1, 129, 0, 8, 0, 7, 8, 65, 200, 1, 65, 9, 9, 66, 0},
	{2, 0, 3, 4, 2, 4, 9, 1, 1, 0, 1, 1, 0, 7, 0, 0, 2, 65, 0, 2, 130, 0, 5, 65, 0, 5, 130, 0},
	// recovered runs: declare a PG shard, write a chunk of it twice (a bit,
	// then an overlay rewrite), write another, corrupt and scrub it, write a
	// third with a size its record does not have; declare a second PG and
	// write one of its chunks, then freeze mid-run and write other chunks
	// of it on the two forks while the parent refuses one; ExpectRun on the
	// parent (refused) and twice on fork 1, which writes the run where fork
	// 2 has none; pull fork 2's device, whose recovery write, bulk load,
	// reads, scrub and corruption then refuse; on fork 1 corrupt a chunk
	// recovered since the fork, scrub it, rewrite it and scrub it again
	{0, 8, 0, 2, 9, 0, 0, 9, 0, 0, 9, 0, 1, 3, 1, 0, 4, 1, 0, 1, 1, 1,
		8, 2, 4, 9, 1, 0, 7, 0, 0, 9, 65, 1, 9, 129, 2, 9, 1, 3,
		8, 0, 0, 8, 65, 0, 8, 65, 0, 9, 66, 0, 9, 130, 0,
		7, 128, 255, 9, 129, 3, 0, 128, 1, 5, 129, 3, 4, 129, 3, 3, 129, 3,
		3, 65, 7, 4, 65, 7, 9, 65, 1, 4, 65, 7},
	// refused loads, out of order (a&0x30 == 0x20) and with a name
	// repeated (0x30), before and after a load that succeeds and reads of
	// its chunks
	{0, 0, 32, 3, 0, 48, 0, 0, 0, 2, 0, 33, 1, 0, 49, 4, 5, 1, 0, 4, 2, 0},
}

func TestStoreMatchesNaiveModel(t *testing.T) {
	for i, p := range modelSeedPrograms {
		t.Run(fmt.Sprintf("seed%d", i), func(t *testing.T) { runModel(t, p) })
	}
	for seed := int64(1); seed <= 20; seed++ {
		t.Run(fmt.Sprintf("random%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			program := make([]byte, 1+3*300)
			rng.Read(program)
			runModel(t, program)
		})
	}
}

func FuzzStoreMatchesNaiveModel(f *testing.F) {
	for _, p := range modelSeedPrograms {
		f.Add(p)
	}
	f.Fuzz(runModel)
}

// The accounted KV key length is arithmetic; it must equal the length of
// the key payload mode really builds, across every digit boundary.
func TestChunkIDKeyLength(t *testing.T) {
	for _, pool := range []string{"", "ecpool"} {
		for _, pg := range []int{0, 9, 10, 99, 100, 9999, 10000} {
			for _, shard := range []int{0, 9, 10} {
				for _, object := range []string{"obj-0000000", "obj-9999999", "obj-10000000", ""} {
					id := ChunkID{Pool: pool, PG: pg, Object: object, Shard: shard}
					if want := fmt.Sprintf("%s/%d/%s/s%d", pool, pg, object, shard); id.String() != want {
						t.Fatalf("String() = %q, want %q", id.String(), want)
					}
					if got, want := id.kvKeyLen(), len("o/"+id.String()); got != want {
						t.Fatalf("%s: kvKeyLen %d, key is %d bytes", id, got, want)
					}
				}
			}
		}
	}
}
