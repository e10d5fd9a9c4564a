package bluestore

import (
	"bytes"
	"fmt"
	"slices"
	"strings"
	"testing"

	"repro/internal/blockdev"
)

func newTestStore(t *testing.T) *Store {
	t.Helper()
	dev, err := blockdev.New(64 << 20)
	if err != nil {
		t.Fatal(err)
	}
	return Open(dev, Config{})
}

// TestStoreForkOfFork: any store forks, frozen or not and fork or not,
// and a fork of a fork keeps what it was taken with.
func TestStoreForkOfFork(t *testing.T) {
	s := newTestStore(t)
	if err := s.WriteChunk(cid("a"), 4096, 4096, bytes.Repeat([]byte{1}, 4096)); err != nil {
		t.Fatal(err)
	}
	f, err := s.Fork(s.cfg)
	if err != nil {
		t.Fatal(err)
	}
	f.Freeze()
	ff, err := f.Fork(f.cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Corruption replaces the parent's copy of the chunk's bytes, and the
	// fork of the fork rewrites its own.
	if err := s.CorruptChunk(cid("a")); err != nil {
		t.Fatal(err)
	}
	if err := ff.WriteChunk(cid("a"), 4096, 4096, bytes.Repeat([]byte{2}, 4096)); err != nil {
		t.Fatal(err)
	}
	if _, got, err := f.ReadChunk(cid("a")); err != nil || !bytes.Equal(got, bytes.Repeat([]byte{1}, 4096)) {
		t.Fatalf("frozen fork's chunk changed by its parent or its fork: %v", err)
	}
	if _, got, err := ff.ReadChunk(cid("a")); err != nil || !bytes.Equal(got, bytes.Repeat([]byte{2}, 4096)) {
		t.Fatalf("fork of fork lost its rewrite: %v", err)
	}
	if clean, err := s.ScrubChunk(cid("a")); err != nil || clean {
		t.Fatalf("parent's corruption undone by a fork: clean=%v, %v", clean, err)
	}
}

func TestStoreForkRejectsLayoutChange(t *testing.T) {
	s := newTestStore(t)
	s.Freeze()
	cfg := s.cfg
	cfg.MinAllocSize = 65536
	if _, err := s.Fork(cfg); err == nil {
		t.Fatal("Fork changing MinAllocSize should fail")
	}
	// Cache knobs are recovery-side and may change.
	cfg = s.cfg
	cfg.Cache = CacheKVOptimized
	cfg.CacheBytes = 1 << 30
	f, err := s.Fork(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if f.cfg.Cache != CacheKVOptimized {
		t.Fatal("fork did not take new cache config")
	}
}

func TestFrozenStoreRejectsWrites(t *testing.T) {
	s := newTestStore(t)
	if err := s.WriteChunk(cid("c1"), 4096, 4096, nil); err != nil {
		t.Fatal(err)
	}
	s.Freeze()
	if err := s.WriteChunk(cid("c2"), 4096, 4096, nil); err == nil {
		t.Fatal("WriteChunk on frozen store should fail")
	}
	if err := s.WriteChunk(cid("c1"), 8192, 8192, nil); err == nil {
		t.Fatal("rewrite of c1 on frozen store should fail")
	}
	pg, err := NewBulkPG("", 0, 1, []ObjectRecord{{Name: "c3", Size: 4096, ChunkSize: 4096}})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.ExpectRun(pg, 0); err == nil || !strings.Contains(err.Error(), "ExpectRun on frozen store") {
		t.Fatalf("ExpectRun on frozen store: %v, want the frozen-store error", err)
	}
	// Reads still work, and c1 is as it was written.
	if size, err := s.chunkSize(cid("c1")); s.count != 1 || err != nil || size != 4096 {
		t.Fatalf("frozen store's c1: %d chunks, %d bytes, %v", s.count, size, err)
	}
	if _, _, err := s.ReadChunk(cid("c1")); err != nil {
		t.Fatal(err)
	}
}

func TestStoreForkIsolationPayload(t *testing.T) {
	s := newTestStore(t)
	pay := bytes.Repeat([]byte{7}, 4096)
	if err := s.WriteChunk(cid("obj.a"), 4096, 4096, pay); err != nil {
		t.Fatal(err)
	}
	s.Freeze()
	f1, err := s.Fork(s.cfg)
	if err != nil {
		t.Fatal(err)
	}
	f2, err := s.Fork(s.cfg)
	if err != nil {
		t.Fatal(err)
	}

	// f1 rewrites the chunk with different bytes; f2 corrupts it.
	pay2 := bytes.Repeat([]byte{9}, 4096)
	if err := f1.WriteChunk(cid("obj.a"), 4096, 4096, pay2); err != nil {
		t.Fatal(err)
	}
	if err := f2.CorruptChunk(cid("obj.a")); err != nil {
		t.Fatal(err)
	}

	if _, got, err := s.ReadChunk(cid("obj.a")); err != nil || !bytes.Equal(got, pay) {
		t.Fatalf("parent payload changed: %v", err)
	}
	if _, got, err := f1.ReadChunk(cid("obj.a")); err != nil || !bytes.Equal(got, pay2) {
		t.Fatalf("f1 payload wrong: %v", err)
	}
	if clean, err := f2.ScrubChunk(cid("obj.a")); err != nil || clean {
		t.Fatalf("f2's corruption scrubs clean=%v, %v", clean, err)
	}
	for _, st := range []*Store{s, f1} {
		if clean, err := st.ScrubChunk(cid("obj.a")); err != nil || !clean {
			t.Fatalf("f2's corruption leaked: clean=%v, %v", clean, err)
		}
	}
}

func TestStoreForkAccountingMatchesFresh(t *testing.T) {
	// Populate two identical stores; freeze and fork one, then apply the
	// same recovery-style mutations to the fork and to the fresh store.
	// All externally observable accounting must stay bit-identical.
	populate := func(s *Store) {
		var objs []ObjectRecord
		for i := 0; i < 100; i++ {
			objs = append(objs, ObjectRecord{
				Name:      "obj" + string(rune('a'+i%26)) + string(rune('0'+i/26)),
				Size:      18204,
				ChunkSize: 16384,
			})
		}
		// A BulkPG is a name-ordered table: obja0, obja1, ..., objz3.
		slices.SortFunc(objs, func(a, b ObjectRecord) int { return strings.Compare(a.Name, b.Name) })
		pg, err := NewBulkPG("", 0, 1, objs)
		if err != nil {
			t.Fatal(err)
		}
		if err := s.WriteChunksBulk(pg, 0); err != nil {
			t.Fatal(err)
		}
	}
	fresh := newTestStore(t)
	populate(fresh)

	parent := newTestStore(t)
	populate(parent)
	parent.Freeze()
	fork, err := parent.Fork(parent.cfg)
	if err != nil {
		t.Fatal(err)
	}

	mutate := func(s *Store) {
		// Recovery writes a reconstructed chunk and reads helpers.
		if err := s.WriteChunk(cid("obja0"), 16384, 18204, nil); err != nil {
			t.Fatal(err)
		}
		if err := s.Device().AccountRead(2048); err != nil {
			t.Fatal(err)
		}
		if _, _, err := s.ReadChunk(cid("objc0")); err != nil {
			t.Fatal(err)
		}
		s.SetDataWorkingSet(1 << 20)
	}
	mutate(fresh)
	mutate(fork)

	if fresh.count != fork.count {
		t.Fatalf("count %d vs %d", fresh.count, fork.count)
	}
	if fresh.DataBytes() != fork.DataBytes() {
		t.Fatalf("DataBytes %d vs %d", fresh.DataBytes(), fork.DataBytes())
	}
	if fresh.MetaBytes() != fork.MetaBytes() {
		t.Fatalf("MetaBytes %d vs %d", fresh.MetaBytes(), fork.MetaBytes())
	}
	if fresh.UsedBytes() != fork.UsedBytes() {
		t.Fatalf("UsedBytes %d vs %d", fresh.UsedBytes(), fork.UsedBytes())
	}
	fm, fk, fd := fresh.AccessProfile()
	gm, gk, gd := fork.AccessProfile()
	if fm != gm || fk != gk || fd != gd {
		t.Fatalf("AccessProfile (%v,%v,%v) vs (%v,%v,%v)", fm, fk, fd, gm, gk, gd)
	}
	if fresh.Device().Snapshot() != fork.Device().Snapshot() {
		t.Fatalf("device stats %+v vs %+v", fresh.Device().Snapshot(), fork.Device().Snapshot())
	}
}

// bulkLoaded is a store holding one bulk-loaded PG of 100 objects.
func bulkLoaded(t *testing.T) *Store {
	t.Helper()
	objs := make([]ObjectRecord, 100)
	for i := range objs {
		objs[i] = ObjectRecord{Name: fmt.Sprintf("obj%03d", i), Size: 18204, ChunkSize: 16384}
	}
	pg, err := NewBulkPG("p", 0, 1, objs)
	if err != nil {
		t.Fatal(err)
	}
	s := newTestStore(t)
	if err := s.WriteChunksBulk(pg, 0); err != nil {
		t.Fatal(err)
	}
	return s
}

// TestForkAllocations: a fork of a bulk-loaded snapshot store is the store,
// its device and its overlay map. The chunks, the KV store and the payload
// bytes cost nothing until the fork writes.
func TestForkAllocations(t *testing.T) {
	s := bulkLoaded(t)
	s.Freeze()
	cfg := s.cfg
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := s.Fork(cfg); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 3 {
		t.Fatalf("Fork made %v allocations, want at most 3", allocs)
	}
}

// TestForkCorruptionStaysInFork: a fork shares its frozen parent's payload
// bytes, so corrupting or overwriting a chunk in the fork must leave the
// parent's bytes and scrub verdict as they were.
func TestForkCorruptionStaysInFork(t *testing.T) {
	s := newTestStore(t)
	pay := bytes.Repeat([]byte{3}, 8192)
	for _, name := range []string{"corrupted", "overwritten"} {
		if err := s.WriteChunk(cid(name), 8192, 8192, pay); err != nil {
			t.Fatal(err)
		}
	}
	s.Freeze()
	f, err := s.Fork(s.cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.CorruptChunk(cid("corrupted")); err != nil {
		t.Fatal(err)
	}
	if err := f.WriteChunk(cid("overwritten"), 8192, 8192, bytes.Repeat([]byte{4}, 8192)); err != nil {
		t.Fatal(err)
	}
	if clean, err := f.ScrubChunk(cid("corrupted")); err != nil || clean {
		t.Fatalf("fork's corrupted chunk scrubs clean=%v, %v", clean, err)
	}
	for _, name := range []string{"corrupted", "overwritten"} {
		if _, got, err := s.ReadChunk(cid(name)); err != nil || !bytes.Equal(got, pay) {
			t.Fatalf("parent's %s bytes changed by its fork: %v", name, err)
		}
		if clean, err := s.ScrubChunk(cid(name)); err != nil || !clean {
			t.Fatalf("parent's %s scrubs clean=%v, %v after its fork wrote", name, clean, err)
		}
	}
}

// TestRecoveredRunMatchesOverlay: two sibling forks receive the same
// recovery writes, one having declared the run they rebuild and one not,
// so one keeps them as bits and the other as overlay entries. To every
// reader they are the same store after every write: a rewrite, a
// corruption, a write of another size and the rewrite of that included.
func TestRecoveredRunMatchesOverlay(t *testing.T) {
	objs := make([]ObjectRecord, 70) // two bitset words
	for i := range objs {
		cs := 4096 + int64(i)*1000
		objs[i] = ObjectRecord{Name: fmt.Sprintf("obj%03d", i), Size: 3*cs - int64(i), ChunkSize: cs}
	}
	pg, err := NewBulkPG("p", 0, 3, objs)
	if err != nil {
		t.Fatal(err)
	}
	dev, err := blockdev.New(64 << 20)
	if err != nil {
		t.Fatal(err)
	}
	// A cache far below the needs, so the profile moves with every write.
	parent := Open(dev, Config{CacheBytes: 8 << 10})
	if err := parent.WriteChunksBulk(pg, 0); err != nil {
		t.Fatal(err)
	}
	parent.Freeze()
	declared, err := parent.Fork(parent.cfg)
	if err != nil {
		t.Fatal(err)
	}
	plain, err := parent.Fork(parent.cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := declared.ExpectRun(pg, 1); err != nil {
		t.Fatal(err)
	}
	for _, s := range []*Store{declared, plain} {
		s.SetDataWorkingSet(1 << 20)
	}

	id := func(j, shard int) ChunkID { return ChunkID{Pool: "p", Object: objs[j].Name, Shard: shard} }
	type step struct {
		j       int
		corrupt bool
		size    int64 // 0: the record's
	}
	var steps []step
	for j := range objs {
		steps = append(steps, step{j: j})
		switch j {
		case 10:
			steps = append(steps, step{j: 3})
		case 20:
			steps = append(steps, step{j: 5, corrupt: true}, step{j: 0, corrupt: true})
		case 30:
			steps = append(steps, step{j: 40, size: 8192}, step{j: 40}, step{j: 5})
		}
	}
	for n, st := range steps {
		for _, s := range []*Store{declared, plain} {
			var err error
			switch o := &objs[st.j]; {
			case st.corrupt:
				err = s.CorruptChunk(id(st.j, 1))
			case st.size != 0:
				err = s.WriteChunk(id(st.j, 1), st.size, st.size, nil)
			default:
				err = s.WriteChunk(id(st.j, 1), o.ChunkSize, o.Size/3, nil)
			}
			if err != nil {
				t.Fatalf("step %d %+v: %v", n, st, err)
			}
		}
		if d, p := declared.count, plain.count; d != p {
			t.Fatalf("step %d: Chunks %d declared, %d plain", n, d, p)
		}
		if d, p := declared.DataBytes(), plain.DataBytes(); d != p {
			t.Fatalf("step %d: DataBytes %d declared, %d plain", n, d, p)
		}
		if d, p := declared.MetaBytes(), plain.MetaBytes(); d != p {
			t.Fatalf("step %d: MetaBytes %d declared, %d plain", n, d, p)
		}
		if d, p := declared.UsedBytes(), plain.UsedBytes(); d != p {
			t.Fatalf("step %d: UsedBytes %d declared, %d plain", n, d, p)
		}
		dm, dk, dd := declared.AccessProfile()
		pm, pk, pd := plain.AccessProfile()
		if dm != pm || dk != pk || dd != pd {
			t.Fatalf("step %d: AccessProfile (%v,%v,%v) declared, (%v,%v,%v) plain", n, dm, dk, dd, pm, pk, pd)
		}
		for j := range objs {
			for shard := 0; shard < 3; shard++ {
				c := id(j, shard)
				if d, p := declared.HasChunk(c), plain.HasChunk(c); d != p {
					t.Fatalf("step %d: HasChunk(%s) %v declared, %v plain", n, c, d, p)
				}
				ds, derr := declared.chunkSize(c)
				ps, perr := plain.chunkSize(c)
				if ds != ps || (derr == nil) != (perr == nil) {
					t.Fatalf("step %d: ChunkSize(%s) %d, %v declared; %d, %v plain", n, c, ds, derr, ps, perr)
				}
				dc, derr := declared.ScrubChunk(c)
				pc, perr := plain.ScrubChunk(c)
				if dc != pc || (derr == nil) != (perr == nil) {
					t.Fatalf("step %d: ScrubChunk(%s) %v, %v declared; %v, %v plain", n, c, dc, derr, pc, perr)
				}
			}
		}
	}
	if declared.Device().Snapshot() != plain.Device().Snapshot() {
		t.Fatalf("device stats %+v declared, %+v plain", declared.Device().Snapshot(), plain.Device().Snapshot())
	}
	if len(plain.chunks) != len(objs) || len(declared.chunks) != 4 {
		t.Fatalf("overlay entries: %d declared, %d plain; want 4 (the rewrites and corruptions) and %d", len(declared.chunks), len(plain.chunks), len(objs))
	}
}
