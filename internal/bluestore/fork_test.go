package bluestore

import (
	"bytes"
	"fmt"
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
	f, err := s.Fork(s.Config())
	if err != nil {
		t.Fatal(err)
	}
	f.Freeze()
	ff, err := f.Fork(f.Config())
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
	cfg := s.Config()
	cfg.MinAllocSize = 65536
	if _, err := s.Fork(cfg); err == nil {
		t.Fatal("Fork changing MinAllocSize should fail")
	}
	// Cache knobs are recovery-side and may change.
	cfg = s.Config()
	cfg.Cache = CacheKVOptimized
	cfg.CacheBytes = 1 << 30
	f, err := s.Fork(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if f.Config().Cache != CacheKVOptimized {
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
	if err := s.Reserve(100); err == nil || !strings.Contains(err.Error(), "Reserve on frozen store") {
		t.Fatalf("Reserve on frozen store: %v, want the frozen-store error", err)
	}
	// Reads still work, and c1 is as it was written.
	if size, err := s.ChunkSize(cid("c1")); s.Chunks() != 1 || err != nil || size != 4096 {
		t.Fatalf("frozen store's c1: %d chunks, %d bytes, %v", s.Chunks(), size, err)
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
	f1, err := s.Fork(s.Config())
	if err != nil {
		t.Fatal(err)
	}
	f2, err := s.Fork(s.Config())
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
	fork, err := parent.Fork(parent.Config())
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

	if fresh.Chunks() != fork.Chunks() {
		t.Fatalf("Chunks %d vs %d", fresh.Chunks(), fork.Chunks())
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
	cfg := s.Config()
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
	f, err := s.Fork(s.Config())
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
