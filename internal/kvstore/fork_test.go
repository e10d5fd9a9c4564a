package kvstore

import "testing"

// TestForkOfForkIsolation: a fork and a fork of that fork each keep the
// entries and accounting they were taken with while the parent, the fork
// and a sibling go on putting and deleting.
func TestForkOfForkIsolation(t *testing.T) {
	db := Open(1.35)
	db.Put("a", []byte("alpha"))
	db.Put("b", []byte("beta"))
	f := db.Fork()
	f.Put("c", []byte("gamma"))
	ff, sibling := f.Fork(), db.Fork()
	wal, logical := ff.WALBytes(), ff.LogicalBytes()

	// Every later mutation lands on someone else.
	db.Put("a", []byte("ALPHA"))
	db.Delete("b")
	f.Put("c", []byte("GAMMA"))
	f.Delete("a")
	sibling.Put("b", []byte("BETA"))
	sibling.Delete("a")

	for k, want := range map[string]string{"a": "alpha", "b": "beta", "c": "gamma"} {
		if v, ok := ff.Get(k); !ok || string(v) != want {
			t.Fatalf("fork of fork %s=%q %v, want %q", k, v, ok, want)
		}
	}
	if ff.Len() != 3 || ff.WALBytes() != wal || ff.LogicalBytes() != logical {
		t.Fatalf("fork of fork accounting moved: Len %d WAL %d->%d logical %d->%d",
			ff.Len(), wal, ff.WALBytes(), logical, ff.LogicalBytes())
	}
	if _, ok := f.Get("a"); ok {
		t.Fatal("fork still sees its deleted a")
	}
	if v, _ := f.Get("b"); string(v) != "beta" {
		t.Fatalf("fork b=%q, parent or sibling write leaked", v)
	}
}

func TestForkIsolationAndAccounting(t *testing.T) {
	db := Open(1.5)
	db.Put("a", []byte("alpha"))
	db.Put("b", []byte("beta"))
	db.PutAccounted(3, 100)

	f1, f2 := db.Fork(), db.Fork()
	if f1.Len() != db.Len() || f1.LogicalBytes() != db.LogicalBytes() ||
		f1.WALBytes() != db.WALBytes() || f1.Footprint() != db.Footprint() {
		t.Fatalf("fork accounting differs from parent")
	}

	// f1 overwrites a shared key, f2 deletes one.
	f1.Put("a", []byte("ALPHA-2"))
	f2.Delete("b")

	if v, _ := db.Get("a"); string(v) != "alpha" {
		t.Fatalf("parent a=%q, fork overwrite leaked", v)
	}
	if v, _ := f2.Get("a"); string(v) != "alpha" {
		t.Fatalf("sibling a=%q", v)
	}
	if v, _ := f1.Get("a"); string(v) != "ALPHA-2" {
		t.Fatalf("f1 a=%q", v)
	}
	if _, ok := f2.Get("b"); ok {
		t.Fatal("f2 still sees deleted b")
	}
	if v, ok := db.Get("b"); !ok || string(v) != "beta" {
		t.Fatal("parent lost b after fork delete")
	}
	if f1.Len() != db.Len() {
		t.Fatalf("f1 Len %d != parent %d after overwrite", f1.Len(), db.Len())
	}
	if f2.Len() != db.Len()-1 {
		t.Fatalf("f2 Len %d, parent %d", f2.Len(), db.Len())
	}
}

func TestForkReplayMatchesFresh(t *testing.T) {
	// The same mutation history applied to a fork and to a fresh store
	// that already contains the base entries must produce identical
	// accounting — this is what keeps WA results bit-identical.
	build := func() *DB {
		db := Open(1.35)
		db.Put("o/x", make([]byte, 512))
		db.Put("o/y", make([]byte, 512))
		return db
	}
	fresh := build()

	fork := build().Fork()

	mutate := func(db *DB) {
		db.Put("o/x", make([]byte, 600)) // overwrite
		db.Delete("o/y")
		db.Put("o/z", make([]byte, 100))
	}
	mutate(fresh)
	mutate(fork)

	if fresh.Len() != fork.Len() {
		t.Fatalf("Len %d vs %d", fresh.Len(), fork.Len())
	}
	if fresh.LogicalBytes() != fork.LogicalBytes() {
		t.Fatalf("LogicalBytes %d vs %d", fresh.LogicalBytes(), fork.LogicalBytes())
	}
	if fresh.WALBytes() != fork.WALBytes() {
		t.Fatalf("WALBytes %d vs %d", fresh.WALBytes(), fork.WALBytes())
	}
	if fresh.Footprint() != fork.Footprint() {
		t.Fatalf("Footprint %d vs %d", fresh.Footprint(), fork.Footprint())
	}
}
