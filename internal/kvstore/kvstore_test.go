package kvstore

import (
	"bytes"
	"fmt"
	"testing"
	"testing/quick"
)

func TestPutGetDelete(t *testing.T) {
	db := Open(1)
	if _, ok := db.Get("a"); ok {
		t.Fatal("empty store returned a value")
	}
	db.Put("a", []byte("hello"))
	v, ok := db.Get("a")
	if !ok || !bytes.Equal(v, []byte("hello")) {
		t.Fatalf("got %q %v", v, ok)
	}
	db.Delete("a")
	if _, ok := db.Get("a"); ok {
		t.Fatal("deleted key still present")
	}
}

func TestGetReturnsCopy(t *testing.T) {
	db := Open(1)
	db.Put("k", []byte{1, 2, 3})
	v, _ := db.Get("k")
	v[0] = 99
	v2, _ := db.Get("k")
	if v2[0] != 1 {
		t.Fatal("Get leaked internal buffer")
	}
}

func TestAccounting(t *testing.T) {
	db := Open(2.0)
	db.Put("key", make([]byte, 100)) // 3 + 100 + 24 = 127
	if db.LogicalBytes() != 127 {
		t.Fatalf("logical = %d", db.LogicalBytes())
	}
	if db.Footprint() != 254 {
		t.Fatalf("footprint = %d", db.Footprint())
	}
	if db.WALBytes() != 127 {
		t.Fatalf("wal = %d", db.WALBytes())
	}
	// Overwrite: logical stays flat, WAL grows.
	db.Put("key", make([]byte, 100))
	if db.LogicalBytes() != 127 {
		t.Fatalf("logical after overwrite = %d", db.LogicalBytes())
	}
	if db.WALBytes() != 254 {
		t.Fatalf("wal after overwrite = %d", db.WALBytes())
	}
	// Delete: logical drops to zero, WAL grows by tombstone.
	db.Delete("key")
	if db.LogicalBytes() != 0 {
		t.Fatalf("logical after delete = %d", db.LogicalBytes())
	}
	if db.WALBytes() != 254+3+24 {
		t.Fatalf("wal after delete = %d", db.WALBytes())
	}
}

func TestSpaceAmpClamped(t *testing.T) {
	db := Open(0.1)
	db.Put("k", make([]byte, 73)) // 1+73+24 = 98
	if db.Footprint() != db.LogicalBytes() {
		t.Fatal("spaceAmp below 1 must clamp to 1")
	}
}

func TestOpsCounters(t *testing.T) {
	db := Open(1)
	db.Put("a", nil)
	db.Get("a")
	db.Get("b")
	db.Delete("a")
	p, g, d := db.Ops()
	if p != 1 || g != 2 || d != 1 {
		t.Fatalf("ops = %d %d %d", p, g, d)
	}
}

func TestQuickShadowMap(t *testing.T) {
	db := Open(1)
	shadow := map[string]string{}
	f := func(op uint8, kRaw uint8, v string) bool {
		k := fmt.Sprintf("key%d", kRaw%20)
		switch op % 3 {
		case 0:
			db.Put(k, []byte(v))
			shadow[k] = v
		case 1:
			db.Delete(k)
			delete(shadow, k)
		case 2:
			got, ok := db.Get(k)
			want, wok := shadow[k]
			if ok != wok {
				return false
			}
			if ok && string(got) != want {
				return false
			}
		}
		return db.Len() == len(shadow)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}
