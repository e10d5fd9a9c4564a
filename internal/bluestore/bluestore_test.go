package bluestore

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/blockdev"
)

// chunkSize is a chunk's stored (padded) size, or ErrNoSuchChunk for a
// chunk the store does not hold.
func (s *Store) chunkSize(id ChunkID) (int64, error) {
	info, ok := s.lookup(id)
	if !ok {
		return 0, fmt.Errorf("%w: %s", ErrNoSuchChunk, id)
	}
	return info.size, nil
}

func newStore(t *testing.T, cfg Config) *Store {
	t.Helper()
	dev, err := blockdev.New(1 << 30)
	if err != nil {
		t.Fatal(err)
	}
	return Open(dev, cfg)
}

// cid names a chunk of pool "", PG 0, shard 0.
func cid(object string) ChunkID { return ChunkID{Object: object} }

func TestPayloadRoundTrip(t *testing.T) {
	s := newStore(t, Config{})
	data := make([]byte, 10_000)
	rand.New(rand.NewSource(1)).Read(data)
	if err := s.WriteChunk(cid("pg1/obj1/shard0"), 10_000, 8_000, data); err != nil {
		t.Fatal(err)
	}
	size, got, err := s.ReadChunk(cid("pg1/obj1/shard0"))
	if err != nil {
		t.Fatal(err)
	}
	if size != 10_000 || !bytes.Equal(got, data) {
		t.Fatal("round trip mismatch")
	}
}

func TestAccountingOnlyMode(t *testing.T) {
	s := newStore(t, Config{})
	if err := s.WriteChunk(cid("c0"), 1<<20, 1<<20, nil); err != nil {
		t.Fatal(err)
	}
	size, payload, err := s.ReadChunk(cid("c0"))
	if err != nil {
		t.Fatal(err)
	}
	if size != 1<<20 || payload != nil {
		t.Fatal("accounting-only read should return size and nil payload")
	}
	st := s.Device().Snapshot()
	if st.WriteBytes != 1<<20 || st.ReadBytes != 1<<20 {
		t.Fatalf("device counters: %+v", st)
	}
}

func TestMinAllocRounding(t *testing.T) {
	s := newStore(t, Config{MinAllocSize: 65536})
	if err := s.WriteChunk(cid("c"), 100, 100, nil); err != nil {
		t.Fatal(err)
	}
	if s.DataBytes() != 65536 {
		t.Fatalf("DataBytes = %d, want 65536", s.DataBytes())
	}
}

func TestUsedBytesGrowsWithMetadata(t *testing.T) {
	s := newStore(t, Config{})
	size := int64(1 << 20)
	if err := s.WriteChunk(cid("c"), size, size, nil); err != nil {
		t.Fatal(err)
	}
	// One onode record, two blobs' extent entries and 256 checksums, all
	// space-amplified, plus the EC metadata share of the object.
	onode := int64(float64(cid("c").onodeEntry()) * kvSpaceAmp)
	recordBytes := size/blobSize*extentEntryBytes + size/csumChunkSize*csumEntryBytes
	records := int64(kvSpaceAmp * float64(recordBytes))
	ec := int64(ecMetaFraction * float64(size))
	if got, want := s.MetaBytes(), onode+records+ec; got != want {
		t.Fatalf("MetaBytes = %d, want %d", got, want)
	}
	if got, want := s.UsedBytes(), size+onode+records+ec; got != want {
		t.Fatalf("UsedBytes = %d, want %d", got, want)
	}
}

func TestOverwriteReplaces(t *testing.T) {
	s := newStore(t, Config{})
	_ = s.WriteChunk(cid("c"), 8192, 8192, nil)
	_ = s.WriteChunk(cid("c"), 4096, 4096, nil)
	if s.DataBytes() != 4096 {
		t.Fatalf("DataBytes = %d after overwrite", s.DataBytes())
	}
	if s.count != 1 {
		t.Fatal("chunk count wrong")
	}
}

func TestReadMissingChunk(t *testing.T) {
	s := newStore(t, Config{})
	if _, _, err := s.ReadChunk(cid("nope")); !errors.Is(err, ErrNoSuchChunk) {
		t.Fatalf("got %v", err)
	}
}

func TestWriteFailsOnRemovedDevice(t *testing.T) {
	s := newStore(t, Config{})
	s.Device().Remove()
	if err := s.WriteChunk(cid("c"), 100, 100, nil); err == nil {
		t.Fatal("write to removed device succeeded")
	}
}

// TestRefusedRewriteKeepsChunk: a rewrite the store refuses — device full,
// device removed — leaves the chunk it would have replaced, bulk-loaded or
// written one at a time, stored and accounted as before.
func TestRefusedRewriteKeepsChunk(t *testing.T) {
	dev, err := blockdev.New(64 << 10)
	if err != nil {
		t.Fatal(err)
	}
	s := Open(dev, Config{})
	pg, err := NewBulkPG("", 0, 1, []ObjectRecord{{Name: "bulk", Size: 4096, ChunkSize: 4096}})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.WriteChunksBulk(pg, 0); err != nil {
		t.Fatal(err)
	}
	pay := bytes.Repeat([]byte{5}, 32<<10)
	if err := s.WriteChunk(cid("solo"), 32<<10, 32<<10, pay); err != nil {
		t.Fatal(err)
	}
	chunks, used := s.count, s.UsedBytes()
	kept := func(why string) {
		t.Helper()
		if s.count != chunks || s.UsedBytes() != used {
			t.Fatalf("%s: count %d, UsedBytes %d; was %d, %d", why, s.count, s.UsedBytes(), chunks, used)
		}
		if size, err := s.chunkSize(cid("bulk")); err != nil || size != 4096 {
			t.Fatalf("%s: bulk chunk %d bytes, %v", why, size, err)
		}
		if size, err := s.chunkSize(cid("solo")); err != nil || size != 32<<10 || !bytes.Equal(s.payloads[cid("solo")].bytes, pay) {
			t.Fatalf("%s: solo chunk %d bytes, %v, or its payload changed", why, size, err)
		}
	}
	big := bytes.Repeat([]byte{6}, 40<<10)
	for _, id := range []ChunkID{cid("bulk"), cid("solo")} {
		if err := s.WriteChunk(id, 40<<10, 40<<10, big); err == nil {
			t.Fatalf("rewrite of %s past the device's end succeeded", id)
		}
	}
	kept("device full")
	s.Device().Remove()
	for _, id := range []ChunkID{cid("bulk"), cid("solo")} {
		if err := s.WriteChunk(id, 4096, 4096, nil); err == nil {
			t.Fatalf("rewrite of %s on a removed device succeeded", id)
		}
	}
	kept("device removed")
}

func TestCacheProfileSchemes(t *testing.T) {
	mk := func(cache CacheConfig) *Store {
		s := newStore(t, Config{CacheBytes: 1 << 20, Cache: cache})
		// Populate: KV-need ends up well above 1 MiB so ratios matter.
		for i := 0; i < 50; i++ {
			_ = s.WriteChunk(cid(string(rune('a'+i%26))+string(rune('0'+i/26))), 1<<20, 1<<20, nil)
		}
		s.SetDataWorkingSet(8 << 20)
		return s
	}
	kvOpt := mk(CacheKVOptimized)
	dataOpt := mk(CacheDataOptimized)
	auto := mk(CacheAutotune)

	_, kvHitA, dataHitA := kvOpt.AccessProfile()
	_, kvHitB, dataHitB := dataOpt.AccessProfile()
	metaHitC, kvHitC, dataHitC := auto.AccessProfile()

	if kvHitA <= kvHitB {
		t.Fatalf("kv-optimized should have higher kv hits: %f vs %f", kvHitA, kvHitB)
	}
	if dataHitB <= dataHitA {
		t.Fatalf("data-optimized should have higher data hits: %f vs %f", dataHitB, dataHitA)
	}
	for _, h := range []float64{metaHitC, kvHitC, dataHitC} {
		if h < 0 || h > 1 {
			t.Fatalf("hit fraction out of range: %f", h)
		}
	}
}

func TestAutotuneWaterFillsSmallNeeds(t *testing.T) {
	s := newStore(t, Config{CacheBytes: 1 << 30, Cache: CacheAutotune})
	_ = s.WriteChunk(cid("c"), 4096, 4096, nil)
	s.SetDataWorkingSet(1 << 20)
	metaHit, kvHit, dataHit := s.AccessProfile()
	// Cache far exceeds all needs: everything should hit.
	if metaHit != 1 || kvHit != 1 || dataHit != 1 {
		t.Fatalf("hits = %f %f %f, want all 1", metaHit, kvHit, dataHit)
	}
}

func TestDeviceFull(t *testing.T) {
	dev, _ := blockdev.New(1 << 20)
	s := Open(dev, Config{})
	big := make([]byte, 1<<20)
	if err := s.WriteChunk(cid("a"), 1<<20, 1<<20, big); err != nil {
		t.Fatal(err)
	}
	if err := s.WriteChunk(cid("b"), 1<<20, 1<<20, big); err == nil {
		t.Fatal("second write should exceed capacity")
	}
}

func TestWAExampleMatchesFormulaPlusMeta(t *testing.T) {
	// A 64 MiB object under RS(12,9) with 4 MiB stripe unit: each chunk is
	// padded to 8 MiB; usage must be n*chunk + meta, where the EC metadata
	// is ecMetaFraction of the object and the onode, extent and checksum
	// records add well under 1%.
	s := newStore(t, Config{MinAllocSize: 4096})
	object := int64(64 << 20)
	n := int64(12)
	chunk := int64(8 << 20)
	for i := int64(0); i < n; i++ {
		name := string(rune('a' + i))
		if err := s.WriteChunk(cid(name), chunk, object/n, nil); err != nil {
			t.Fatal(err)
		}
	}
	if s.DataBytes() != n*chunk {
		t.Fatalf("DataBytes = %d, want %d", s.DataBytes(), n*chunk)
	}
	wa := float64(s.UsedBytes()) / float64(object)
	if want := float64(n*chunk)/float64(object) + ecMetaFraction; math.Abs(wa-want) > 0.005 {
		t.Fatalf("WA = %.4f, want %.4f (Table 3 calibration)", wa, want)
	}
}

// TestOpenValidation: Open fills every zero field of a Config with the
// default, and keeps the fields that are set.
func TestOpenValidation(t *testing.T) {
	dev, _ := blockdev.New(4096)
	if got := Open(dev, Config{}).cfg; got != DefaultConfig() {
		t.Fatalf("zero Config opened as %+v, want %+v", got, DefaultConfig())
	}
	set := Config{MinAllocSize: 65536, CacheBytes: 1 << 20, Cache: CacheKVOptimized}
	if got := Open(dev, set).cfg; got != set {
		t.Fatalf("Config %+v opened as %+v", set, got)
	}
}

func TestPayloadSizeMismatch(t *testing.T) {
	s := newStore(t, Config{})
	if err := s.WriteChunk(cid("c"), 100, 100, make([]byte, 50)); err == nil {
		t.Fatal("payload/size mismatch accepted")
	}
}

func TestCorruptAndScrubChunk(t *testing.T) {
	s := newStore(t, Config{})
	data := make([]byte, 8192)
	for i := range data {
		data[i] = byte(i)
	}
	if err := s.WriteChunk(cid("c"), 8192, 8192, data); err != nil {
		t.Fatal(err)
	}
	ok, err := s.ScrubChunk(cid("c"))
	if err != nil || !ok {
		t.Fatalf("clean chunk scrub: ok=%v err=%v", ok, err)
	}
	if err := s.CorruptChunk(cid("c")); err != nil {
		t.Fatal(err)
	}
	ok, err = s.ScrubChunk(cid("c"))
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Fatal("corrupted chunk passed scrub")
	}
	// Rewriting the chunk clears the corruption.
	if err := s.WriteChunk(cid("c"), 8192, 8192, data); err != nil {
		t.Fatal(err)
	}
	if ok, _ = s.ScrubChunk(cid("c")); !ok {
		t.Fatal("rewritten chunk still dirty")
	}
	// Accounting-mode chunks use the marker path.
	if err := s.WriteChunk(cid("acc"), 4096, 4096, nil); err != nil {
		t.Fatal(err)
	}
	if err := s.CorruptChunk(cid("acc")); err != nil {
		t.Fatal(err)
	}
	if ok, _ = s.ScrubChunk(cid("acc")); ok {
		t.Fatal("accounting corruption not detected")
	}
	// Unknown chunks error.
	if err := s.CorruptChunk(cid("nope")); err == nil {
		t.Fatal("corrupting missing chunk accepted")
	}
	if _, err := s.ScrubChunk(cid("nope")); err == nil {
		t.Fatal("scrubbing missing chunk accepted")
	}
}

func TestAccessors(t *testing.T) {
	s := newStore(t, Config{MinAllocSize: 8192})
	if s.cfg.MinAllocSize != 8192 {
		t.Fatal("Config not reflecting options")
	}
	if s.HasChunk(cid("x")) {
		t.Fatal("phantom chunk")
	}
	if err := s.WriteChunk(cid("x"), 100, 100, nil); err != nil {
		t.Fatal(err)
	}
	if !s.HasChunk(cid("x")) {
		t.Fatal("chunk missing")
	}
	size, err := s.chunkSize(cid("x"))
	if err != nil || size != 100 {
		t.Fatalf("ChunkSize = %d, %v", size, err)
	}
	if _, err := s.chunkSize(cid("y")); err == nil {
		t.Fatal("missing chunk size accepted")
	}
}

// TestBulkPGFind: a run finds every record of its PG at its position by
// binary search, and nothing else — not the names around each stored one,
// nor a proper prefix of one or one with a byte added — in a PG of one
// object and in one of 10,000, Fig. 2b's pg_num = 1.
func TestBulkPGFind(t *testing.T) {
	for _, n := range []int{1, 10_000} {
		// Odd numbers are stored; the even ones around them are misses.
		name := func(v int) string { return fmt.Sprintf("obj-%07d", v) }
		recs := make([]ObjectRecord, n)
		for i := range recs {
			recs[i] = ObjectRecord{Name: name(2*i + 1), Size: 3 * int64(i), ChunkSize: int64(i)}
		}
		pg, err := NewBulkPG("p", 3, 3, recs)
		if err != nil {
			t.Fatal(err)
		}
		r := baseRun{pg: pg, shard: 1}
		id := func(object string) ChunkID { return ChunkID{Pool: "p", PG: 3, Object: object, Shard: 1} }
		for i := range recs {
			if o, j := r.find(id(recs[i].Name)); o != &pg.objects[i] || j != int32(i) {
				t.Fatalf("n=%d: find(%s) = %v, %d; want record %d", n, recs[i].Name, o, j, i)
			}
		}
		misses := []string{"", recs[0].Name[:len(recs[0].Name)-1], recs[n-1].Name + "0"}
		for i := 0; i <= n; i++ {
			misses = append(misses, name(2*i))
		}
		for _, m := range misses {
			if o, _ := r.find(id(m)); o != nil {
				t.Fatalf("n=%d: find(%q) = %s, want a miss", n, m, o.Name)
			}
		}
	}
}
