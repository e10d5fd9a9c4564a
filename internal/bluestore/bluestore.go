// Package bluestore models the Ceph BlueStore object store closely enough
// to reproduce the paper's two backend-sensitive results: the effect of the
// KV/metadata/data cache ratios on recovery time (Fig. 2a) and OSD-level
// write amplification (Table 3, §4.4).
//
// Each OSD owns one Store sitting on a virtual block device plus an
// embedded key-value store (the RocksDB stand-in). Chunk writes allocate
// min_alloc-rounded space, record onode/extent/checksum metadata in the KV
// store, and account the EC-related metadata whose aggregate size the
// paper observes but does not decompose (see Config.ECMetaFraction).
//
// A Store has one owner: the goroutine driving its cluster. It takes no
// lock. The one store several goroutines share is a frozen one, a
// snapshot parent: nothing writes it, so any number of them may Fork it
// at once. Reads that count — ReadChunk and ScrubChunk bump device and KV
// counters, AccessProfile writes its memo — stay owner operations, even
// on a frozen store.
package bluestore

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"maps"
	"strconv"

	"repro/internal/blockdev"
	"repro/internal/kvstore"
)

// ErrNoSuchChunk is returned when reading or deleting an unknown chunk.
var ErrNoSuchChunk = errors.New("bluestore: no such chunk")

// CacheConfig is the BlueStore cache split of Table 2. Ratios should sum
// to 1; they are normalized defensively.
type CacheConfig struct {
	KVRatio   float64
	MetaRatio float64
	DataRatio float64
	Autotune  bool
}

// Named cache schemes from Table 2 of the paper.
var (
	CacheKVOptimized   = CacheConfig{KVRatio: 0.70, MetaRatio: 0.20, DataRatio: 0.10}
	CacheDataOptimized = CacheConfig{KVRatio: 0.20, MetaRatio: 0.20, DataRatio: 0.60}
	CacheAutotune      = CacheConfig{KVRatio: 0.45, MetaRatio: 0.45, DataRatio: 0.10, Autotune: true}
)

// Config parameterizes the store. Zero values take defaults.
type Config struct {
	// MinAllocSize is the allocation granularity (bluestore_min_alloc_size).
	MinAllocSize int64
	// BlobSize caps a single blob; one extent-map entry is recorded per
	// blob of a chunk write.
	BlobSize int64
	// CsumChunkSize is the checksum granularity; CsumEntryBytes are stored
	// per checksum chunk.
	CsumChunkSize  int64
	CsumEntryBytes int64
	// OnodeBytes is the serialized onode record size per chunk object.
	OnodeBytes int64
	// ExtentEntryBytes is the extent-map entry size per blob.
	ExtentEntryBytes int64
	// ECMetaFraction models the EC-related metadata the paper's S_meta
	// term aggregates (hash_info attributes, PG-log dup entries, LSM
	// overhead attributable to the object). It is charged as a fraction
	// of the chunk's logical share of the object and calibrated once
	// against Table 3 (see EXPERIMENTS.md).
	ECMetaFraction float64
	// KVSpaceAmp is the RocksDB space-amplification factor.
	KVSpaceAmp float64
	// CacheBytes is the total cache available to the three pools.
	CacheBytes int64
	Cache      CacheConfig
}

// DefaultConfig mirrors a Quincy-era SSD OSD.
func DefaultConfig() Config {
	return Config{
		MinAllocSize:     4096,
		BlobSize:         512 << 10,
		CsumChunkSize:    4096,
		CsumEntryBytes:   4,
		OnodeBytes:       520,
		ExtentEntryBytes: 48,
		ECMetaFraction:   0.26,
		KVSpaceAmp:       1.35,
		CacheBytes:       3 << 30,
		Cache:            CacheAutotune,
	}
}

// ChunkID names one EC shard of one object. It is the identity chunks
// carry across the cluster/bluestore boundary: comparable, so it keys the
// overlay map directly, and only rendered as a string where one is
// needed (payload-mode KV keys, log and error text).
type ChunkID struct {
	Pool   string
	PG     int
	Object string
	Shard  int
}

// String formats "<pool>/<pg>/<object>/s<shard>".
func (id ChunkID) String() string {
	b := make([]byte, 0, id.kvKeyLen()-len("o/"))
	b = append(b, id.Pool...)
	b = append(b, '/')
	b = strconv.AppendInt(b, int64(id.PG), 10)
	b = append(b, '/')
	b = append(b, id.Object...)
	b = append(b, "/s"...)
	b = strconv.AppendInt(b, int64(id.Shard), 10)
	return string(b)
}

// kvKeyLen is len("o/" + id.String()), the chunk's onode key length,
// computed without building the key.
func (id ChunkID) kvKeyLen() int {
	return len("o/") + len(id.Pool) + 1 + decLen(id.PG) + 1 + len(id.Object) + len("/s") + decLen(id.Shard)
}

// decLen is the length of v in decimal, sign included.
func decLen(v int) int {
	n := 1
	if v < 0 {
		n++
	}
	for v /= 10; v != 0; v /= 10 {
		n++
	}
	return n
}

// ObjectRecord tracks one stored object within a PG.
type ObjectRecord struct {
	Name      string
	Size      int64
	ChunkSize int64
	Payload   bool // real bytes stored
}

// BulkPG is the accounting-mode objects one bulk load added to one
// placement group. It is immutable and shared: the PG's object list, every
// store holding a shard of the PG and every fork of those stores point at
// the same records, so a bulk-loaded chunk costs no per-chunk state
// anywhere.
type BulkPG struct {
	pool    string
	pg      int
	shards  int // n of the code: a chunk's logical share is Size/shards
	objects []ObjectRecord

	index     map[string]int32 // object name -> position in objects
	nameBytes int64            // sum of len(Name) over objects
}

// NewBulkPG indexes a placement group's bulk-loaded objects. The caller
// must not modify objects afterwards.
func NewBulkPG(pool string, pg, shards int, objects []ObjectRecord) (*BulkPG, error) {
	if shards <= 0 {
		return nil, fmt.Errorf("bluestore: bulk PG needs a positive shard count, got %d", shards)
	}
	b := &BulkPG{pool: pool, pg: pg, shards: shards, objects: objects, index: make(map[string]int32, len(objects))}
	for i := range objects {
		o := &objects[i]
		if o.ChunkSize < 0 || o.Size < 0 {
			return nil, fmt.Errorf("bluestore: negative sizes")
		}
		b.index[o.Name] = int32(i)
		b.nameBytes += int64(len(o.Name))
	}
	return b, nil
}

// baseRun is one shard of a bulk-loaded PG held by a store.
type baseRun struct {
	pg    *BulkPG
	shard int
}

type chunkInfo struct {
	size      int64
	share     int64  // logical object share used for EC metadata accounting
	checksum  uint32 // crc32 of the payload at write time (payload mode)
	hasData   bool
	corrupted bool // accounting-mode corruption marker
	deleted   bool // tombstone over a base-run chunk
}

// Store is one OSD's object store. It is not safe for concurrent use,
// except that a frozen store may be forked by several goroutines at once.
type Store struct {
	cfg Config
	dev *blockdev.Device
	kv  *kvstore.DB

	// runs is the bulk base: one entry per (pool, PG, shard) ingested
	// through WriteChunksBulk. Entries are immutable and the slice is
	// append-only, so a fork shares its parent's table as is.
	runs []baseRun
	// chunks is the overlay over runs: chunks written, overwritten or
	// corrupted one at a time, plus tombstones for base chunks deleted or
	// dropped. Every lookup, on root and forked stores alike, is overlay
	// first, then runs.
	chunks map[ChunkID]chunkInfo
	count  int // visible chunks: runs + overlay - tombstones and shadows
	frozen bool

	dataAllocated int64
	nextOffset    int64 // bump allocator for payload placement

	// accountedMeta tracks extent-map and checksum record bytes, which are
	// accounted rather than materialized to keep large synthetic workloads
	// cheap.
	accountedMeta int64
	// ecMetaBytes is the accounted EC metadata (see Config.ECMetaFraction).
	ecMetaBytes int64

	dataWorkingSet int64 // set by the experiment runner; see SetDataWorkingSet

	// profile memoises AccessProfile. Everything it reads — the KV
	// footprint, accountedMeta, ecMetaBytes, count, dataWorkingSet and the
	// config — changes only in WriteChunk, WriteChunksBulk, drop and
	// SetDataWorkingSet, which clear profileValid; recovery asks once per
	// helper per repaired object in between.
	profile      [3]float64
	profileValid bool
}

// normalizeConfig applies the zero-value defaults Open documents.
func normalizeConfig(cfg Config) (Config, error) {
	def := DefaultConfig()
	if cfg.MinAllocSize <= 0 {
		cfg.MinAllocSize = def.MinAllocSize
	}
	if cfg.BlobSize <= 0 {
		cfg.BlobSize = def.BlobSize
	}
	if cfg.CsumChunkSize <= 0 {
		cfg.CsumChunkSize = def.CsumChunkSize
	}
	if cfg.CsumEntryBytes <= 0 {
		cfg.CsumEntryBytes = def.CsumEntryBytes
	}
	if cfg.OnodeBytes <= 0 {
		cfg.OnodeBytes = def.OnodeBytes
	}
	if cfg.ExtentEntryBytes <= 0 {
		cfg.ExtentEntryBytes = def.ExtentEntryBytes
	}
	if cfg.KVSpaceAmp <= 0 {
		cfg.KVSpaceAmp = def.KVSpaceAmp
	}
	if cfg.CacheBytes <= 0 {
		cfg.CacheBytes = def.CacheBytes
	}
	if cfg.Cache == (CacheConfig{}) {
		cfg.Cache = def.Cache
	}
	if cfg.ECMetaFraction < 0 {
		return cfg, fmt.Errorf("bluestore: negative ECMetaFraction")
	}
	return cfg, nil
}

// Open creates a store over a device.
func Open(dev *blockdev.Device, cfg Config) (*Store, error) {
	cfg, err := normalizeConfig(cfg)
	if err != nil {
		return nil, err
	}
	return &Store{
		cfg:    cfg,
		dev:    dev,
		kv:     kvstore.Open(cfg.KVSpaceAmp),
		chunks: map[ChunkID]chunkInfo{},
	}, nil
}

// Config returns the effective configuration.
func (s *Store) Config() Config { return s.cfg }

func roundUp(v, to int64) int64 { return (v + to - 1) / to * to }

func ceilDiv(a, b int64) int64 { return (a + b - 1) / b }

// lookup resolves a chunk through the overlay, then the base runs.
func (s *Store) lookup(id ChunkID) (chunkInfo, bool) {
	if info, ok := s.chunks[id]; ok {
		return info, !info.deleted
	}
	return s.lookupBase(id)
}

// lookupBase resolves a chunk in the base runs, ignoring the overlay. A
// store that holds no run of the chunk's (pool, PG, shard) — every
// recovery target — misses on integer compares alone.
func (s *Store) lookupBase(id ChunkID) (chunkInfo, bool) {
	for i := range s.runs {
		r := &s.runs[i]
		if r.pg.pg != id.PG || r.shard != id.Shard || r.pg.pool != id.Pool {
			continue
		}
		if j, ok := r.pg.index[id.Object]; ok {
			o := &r.pg.objects[j]
			return chunkInfo{size: o.ChunkSize, share: o.Size / int64(r.pg.shards)}, true
		}
	}
	return chunkInfo{}, false
}

// Writable reports why the store would refuse a write, or nil.
func (s *Store) Writable() error {
	if err := s.checkMutable("write"); err != nil {
		return err
	}
	if s.dev.Removed() {
		return fmt.Errorf("bluestore: %w", blockdev.ErrRemoved)
	}
	return nil
}

func (s *Store) checkMutable(op string) error {
	if s.frozen {
		return fmt.Errorf("bluestore: %s on frozen store (snapshot parent)", op)
	}
	return nil
}

// WriteChunk stores an EC chunk. size is the padded chunk size on disk;
// objectShare is the chunk's logical share of the client object
// (S_object / n), which drives EC metadata accounting; payload, if
// non-nil, carries real bytes (len(payload) must equal size), otherwise
// the write is accounting-only.
func (s *Store) WriteChunk(id ChunkID, size, objectShare int64, payload []byte) error {
	if size < 0 || objectShare < 0 {
		return fmt.Errorf("bluestore: negative sizes")
	}
	if payload != nil && int64(len(payload)) != size {
		return fmt.Errorf("bluestore: payload length %d != size %d", len(payload), size)
	}
	if err := s.checkMutable("WriteChunk"); err != nil {
		return err
	}
	if old, ok := s.lookup(id); ok {
		s.drop(id, old)
	}
	s.profileValid = false
	info := chunkInfo{size: size, share: objectShare}
	allocated := roundUp(size, s.cfg.MinAllocSize)

	var off int64
	if payload != nil {
		info.checksum = crc32.ChecksumIEEE(payload)
		off = s.nextOffset
		if off+allocated > s.dev.Capacity() {
			return fmt.Errorf("bluestore: device full (%d + %d > %d)", off, allocated, s.dev.Capacity())
		}
		if _, err := s.dev.WriteAt(payload, off); err != nil {
			return fmt.Errorf("bluestore: %w", err)
		}
		s.nextOffset = off + allocated
		info.hasData = true
	} else {
		if err := s.dev.AccountWrite(size); err != nil {
			return fmt.Errorf("bluestore: %w", err)
		}
	}
	s.dataAllocated += allocated

	if info.hasData {
		// Onode record: placement offset + sizes, padded to the modeled
		// onode size. Only payload-mode chunks ever read it back.
		onode := make([]byte, s.cfg.OnodeBytes)
		binary.BigEndian.PutUint64(onode[0:8], uint64(off))
		binary.BigEndian.PutUint64(onode[8:16], uint64(size))
		binary.BigEndian.PutUint64(onode[16:24], uint64(objectShare))
		onode[24] = 1
		s.kv.Put("o/"+id.String(), onode)
	} else {
		// Accounting-mode chunks account the identical KV entry without
		// materializing the key or the onode bytes (the synthetic-workload
		// hot path: millions of onodes nobody reads).
		s.kv.PutAccounted(id.kvKeyLen(), int(s.cfg.OnodeBytes))
	}

	s.accountedMeta += s.metaRecordBytes(size)
	s.ecMetaBytes += s.ecMeta(objectShare)
	s.chunks[id] = info
	s.count++
	return nil
}

// Reserve sizes the overlay for n more chunks written one at a time, so a
// store that is about to receive them — a recovery target — does not
// regrow the map on the way. It changes no visible state.
func (s *Store) Reserve(n int) error {
	if err := s.checkMutable("Reserve"); err != nil {
		return err
	}
	chunks := make(map[ChunkID]chunkInfo, len(s.chunks)+n)
	maps.Copy(chunks, s.chunks)
	s.chunks = chunks
	return nil
}

// WriteChunksBulk ingests shard `shard` of every object of a bulk-loaded
// PG as one base run: byte-for-byte the same device, KV and metadata
// accounting as calling WriteChunk(id, ChunkSize, Size/shards, nil) per
// object, in one device and one KV accounting call and without any
// per-chunk state. Chunks must be new to the store — bulk ingest targets
// objects the pool does not hold yet.
func (s *Store) WriteChunksBulk(pg *BulkPG, shard int) error {
	n := int64(len(pg.objects))
	var devBytes, allocSum, metaSum, ecSum int64
	// Workloads are uniform or nearly so: redo the per-size arithmetic
	// only when the size changes.
	var alloc, meta, ec int64
	lastChunk, lastSize := int64(-1), int64(-1)
	for i := range pg.objects {
		o := &pg.objects[i]
		if o.ChunkSize != lastChunk {
			lastChunk = o.ChunkSize
			alloc = roundUp(o.ChunkSize, s.cfg.MinAllocSize)
			meta = s.metaRecordBytes(o.ChunkSize)
		}
		if o.Size != lastSize {
			lastSize = o.Size
			ec = s.ecMeta(o.Size / int64(pg.shards))
		}
		devBytes += o.ChunkSize
		allocSum += alloc
		metaSum += meta
		ecSum += ec
	}
	keyBytes := n*int64(ChunkID{Pool: pg.pool, PG: pg.pg, Shard: shard}.kvKeyLen()) + pg.nameBytes

	if err := s.checkMutable("WriteChunksBulk"); err != nil {
		return err
	}
	if err := s.dev.AccountWrites(devBytes, n); err != nil {
		return fmt.Errorf("bluestore: %w", err)
	}
	s.profileValid = false
	s.kv.PutAccountedN(keyBytes, n*s.cfg.OnodeBytes, n)
	s.dataAllocated += allocSum
	s.accountedMeta += metaSum
	s.ecMetaBytes += ecSum
	s.runs = append(s.runs, baseRun{pg: pg, shard: shard})
	s.count += len(pg.objects)
	return nil
}

// metaRecordBytes is the extent-map plus checksum record size for a chunk.
func (s *Store) metaRecordBytes(size int64) int64 {
	extents := ceilDiv(size, s.cfg.BlobSize)
	csums := ceilDiv(size, s.cfg.CsumChunkSize)
	return extents*s.cfg.ExtentEntryBytes + csums*s.cfg.CsumEntryBytes
}

// ecMeta is the accounted EC metadata for a chunk of the given share.
func (s *Store) ecMeta(share int64) int64 {
	return int64(s.cfg.ECMetaFraction * float64(share))
}

// ReadChunk returns the chunk size and, for payload-mode chunks, its
// bytes. Device read counters are bumped either way.
func (s *Store) ReadChunk(id ChunkID) (int64, []byte, error) {
	info, ok := s.lookup(id)
	if !ok {
		return 0, nil, fmt.Errorf("%w: %s", ErrNoSuchChunk, id)
	}
	var off int64
	if info.hasData {
		onode, ok := s.kv.Get("o/" + id.String())
		if !ok {
			return 0, nil, fmt.Errorf("%w: onode for %s", ErrNoSuchChunk, id)
		}
		off = int64(binary.BigEndian.Uint64(onode[0:8]))
	}
	if info.hasData {
		buf := make([]byte, info.size)
		if _, err := s.dev.ReadAt(buf, off); err != nil {
			return 0, nil, fmt.Errorf("bluestore: %w", err)
		}
		return info.size, buf, nil
	}
	if err := s.dev.AccountRead(info.size); err != nil {
		return 0, nil, fmt.Errorf("bluestore: %w", err)
	}
	return info.size, nil, nil
}

// CorruptChunk simulates silent data corruption (bit rot) in a stored
// chunk: payload-mode chunks get their on-device bytes flipped, and
// accounting-mode chunks are marked corrupt. The stored checksum is left
// intact, so only a scrub can tell.
func (s *Store) CorruptChunk(id ChunkID) error {
	if err := s.checkMutable("CorruptChunk"); err != nil {
		return err
	}
	info, ok := s.lookup(id)
	if !ok {
		return fmt.Errorf("%w: %s", ErrNoSuchChunk, id)
	}
	info.corrupted = true
	s.chunks[id] = info
	if info.hasData {
		onode, ok := s.kv.Get("o/" + id.String())
		if !ok {
			return fmt.Errorf("%w: onode for %s", ErrNoSuchChunk, id)
		}
		off := int64(binary.BigEndian.Uint64(onode[0:8]))
		// Flip a byte somewhere in the middle of the chunk.
		pos := off + info.size/2
		buf := make([]byte, 1)
		if _, err := s.dev.ReadAt(buf, pos); err != nil {
			return err
		}
		buf[0] ^= 0xFF
		if _, err := s.dev.WriteAt(buf, pos); err != nil {
			return err
		}
	}
	return nil
}

// ScrubChunk deep-scrubs a chunk: payload-mode chunks are re-read and
// their crc32 compared against the write-time checksum; accounting-mode
// chunks report their corruption marker. It returns true when the chunk
// is consistent.
func (s *Store) ScrubChunk(id ChunkID) (bool, error) {
	info, ok := s.lookup(id)
	if !ok {
		return false, fmt.Errorf("%w: %s", ErrNoSuchChunk, id)
	}
	if !info.hasData {
		return !info.corrupted, nil
	}
	_, payload, err := s.ReadChunk(id)
	if err != nil {
		return false, err
	}
	return crc32.ChecksumIEEE(payload) == info.checksum, nil
}

// HasChunk reports whether the chunk exists.
func (s *Store) HasChunk(id ChunkID) bool {
	_, ok := s.lookup(id)
	return ok
}

// ChunkSize returns the stored (padded) size of a chunk.
func (s *Store) ChunkSize(id ChunkID) (int64, error) {
	info, ok := s.lookup(id)
	if !ok {
		return 0, fmt.Errorf("%w: %s", ErrNoSuchChunk, id)
	}
	return info.size, nil
}

// DeleteChunk removes a chunk and its metadata.
func (s *Store) DeleteChunk(id ChunkID) error {
	if err := s.checkMutable("DeleteChunk"); err != nil {
		return err
	}
	info, ok := s.lookup(id)
	if !ok {
		return fmt.Errorf("%w: %s", ErrNoSuchChunk, id)
	}
	s.drop(id, info)
	return nil
}

// drop releases a visible chunk's accounting and hides it: a chunk
// the base runs hold is tombstoned in the overlay, any other just leaves
// it.
func (s *Store) drop(id ChunkID, info chunkInfo) {
	s.profileValid = false
	s.dataAllocated -= roundUp(info.size, s.cfg.MinAllocSize)
	s.accountedMeta -= s.metaRecordBytes(info.size)
	s.ecMetaBytes -= s.ecMeta(info.share)
	if info.hasData {
		s.kv.Delete("o/" + id.String())
	} else {
		s.kv.DeleteAccounted(id.kvKeyLen(), int(s.cfg.OnodeBytes))
	}
	s.count--
	if _, inBase := s.lookupBase(id); inBase {
		s.chunks[id] = chunkInfo{deleted: true}
	} else {
		delete(s.chunks, id)
	}
}

// Chunks returns the number of stored chunks.
func (s *Store) Chunks() int {
	return s.count
}

// DataBytes is the allocated payload space (min_alloc rounded).
func (s *Store) DataBytes() int64 {
	return s.dataAllocated
}

// MetaBytes is the KV footprint plus the accounted extent/checksum
// records (both LSM-resident, so space-amplified) plus the EC metadata
// aggregate, which is calibrated directly against Table 3 and therefore
// not amplified again.
func (s *Store) MetaBytes() int64 {
	return s.kv.Footprint() + int64(s.cfg.KVSpaceAmp*float64(s.accountedMeta)) + s.ecMetaBytes
}

// UsedBytes is the OSD-level storage usage the paper measures for its
// Actual WA Factor: data allocation plus metadata footprint.
func (s *Store) UsedBytes() int64 {
	return s.DataBytes() + s.MetaBytes()
}

// SetDataWorkingSet tells the cache model how much data is hot (e.g. the
// bytes a recovery will read on this OSD).
func (s *Store) SetDataWorkingSet(bytes int64) {
	if s.frozen {
		panic("bluestore: SetDataWorkingSet on frozen store")
	}
	s.dataWorkingSet = bytes
	s.profileValid = false
}

// Freeze makes the store refuse every write, so a snapshot parent that
// leaks back into use fails loudly instead of drifting from the image its
// forks were taken from. Reads and Fork keep working. Idempotent. Freeze
// must happen before the store is shared: Fork reads without a lock.
func (s *Store) Freeze() {
	s.frozen = true
}

// Fork returns an independent writable copy of the store. cfg may change
// only recovery-side knobs (cache scheme and size); every field that
// shaped the on-disk layout during populate must match the parent,
// because the copy shares the parent's base runs and starts from copies
// of its overlay, device, KV store and accounting.
func (s *Store) Fork(cfg Config) (*Store, error) {
	cfg, err := normalizeConfig(cfg)
	if err != nil {
		return nil, err
	}
	layout := func(c Config) Config {
		c.Cache = CacheConfig{}
		c.CacheBytes = 0
		return c
	}
	if layout(cfg) != layout(s.cfg) {
		return nil, fmt.Errorf("bluestore: Fork config changes layout-relevant fields (%+v vs %+v)", layout(cfg), layout(s.cfg))
	}
	return &Store{
		cfg:            cfg,
		dev:            s.dev.Fork(),
		kv:             s.kv.Fork(),
		runs:           s.runs[:len(s.runs):len(s.runs)],
		chunks:         maps.Clone(s.chunks),
		count:          s.count,
		dataAllocated:  s.dataAllocated,
		nextOffset:     s.nextOffset,
		accountedMeta:  s.accountedMeta,
		ecMetaBytes:    s.ecMetaBytes,
		dataWorkingSet: s.dataWorkingSet,
	}, nil
}

// AccessProfile returns the modeled cache hit fractions for onode/meta
// lookups, KV reads, and data reads, under the configured cache scheme.
// Autotune performs a water-filling allocation across the three pools in
// proportion to their demand, which is what BlueStore's cache autotuner
// converges to. The fractions are computed when the store's contents or
// working set have changed since the last call and remembered otherwise.
func (s *Store) AccessProfile() (metaHit, kvHit, dataHit float64) {
	if !s.profileValid {
		s.profile = s.computeProfile()
		s.profileValid = true
	}
	return s.profile[0], s.profile[1], s.profile[2]
}

func (s *Store) computeProfile() [3]float64 {
	kvNeed := float64(s.kv.Footprint()) + s.cfg.KVSpaceAmp*float64(s.accountedMeta) + float64(s.ecMetaBytes)
	metaNeed := float64(int64(s.count) * s.cfg.OnodeBytes)
	dataNeed := float64(s.dataWorkingSet)
	total := float64(s.cfg.CacheBytes)

	var kvCache, metaCache, dataCache float64
	if s.cfg.Cache.Autotune {
		grant := waterFill(total, [3]float64{kvNeed, metaNeed, dataNeed})
		kvCache, metaCache, dataCache = grant[0], grant[1], grant[2]
	} else {
		rk, rm, rd := s.cfg.Cache.KVRatio, s.cfg.Cache.MetaRatio, s.cfg.Cache.DataRatio
		sum := rk + rm + rd
		if sum <= 0 {
			sum, rk, rm, rd = 1, 1.0/3, 1.0/3, 1.0/3
		}
		kvCache = total * rk / sum
		metaCache = total * rm / sum
		dataCache = total * rd / sum
	}
	hit := func(cache, need float64) float64 {
		if need <= 0 {
			return 1
		}
		f := cache / need
		if f > 1 {
			return 1
		}
		return f
	}
	return [3]float64{hit(metaCache, metaNeed), hit(kvCache, kvNeed), hit(dataCache, dataNeed)}
}

// waterFill splits cache across pools proportionally to demand, never
// granting a pool more than it needs, and redistributing the surplus.
// It works on arrays: no call allocates.
func waterFill(total float64, needs [3]float64) (grant [3]float64) {
	remaining := total
	for iter := 0; iter < 4; iter++ {
		sum := 0.0
		for _, n := range needs {
			sum += n
		}
		if sum <= 0 || remaining <= 0 {
			break
		}
		for i, n := range needs {
			if n <= 0 {
				continue
			}
			share := remaining * n / sum
			if share > n {
				share = n
			}
			grant[i] += share
			needs[i] -= share
		}
		granted := 0.0
		for _, g := range grant {
			granted += g
		}
		remaining = total - granted
	}
	return grant
}

// KV exposes the embedded KV store (for tests and the logger).
func (s *Store) KV() *kvstore.DB { return s.kv }

// Device exposes the backing device.
func (s *Store) Device() *blockdev.Device { return s.dev }
