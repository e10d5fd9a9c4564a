// Package bluestore models the Ceph BlueStore object store closely enough
// to reproduce the paper's two backend-sensitive results: the effect of the
// KV/metadata/data cache ratios on recovery time (Fig. 2a) and OSD-level
// write amplification (Table 3, §4.4).
//
// Each OSD owns one Store sitting on a virtual block device. Chunk writes
// allocate min_alloc-rounded space, account one onode record per chunk in
// the embedded key-value store (the RocksDB stand-in, kept as its live byte
// count), account extent/checksum metadata, and account the EC-related
// metadata whose aggregate size the paper observes but does not decompose
// (see ecMetaFraction). Payload-mode chunks keep their bytes in the store;
// every byte read or written is charged to the device's counters.
//
// A Store has one owner: the goroutine driving its cluster. It takes no
// lock. The one store several goroutines share is a frozen one, a
// snapshot parent: nothing writes it, so any number of them may Fork it
// at once. Reads that count — ReadChunk and ScrubChunk bump device
// counters, AccessProfile writes its memo — stay owner operations, even
// on a frozen store.
package bluestore

import (
	"bytes"
	"errors"
	"fmt"
	"hash/crc32"
	"maps"
	"slices"
	"strconv"

	"repro/internal/blockdev"
)

// ErrNoSuchChunk is returned when reading, scrubbing or corrupting an
// unknown chunk.
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

// The on-disk layout of a Quincy-era SSD OSD. Nothing sets these: they are
// the calibration every experiment shares.
const (
	// blobSize caps a single blob; one extent-map entry is recorded per
	// blob of a chunk write.
	blobSize = 512 << 10
	// csumChunkSize is the checksum granularity; csumEntryBytes are stored
	// per checksum chunk.
	csumChunkSize  = 4096
	csumEntryBytes = 4
	// onodeBytes is the serialized onode record size per chunk object.
	onodeBytes = 520
	// extentEntryBytes is the extent-map entry size per blob.
	extentEntryBytes = 48
	// ecMetaFraction models the EC-related metadata the paper's S_meta
	// term aggregates (hash_info attributes, PG-log dup entries, LSM
	// overhead attributable to the object). It is charged as a fraction
	// of the chunk's logical share of the object and calibrated once
	// against Table 3 (see EXPERIMENTS.md).
	ecMetaFraction = 0.26
	// kvSpaceAmp is the RocksDB space-amplification factor.
	kvSpaceAmp = 1.35
	// kvEntryOverhead approximates per-record framing in the RocksDB WAL
	// and SSTs (sequence number, CRC, lengths).
	kvEntryOverhead = 24
)

// Config parameterizes the store. Zero values take defaults.
type Config struct {
	// MinAllocSize is the allocation granularity (bluestore_min_alloc_size).
	MinAllocSize int64
	// CacheBytes is the total cache available to the three pools.
	CacheBytes int64
	Cache      CacheConfig
}

// DefaultConfig mirrors a Quincy-era SSD OSD.
func DefaultConfig() Config {
	return Config{MinAllocSize: 4096, CacheBytes: 3 << 30, Cache: CacheAutotune}
}

// ChunkID names one EC shard of one object. It is the identity chunks
// carry across the cluster/bluestore boundary: comparable, so it keys the
// overlay map directly, and only rendered as a string for log and error
// text.
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

// onodeEntry is the KV bytes of the chunk's onode record: key, value and
// framing.
func (id ChunkID) onodeEntry() int64 {
	return int64(id.kvKeyLen()) + onodeBytes + kvEntryOverhead
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
// placement group, strictly increasing by Name: a sorted table a lookup
// binary-searches. It is immutable and shared: the PG's object list, every
// store holding a shard of the PG and every fork of those stores point at
// the same records, so a bulk-loaded chunk costs no per-chunk state
// anywhere.
type BulkPG struct {
	pool      string
	pg        int
	shards    int // n of the code: a chunk's logical share is Size/shards
	objects   []ObjectRecord
	nameBytes int64 // sum of len(Name) over objects
}

// ErrRepeatedName is returned by NewBulkPG for a name that occurs twice.
var ErrRepeatedName = errors.New("bluestore: repeated object name")

// NewBulkPG makes a placement group's bulk-loaded objects one shared
// table. The records must be strictly increasing by Name: the first name
// out of order is refused, and a repeated one with ErrRepeatedName. The
// caller must not modify objects afterwards.
func NewBulkPG(pool string, pg, shards int, objects []ObjectRecord) (*BulkPG, error) {
	if shards <= 0 {
		return nil, fmt.Errorf("bluestore: bulk PG needs a positive shard count, got %d", shards)
	}
	b := &BulkPG{pool: pool, pg: pg, shards: shards, objects: objects}
	for i := range objects {
		o := &objects[i]
		if o.ChunkSize < 0 || o.Size < 0 {
			return nil, fmt.Errorf("bluestore: negative sizes")
		}
		if i > 0 {
			switch prev := objects[i-1].Name; {
			case o.Name == prev:
				return nil, fmt.Errorf("%w: %q", ErrRepeatedName, o.Name)
			case o.Name < prev:
				return nil, fmt.Errorf("bluestore: bulk PG objects out of name order: %q after %q", o.Name, prev)
			}
		}
		b.nameBytes += int64(len(o.Name))
	}
	return b, nil
}

// baseRun is one shard of a bulk-loaded PG held by a store.
type baseRun struct {
	pg    *BulkPG
	shard int
}

// find returns the chunk's record in the run and its position, or nil when
// the run is of another (pool, PG, shard) or does not hold the object.
func (r *baseRun) find(id ChunkID) (*ObjectRecord, int32) {
	if r.pg.pg != id.PG || r.shard != id.Shard || r.pg.pool != id.Pool {
		return nil, 0
	}
	objs := r.pg.objects
	lo, hi := 0, len(objs)
	for lo < hi {
		if m := int(uint(lo+hi) >> 1); objs[m].Name < id.Object {
			lo = m + 1
		} else {
			hi = m
		}
	}
	if lo == len(objs) || objs[lo].Name != id.Object {
		return nil, 0
	}
	return &objs[lo], int32(lo)
}

// info is the accounting of the run's chunk of o.
func (r *baseRun) info(o *ObjectRecord) chunkInfo {
	return chunkInfo{size: o.ChunkSize, share: o.Size / int64(r.pg.shards)}
}

// recoveredRun is a shard of a bulk-loaded PG a recovery target is
// rebuilding: the run ExpectRun declared, plus one bit per object of the
// PG, set once the object's chunk is written with its record's size and
// share. It is a type of its own, not a field of baseRun, so the base run
// tables every populate builds stay two words an entry.
type recoveredRun struct {
	baseRun
	have []uint64
}

func (r *recoveredRun) has(j int32) bool { return r.have[j>>6]&(1<<(j&63)) != 0 }

type chunkInfo struct {
	size      int64
	share     int64 // logical object share used for EC metadata accounting
	hasData   bool  // payload mode: the bytes are in Store.payloads
	corrupted bool  // accounting-mode corruption marker
}

// chunkData is a payload-mode chunk's bytes and their crc32 at write time.
type chunkData struct {
	bytes []byte
	crc   uint32
}

// Store is one OSD's object store. It is not safe for concurrent use,
// except that a frozen store may be forked by several goroutines at once.
type Store struct {
	cfg Config
	dev *blockdev.Device

	// runs is the bulk base: one entry per (pool, PG, shard) ingested
	// through WriteChunksBulk. Entries are immutable and the slice is
	// append-only, so a fork shares its parent's table as is.
	runs []baseRun
	// recovered is the runs ExpectRun declared, with the objects written
	// so far. Unlike runs, each is the store's own: Fork copies the bits.
	recovered []recoveredRun
	// chunks is the overlay over both kinds of run: chunks written,
	// rewritten or corrupted one at a time. An entry for a chunk a run
	// also holds shadows it; nothing removes a chunk. Every lookup, on
	// root and forked stores alike, is overlay first, then base runs, then
	// recovered runs.
	chunks map[ChunkID]chunkInfo
	count  int // visible chunks: runs + recovered bits + overlay - shadows
	frozen bool
	// payloads holds the bytes of payload-mode chunks, nil until the first
	// payload write. A fork starts from a copy of the map that shares the
	// byte slices, so a stored slice is never written in place: a write or
	// a corruption stores a new one.
	payloads map[ChunkID]chunkData

	dataAllocated int64
	nextOffset    int64 // bump allocator for payload placement: device-full check
	// kvBytes is the KV store's live bytes: one onode record per visible
	// chunk (see onodeEntry). Its footprint is kvBytes × kvSpaceAmp.
	kvBytes int64

	// accountedMeta tracks extent-map and checksum record bytes, which are
	// accounted rather than materialized to keep large synthetic workloads
	// cheap.
	accountedMeta int64
	// ecMetaBytes is the accounted EC metadata (see ecMetaFraction).
	ecMetaBytes int64

	dataWorkingSet int64 // set by the experiment runner; see SetDataWorkingSet

	// profile memoises AccessProfile. Everything it reads — the KV
	// footprint, accountedMeta, ecMetaBytes, count, dataWorkingSet and the
	// config — changes only in WriteChunk, WriteChunksBulk and
	// SetDataWorkingSet, which clear profileValid; recovery asks once per
	// helper per repaired object in between.
	profile      [3]float64
	profileValid bool
}

// normalizeConfig applies the zero-value defaults Config documents.
func normalizeConfig(cfg Config) Config {
	def := DefaultConfig()
	if cfg.MinAllocSize <= 0 {
		cfg.MinAllocSize = def.MinAllocSize
	}
	if cfg.CacheBytes <= 0 {
		cfg.CacheBytes = def.CacheBytes
	}
	if cfg.Cache == (CacheConfig{}) {
		cfg.Cache = def.Cache
	}
	return cfg
}

// Open creates a store over a device.
func Open(dev *blockdev.Device, cfg Config) *Store {
	return &Store{cfg: normalizeConfig(cfg), dev: dev, chunks: map[ChunkID]chunkInfo{}}
}

func roundUp(v, to int64) int64 { return (v + to - 1) / to * to }

func ceilDiv(a, b int64) int64 { return (a + b - 1) / b }

// lookup resolves a chunk through the overlay, the base runs and then the
// recovered runs.
func (s *Store) lookup(id ChunkID) (chunkInfo, bool) {
	info, ok, _, _ := s.locate(id)
	return info, ok
}

// locate is lookup that, on a miss, also reports the recovered run
// declared for the chunk and the object's position in it (nil when no
// run was declared for it). The base runs of a recovery target's PG are on
// other stores, so there a write's scan of them misses on integer
// compares alone.
func (s *Store) locate(id ChunkID) (info chunkInfo, ok bool, rr *recoveredRun, j int32) {
	if info, ok := s.chunks[id]; ok {
		return info, true, nil, 0
	}
	for i := range s.runs {
		if o, _ := s.runs[i].find(id); o != nil {
			return s.runs[i].info(o), true, nil, 0
		}
	}
	for i := range s.recovered {
		r := &s.recovered[i]
		if o, j := r.find(id); o != nil {
			if r.has(j) {
				return r.info(o), true, nil, 0
			}
			return chunkInfo{}, false, r, j
		}
	}
	return chunkInfo{}, false, nil, 0
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
// the write is accounting-only. A write over a stored chunk — recovery
// or scrub repair rewriting it — replaces it, in the overlay even when
// a run holds it; a refused write leaves the old chunk as it was. A new
// chunk of a run ExpectRun declared, written accounting-only with its
// record's size and share, sets the object's bit in the run instead of
// taking an overlay entry; the accounting is the same.
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
	info := chunkInfo{size: size, share: objectShare, hasData: payload != nil}
	allocated := roundUp(size, s.cfg.MinAllocSize)
	if info.hasData && s.nextOffset+allocated > s.dev.Capacity() {
		return fmt.Errorf("bluestore: device full (%d + %d > %d)", s.nextOffset, allocated, s.dev.Capacity())
	}
	if err := s.dev.AccountWrite(size); err != nil {
		return fmt.Errorf("bluestore: %w", err)
	}
	old, ok, rr, j := s.locate(id)
	if ok {
		// The replaced chunk's accounting leaves the totals; the overlay
		// entry below hides it.
		s.dataAllocated -= roundUp(old.size, s.cfg.MinAllocSize)
		s.accountedMeta -= s.metaRecordBytes(old.size)
		s.ecMetaBytes -= s.ecMeta(old.share)
		s.kvBytes -= id.onodeEntry()
		if old.hasData {
			delete(s.payloads, id)
		}
		s.count--
	}
	s.profileValid = false
	if info.hasData {
		s.nextOffset += allocated
		if s.payloads == nil {
			s.payloads = map[ChunkID]chunkData{}
		}
		s.payloads[id] = chunkData{bytes: bytes.Clone(payload), crc: crc32.ChecksumIEEE(payload)}
	}
	s.dataAllocated += allocated
	s.kvBytes += id.onodeEntry()
	s.accountedMeta += s.metaRecordBytes(size)
	s.ecMetaBytes += s.ecMeta(objectShare)
	if rr != nil && info == rr.info(&rr.pg.objects[j]) {
		rr.have[j>>6] |= 1 << (j & 63)
	} else {
		s.chunks[id] = info
	}
	s.count++
	return nil
}

// ExpectRun declares that the store is about to receive shard `shard` of
// the objects of a bulk-loaded PG one chunk at a time, as a recovery
// target does: those writes then cost one bit each instead of an overlay
// entry. It changes no visible state, and declaring a run twice is
// declaring it once.
func (s *Store) ExpectRun(pg *BulkPG, shard int) error {
	if err := s.checkMutable("ExpectRun"); err != nil {
		return err
	}
	for i := range s.recovered {
		if r := &s.recovered[i]; r.pg == pg && r.shard == shard {
			return nil
		}
	}
	s.recovered = append(s.recovered, recoveredRun{
		baseRun: baseRun{pg: pg, shard: shard},
		have:    make([]uint64, (len(pg.objects)+63)/64),
	})
	return nil
}

// WriteChunksBulk ingests shard `shard` of every object of a bulk-loaded
// PG as one base run: byte-for-byte the same device, KV and metadata
// accounting as calling WriteChunk(id, ChunkSize, Size/shards, nil) per
// object, in one device accounting call and without any per-chunk state.
// Chunks must be new to the store — bulk ingest targets objects the pool
// does not hold yet.
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
	s.kvBytes += keyBytes + n*(onodeBytes+kvEntryOverhead)
	s.dataAllocated += allocSum
	s.accountedMeta += metaSum
	s.ecMetaBytes += ecSum
	s.runs = append(s.runs, baseRun{pg: pg, shard: shard})
	s.count += len(pg.objects)
	return nil
}

// metaRecordBytes is the extent-map plus checksum record size for a chunk.
func (s *Store) metaRecordBytes(size int64) int64 {
	extents := ceilDiv(size, blobSize)
	csums := ceilDiv(size, csumChunkSize)
	return extents*extentEntryBytes + csums*csumEntryBytes
}

// ecMeta is the accounted EC metadata for a chunk of the given share.
func (s *Store) ecMeta(share int64) int64 {
	return int64(ecMetaFraction * float64(share))
}

// ReadChunk returns the chunk size and, for payload-mode chunks, a copy of
// its bytes. Device read counters are bumped either way.
func (s *Store) ReadChunk(id ChunkID) (int64, []byte, error) {
	info, ok := s.lookup(id)
	if !ok {
		return 0, nil, fmt.Errorf("%w: %s", ErrNoSuchChunk, id)
	}
	if err := s.dev.AccountRead(info.size); err != nil {
		return 0, nil, fmt.Errorf("bluestore: %w", err)
	}
	if !info.hasData {
		return info.size, nil, nil
	}
	return info.size, bytes.Clone(s.payloads[id].bytes), nil
}

// CorruptChunk simulates silent data corruption (bit rot) in a stored
// chunk: payload-mode chunks get a byte in the middle flipped, read and
// written back through the device, and accounting-mode chunks are marked
// corrupt. The stored checksum is left intact, so only a scrub can tell.
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
	if !info.hasData {
		return nil
	}
	if err := s.dev.AccountRead(1); err != nil {
		return err
	}
	if err := s.dev.AccountWrite(1); err != nil {
		return err
	}
	d := s.payloads[id]
	d.bytes = bytes.Clone(d.bytes)
	if len(d.bytes) > 0 {
		d.bytes[len(d.bytes)/2] ^= 0xFF
	}
	s.payloads[id] = d
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
	if err := s.dev.AccountRead(info.size); err != nil {
		return false, fmt.Errorf("bluestore: %w", err)
	}
	d := s.payloads[id]
	return crc32.ChecksumIEEE(d.bytes) == d.crc, nil
}

// HasChunk reports whether the chunk exists.
func (s *Store) HasChunk(id ChunkID) bool {
	_, ok := s.lookup(id)
	return ok
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
	return s.kvFootprint() + int64(kvSpaceAmp*float64(s.accountedMeta)) + s.ecMetaBytes
}

// kvFootprint is the KV store's modeled on-disk size: live bytes times the
// LSM space amplification.
func (s *Store) kvFootprint() int64 {
	return int64(float64(s.kvBytes) * kvSpaceAmp)
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
// only recovery-side knobs (cache scheme and size); MinAllocSize shaped the
// on-disk layout during populate and must match the parent, because the
// copy shares the parent's base runs and payload bytes and starts from
// copies of its recovered runs, overlay, device and accounting.
func (s *Store) Fork(cfg Config) (*Store, error) {
	cfg = normalizeConfig(cfg)
	if cfg.MinAllocSize != s.cfg.MinAllocSize {
		return nil, fmt.Errorf("bluestore: Fork changes MinAllocSize (%d vs %d)", cfg.MinAllocSize, s.cfg.MinAllocSize)
	}
	return &Store{
		cfg:            cfg,
		dev:            s.dev.Fork(),
		runs:           s.runs[:len(s.runs):len(s.runs)],
		recovered:      cloneRecovered(s.recovered),
		chunks:         maps.Clone(s.chunks),
		count:          s.count,
		payloads:       maps.Clone(s.payloads),
		dataAllocated:  s.dataAllocated,
		nextOffset:     s.nextOffset,
		kvBytes:        s.kvBytes,
		accountedMeta:  s.accountedMeta,
		ecMetaBytes:    s.ecMetaBytes,
		dataWorkingSet: s.dataWorkingSet,
	}, nil
}

// cloneRecovered copies recovered runs, bits included.
func cloneRecovered(runs []recoveredRun) []recoveredRun {
	runs = slices.Clone(runs)
	for i := range runs {
		runs[i].have = slices.Clone(runs[i].have)
	}
	return runs
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
	kvNeed := float64(s.kvFootprint()) + kvSpaceAmp*float64(s.accountedMeta) + float64(s.ecMetaBytes)
	metaNeed := float64(int64(s.count) * onodeBytes)
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

// Device exposes the backing device.
func (s *Store) Device() *blockdev.Device { return s.dev }
