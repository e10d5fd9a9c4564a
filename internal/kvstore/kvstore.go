// Package kvstore is a small key-value store standing in for the
// RocksDB instance embedded in BlueStore. Besides Get/Put/Delete it
// tracks the quantities the write-amplification study needs: logical entry
// bytes, cumulative WAL bytes (every mutation is journaled), and an
// on-disk footprint that applies a configurable space-amplification factor
// representing LSM compaction overhead.
//
// A DB has one owner, the goroutine driving its cluster, and takes no
// lock; Get counts, so even a read is an owner operation. Fork only
// reads, so a store no one writes any more — one under a frozen snapshot
// store — may be forked by several goroutines at once.
package kvstore

import "maps"

// perEntryOverhead approximates per-record framing in the WAL and SSTs
// (sequence number, CRC, lengths).
const perEntryOverhead = 24

// DB is an in-memory KV store with accounting. It is not safe for
// concurrent use; concurrent Forks of a store nobody writes are.
type DB struct {
	// data may share its values with forks of this store; Put stores a
	// private copy and nothing writes a stored value in place.
	data map[string][]byte

	spaceAmp float64 // on-disk footprint multiplier, >= 1

	logicalBytes int64 // live keys+values
	walBytes     int64 // cumulative journaled bytes
	puts         int64
	deletes      int64
	gets         int64
}

// Open creates a store. spaceAmp < 1 is clamped to 1.
func Open(spaceAmp float64) *DB {
	if spaceAmp < 1 {
		spaceAmp = 1
	}
	return &DB{data: map[string][]byte{}, spaceAmp: spaceAmp}
}

// Put inserts or replaces a key.
func (db *DB) Put(key string, value []byte) {
	entry := int64(len(key)+len(value)) + perEntryOverhead
	db.walBytes += entry
	if old, ok := db.data[key]; ok {
		db.logicalBytes -= int64(len(key)+len(old)) + perEntryOverhead
	}
	db.data[key] = append([]byte(nil), value...)
	db.logicalBytes += entry
	db.puts++
}

// PutAccounted journals and accounts an entry of the given key and value
// lengths without materializing it. Bulk synthetic workloads store
// millions of onode records whose bytes nobody ever reads back; this
// keeps their WAL/logical/footprint arithmetic identical to Put at zero
// allocation. The entry is invisible to Get/Len, so callers must
// pair it with DeleteAccounted rather than Delete.
func (db *DB) PutAccounted(keyLen, valueLen int) {
	db.PutAccountedN(int64(keyLen), int64(valueLen), 1)
}

// PutAccountedN accounts n invisible entries totalling keyBytes of keys
// and valueBytes of values in one step.
func (db *DB) PutAccountedN(keyBytes, valueBytes, n int64) {
	entry := keyBytes + valueBytes + n*perEntryOverhead
	db.walBytes += entry
	db.logicalBytes += entry
	db.puts += n
}

// DeleteAccounted reverses a PutAccounted entry, journaling the tombstone
// exactly as Delete would.
func (db *DB) DeleteAccounted(keyLen, valueLen int) {
	db.walBytes += int64(keyLen) + perEntryOverhead
	db.logicalBytes -= int64(keyLen+valueLen) + perEntryOverhead
	db.deletes++
}

// Get fetches a key, returning a copy.
func (db *DB) Get(key string) ([]byte, bool) {
	db.gets++
	v, ok := db.data[key]
	var out []byte
	if ok {
		out = append([]byte(nil), v...)
	}
	return out, ok
}

// Delete removes a key; the tombstone is journaled.
func (db *DB) Delete(key string) {
	db.walBytes += int64(len(key)) + perEntryOverhead
	if old, ok := db.data[key]; ok {
		db.logicalBytes -= int64(len(key)+len(old)) + perEntryOverhead
		delete(db.data, key)
	}
	db.deletes++
}

// Len returns the number of live keys.
func (db *DB) Len() int {
	return len(db.data)
}

// LogicalBytes is the size of live entries (keys + values + framing).
func (db *DB) LogicalBytes() int64 {
	return db.logicalBytes
}

// Footprint is the modeled on-disk size: live bytes times the LSM
// space-amplification factor.
func (db *DB) Footprint() int64 {
	return int64(float64(db.logicalBytes) * db.spaceAmp)
}

// WALBytes is the cumulative journaled byte count (device write traffic).
func (db *DB) WALBytes() int64 {
	return db.walBytes
}

// Ops reports operation counts (puts, gets, deletes).
func (db *DB) Ops() (puts, gets, deletes int64) {
	return db.puts, db.gets, db.deletes
}

// Fork returns an independent copy of the store: its entries and a copy
// of its accounting, so WAL and footprint deltas match a fresh store that
// replayed the same history.
func (db *DB) Fork() *DB {
	return &DB{
		data:         maps.Clone(db.data),
		spaceAmp:     db.spaceAmp,
		logicalBytes: db.logicalBytes,
		walBytes:     db.walBytes,
		puts:         db.puts,
		deletes:      db.deletes,
		gets:         db.gets,
	}
}
