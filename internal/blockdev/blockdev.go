// Package blockdev provides the virtual block devices that back the
// DataNodes' storage. A device is sparse and in-memory; it tracks
// iostat-style counters and can be "removed" at runtime, after which all
// I/O fails — the device-level fault the paper injects by deleting NVMe
// subsystems with nvmetcli.
//
// A Device has one owner, the goroutine driving its cluster, and takes no
// lock. Fork only reads, so a device no one writes any more — one under a
// frozen snapshot store — may be forked by several goroutines at once.
package blockdev

import (
	"errors"
	"fmt"
	"maps"
)

// Errors returned by device I/O.
var (
	ErrRemoved     = errors.New("blockdev: device removed")
	ErrOutOfRange  = errors.New("blockdev: I/O beyond device capacity")
	ErrInvalidArgs = errors.New("blockdev: invalid arguments")
)

// Stats are cumulative I/O counters, in the spirit of /proc/diskstats.
type Stats struct {
	ReadOps    int64
	WriteOps   int64
	ReadBytes  int64
	WriteBytes int64
	TrimOps    int64
}

// Device is a sparse in-memory block device. It is not safe for
// concurrent use; concurrent Forks of a device nobody writes are.
type Device struct {
	name      string
	capacity  int64
	blockSize int64

	// blocks may share their byte slices with forks of this device, so a
	// block is never written in place: WriteAt replaces it.
	blocks  map[int64][]byte
	stats   Stats
	removed bool
}

// New creates a device. blockSize must divide capacity.
func New(name string, capacity, blockSize int64) (*Device, error) {
	if capacity <= 0 || blockSize <= 0 || capacity%blockSize != 0 {
		return nil, fmt.Errorf("%w: capacity=%d blockSize=%d", ErrInvalidArgs, capacity, blockSize)
	}
	return &Device{
		name:      name,
		capacity:  capacity,
		blockSize: blockSize,
		blocks:    map[int64][]byte{},
	}, nil
}

// Name returns the device name.
func (d *Device) Name() string { return d.name }

// Capacity returns the device size in bytes.
func (d *Device) Capacity() int64 { return d.capacity }

// BlockSize returns the allocation block size.
func (d *Device) BlockSize() int64 { return d.blockSize }

func (d *Device) checkRange(off int64, n int) error {
	if off < 0 || n < 0 {
		return ErrInvalidArgs
	}
	if off+int64(n) > d.capacity {
		return fmt.Errorf("%w: off=%d len=%d cap=%d", ErrOutOfRange, off, n, d.capacity)
	}
	return nil
}

// ReadAt implements io.ReaderAt semantics over the sparse store;
// unwritten regions read as zero.
func (d *Device) ReadAt(p []byte, off int64) (int, error) {
	if d.removed {
		return 0, ErrRemoved
	}
	if err := d.checkRange(off, len(p)); err != nil {
		return 0, err
	}
	d.stats.ReadOps++
	d.stats.ReadBytes += int64(len(p))
	for n := 0; n < len(p); {
		blk := (off + int64(n)) / d.blockSize
		inOff := (off + int64(n)) % d.blockSize
		chunk := int(d.blockSize - inOff)
		if chunk > len(p)-n {
			chunk = len(p) - n
		}
		if b, ok := d.blocks[blk]; ok {
			copy(p[n:n+chunk], b[inOff:inOff+int64(chunk)])
		} else {
			for i := n; i < n+chunk; i++ {
				p[i] = 0
			}
		}
		n += chunk
	}
	return len(p), nil
}

// WriteAt implements io.WriterAt semantics, allocating blocks lazily.
func (d *Device) WriteAt(p []byte, off int64) (int, error) {
	if d.removed {
		return 0, ErrRemoved
	}
	if err := d.checkRange(off, len(p)); err != nil {
		return 0, err
	}
	d.stats.WriteOps++
	d.stats.WriteBytes += int64(len(p))
	for n := 0; n < len(p); {
		blk := (off + int64(n)) / d.blockSize
		inOff := (off + int64(n)) % d.blockSize
		chunk := int(d.blockSize - inOff)
		if chunk > len(p)-n {
			chunk = len(p) - n
		}
		b := make([]byte, d.blockSize)
		copy(b, d.blocks[blk])
		copy(b[inOff:inOff+int64(chunk)], p[n:n+chunk])
		d.blocks[blk] = b
		n += chunk
	}
	return len(p), nil
}

// Trim discards whole blocks covered by the range and counts a trim op.
func (d *Device) Trim(off, length int64) error {
	if d.removed {
		return ErrRemoved
	}
	if err := d.checkRange(off, int(length)); err != nil {
		return err
	}
	d.stats.TrimOps++
	first := (off + d.blockSize - 1) / d.blockSize
	last := (off + length) / d.blockSize
	for blk := first; blk < last; blk++ {
		delete(d.blocks, blk)
	}
	return nil
}

// AccountRead records a read of n bytes without moving data, used by the
// accounting-only simulation path for large synthetic workloads.
func (d *Device) AccountRead(n int64) error {
	if d.removed {
		return ErrRemoved
	}
	d.stats.ReadOps++
	d.stats.ReadBytes += n
	return nil
}

// AccountWrite records a write of n bytes without moving data.
func (d *Device) AccountWrite(n int64) error {
	if d.removed {
		return ErrRemoved
	}
	d.stats.WriteOps++
	d.stats.WriteBytes += n
	return nil
}

// AccountWrites records n writes totalling bytes without moving data,
// one step for a whole bulk ingest.
func (d *Device) AccountWrites(bytes, n int64) error {
	if d.removed {
		return ErrRemoved
	}
	d.stats.WriteOps += n
	d.stats.WriteBytes += bytes
	return nil
}

// Used reports allocated bytes (whole blocks).
func (d *Device) Used() int64 {
	return int64(len(d.blocks)) * d.blockSize
}

// Remove simulates pulling the device: every subsequent operation fails
// with ErrRemoved. Contents are dropped.
func (d *Device) Remove() {
	d.removed = true
	d.blocks = map[int64][]byte{}
}

// Removed reports whether the device has been removed.
func (d *Device) Removed() bool {
	return d.removed
}

// Snapshot returns a copy of the cumulative counters.
func (d *Device) Snapshot() Stats {
	return d.stats
}

// Fork returns an independent copy of the device: its blocks and a copy
// of its counters, so iostat deltas line up with a fresh-built device that
// replayed the same history. The copies share block slices, which neither
// side writes in place. A removed device forks to a removed device.
func (d *Device) Fork() *Device {
	return &Device{
		name:      d.name,
		capacity:  d.capacity,
		blockSize: d.blockSize,
		blocks:    maps.Clone(d.blocks),
		stats:     d.stats,
		removed:   d.removed,
	}
}
