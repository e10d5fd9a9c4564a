// Package blockdev provides the virtual block devices that back the
// DataNodes' storage. A device holds no bytes: it has a capacity,
// iostat-style counters that its store charges every I/O to, and can be
// "removed" at runtime, after which all I/O fails — the device-level fault
// the paper injects by deleting NVMe subsystems with nvmetcli.
//
// A Device has one owner, the goroutine driving its cluster, and takes no
// lock. Fork only reads, so a device no one writes any more — one under a
// frozen snapshot store — may be forked by several goroutines at once.
package blockdev

import (
	"errors"
	"fmt"
)

// Errors returned by New and by device I/O.
var (
	ErrRemoved     = errors.New("blockdev: device removed")
	ErrInvalidArgs = errors.New("blockdev: invalid arguments")
)

// Stats are cumulative I/O counters, in the spirit of /proc/diskstats.
type Stats struct {
	ReadOps    int64
	WriteOps   int64
	ReadBytes  int64
	WriteBytes int64
}

// Device is a virtual block device. It is not safe for concurrent use;
// concurrent Forks of a device nobody writes are.
type Device struct {
	capacity int64
	stats    Stats
	removed  bool
}

// New creates a device of the given size in bytes.
func New(capacity int64) (*Device, error) {
	if capacity <= 0 {
		return nil, fmt.Errorf("%w: capacity=%d", ErrInvalidArgs, capacity)
	}
	return &Device{capacity: capacity}, nil
}

// Capacity returns the device size in bytes.
func (d *Device) Capacity() int64 { return d.capacity }

// AccountRead records a read of n bytes.
func (d *Device) AccountRead(n int64) error {
	if d.removed {
		return ErrRemoved
	}
	d.stats.ReadOps++
	d.stats.ReadBytes += n
	return nil
}

// AccountWrite records a write of n bytes.
func (d *Device) AccountWrite(n int64) error {
	return d.AccountWrites(n, 1)
}

// AccountWrites records n writes totalling bytes, one step for a whole
// bulk ingest.
func (d *Device) AccountWrites(bytes, n int64) error {
	if d.removed {
		return ErrRemoved
	}
	d.stats.WriteOps += n
	d.stats.WriteBytes += bytes
	return nil
}

// Remove simulates pulling the device: every subsequent operation fails
// with ErrRemoved.
func (d *Device) Remove() {
	d.removed = true
}

// Removed reports whether the device has been removed.
func (d *Device) Removed() bool {
	return d.removed
}

// Snapshot returns a copy of the cumulative counters.
func (d *Device) Snapshot() Stats {
	return d.stats
}

// Fork returns an independent copy of the device, counters included, so
// iostat deltas line up with a fresh-built device that replayed the same
// history. A removed device forks to a removed device.
func (d *Device) Fork() *Device {
	f := *d
	return &f
}
