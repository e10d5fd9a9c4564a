// Package iostat samples per-device I/O counters over simulated time, the
// role iostat plays on each DSS server in the paper's methodology. The
// samples feed the breakdown analysis (when did recovery I/O actually
// start and stop on each device).
//
// A Sampler belongs to one run and is driven from its simulator's
// goroutine, like the devices it reads; it takes no lock.
package iostat

import (
	"fmt"
	"slices"
	"strings"

	"repro/internal/blockdev"
	"repro/internal/simclock"
)

// Sample is a point-in-time delta of a device's counters.
type Sample struct {
	Time       simclock.Time
	Device     string
	ReadOps    int64
	WriteOps   int64
	ReadBytes  int64
	WriteBytes int64
}

// Sampler tracks a set of devices and records counter deltas. It is not
// safe for concurrent use.
type Sampler struct {
	devs    []tracked // sorted by name: the order a tick records them in
	samples []Sample
}

// tracked is one device and its counters at the previous sample.
type tracked struct {
	name string
	dev  *blockdev.Device
	last blockdev.Stats
}

// NewSampler creates an empty sampler.
func NewSampler() *Sampler { return &Sampler{} }

// Track registers a device under a unique name. The first sample deltas
// against the device's counters at track time.
func (s *Sampler) Track(name string, dev *blockdev.Device) error {
	return s.TrackFrom(name, dev, dev.Snapshot())
}

// TrackFrom registers a device with an explicit baseline for the first
// delta. Forked clusters inherit their parent's populate-phase counters,
// so tracking them from a zero baseline reports the same first-sample
// deltas a fresh cluster tracked from birth would.
func (s *Sampler) TrackFrom(name string, dev *blockdev.Device, baseline blockdev.Stats) error {
	i, dup := slices.BinarySearchFunc(s.devs, name, func(d tracked, n string) int { return strings.Compare(d.name, n) })
	if dup {
		return fmt.Errorf("iostat: device %q already tracked", name)
	}
	s.devs = slices.Insert(s.devs, i, tracked{name: name, dev: dev, last: baseline})
	return nil
}

// Sample records deltas for all tracked devices at simulated time t.
func (s *Sampler) Sample(t simclock.Time) {
	// Grow by doubling when a tick does not fit: append alone grows a large
	// slice by about 1.25x a time, which allocates several times the final
	// size over a run.
	if cap(s.samples)-len(s.samples) < len(s.devs) {
		s.samples = slices.Grow(s.samples, max(len(s.devs), len(s.samples)))
	}
	for i := range s.devs {
		d := &s.devs[i]
		cur := d.dev.Snapshot()
		s.samples = append(s.samples, Sample{
			Time:       t,
			Device:     d.name,
			ReadOps:    cur.ReadOps - d.last.ReadOps,
			WriteOps:   cur.WriteOps - d.last.WriteOps,
			ReadBytes:  cur.ReadBytes - d.last.ReadBytes,
			WriteBytes: cur.WriteBytes - d.last.WriteBytes,
		})
		d.last = cur
	}
}

// Samples returns all recorded samples in time order. The slice is the
// sampler's own, clipped to its length: recorded samples are never written
// again, and an append by the caller reallocates instead of reaching the
// sampler.
func (s *Sampler) Samples() []Sample {
	return slices.Clip(s.samples)
}
