// Package iostat samples per-device I/O counters over simulated time, the
// role iostat plays on each DSS server in the paper's methodology. The
// samples feed the breakdown analysis (when did recovery I/O actually
// start and stop on each device).
//
// A Sampler belongs to one run and is driven from its simulator's
// goroutine, like the devices it reads; it takes no lock. The buffer it
// grows its samples in outlives it: Samples hands it to the next
// sampler's first Sample, on any goroutine, through a parallel.Spares.
package iostat

import (
	"fmt"
	"slices"
	"strings"

	"repro/internal/blockdev"
	"repro/internal/parallel"
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
	lent    bool // samples is the slice Samples returned, not the growth buffer
}

// spareBuffers holds the growth buffers of samplers whose samples were
// taken, cleared and cut to length 0.
var spareBuffers parallel.Spares[[]Sample]

// tracked is one device and its counters at the previous sample.
type tracked struct {
	name string
	dev  *blockdev.Device
	last blockdev.Stats
}

// NewSampler creates an empty sampler.
func NewSampler() *Sampler { return &Sampler{} }

// TrackFrom registers a device under a unique name, with an explicit
// baseline for the first delta (dev.Snapshot() deltas against its
// counters now). Forked clusters inherit their parent's populate-phase
// counters, so tracking them from a zero baseline reports the same
// first-sample deltas a fresh cluster tracked from birth would.
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
	// size over a run. The first tick starts from a spare buffer, if an
	// earlier sampler left one.
	if cap(s.samples)-len(s.samples) < len(s.devs) {
		if s.samples == nil {
			s.samples = spareBuffers.Get()
		}
		s.samples = slices.Grow(s.samples, max(len(s.devs), len(s.samples)))
		s.lent = false
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

// Samples returns all recorded samples in time order, as a copy of their
// exact length that the caller owns. The sampler hands its growth buffer
// on to the next sampler; samples it records later append to the copy,
// which its length-equal capacity turns into a reallocation, so neither
// they nor an append by the caller reaches the other. Calls across rounds
// are cumulative: each returns every sample recorded so far.
func (s *Sampler) Samples() []Sample {
	var out []Sample
	if len(s.samples) > 0 {
		out = make([]Sample, len(s.samples))
		copy(out, s.samples)
	}
	if s.samples != nil && !s.lent {
		clear(s.samples)
		spareBuffers.Put(s.samples[:0])
	}
	s.samples, s.lent = out, true
	return out
}
