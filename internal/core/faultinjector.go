package core

import (
	"errors"
	"fmt"
	"sort"
	"time"

	"repro/internal/cluster"
	"repro/internal/erasure"
	"repro/internal/simclock"
)

// ErrExceedsTolerance is returned when a planned fault would lose more
// chunks in some placement group than the code can repair — the white-box
// guarantee of §3.2.
var ErrExceedsTolerance = errors.New("core: fault plan exceeds the pool's fault tolerance")

// FaultInjector plans and applies the profiled faults against a cluster.
// Planning is EC-aware: it uses placement knowledge to pick targets that
// actually hold data, and refuses plans that exceed n-k failures within
// the failure domain.
type FaultInjector struct {
	c    *cluster.Cluster
	pool string
}

// NewFaultInjector binds an injector to a cluster and pool.
func NewFaultInjector(c *cluster.Cluster, pool string) *FaultInjector {
	return &FaultInjector{c: c, pool: pool}
}

// Corruption targets one object's shard for silent damage.
type Corruption struct {
	Object string
	Shard  int
}

// PlannedFault is a resolved fault: concrete OSD targets (node/device
// levels) or chunk targets (corruption level), and a time.
type PlannedFault struct {
	Spec        FaultSpec
	At          simclock.Time
	OSDs        []int
	Corruptions []Corruption
}

// heaviestOSDs returns a host's untaken OSD ids ordered by chunk count
// descending (ties by id), so device faults hit data-bearing devices
// first.
func (f *FaultInjector) heaviestOSDs(host string, osdCounts map[int]int, taken map[int]bool) []int {
	var ids []int
	for _, id := range f.c.Crush().OSDsOnHost(host) {
		if !taken[id] {
			ids = append(ids, id)
		}
	}
	sort.Slice(ids, func(i, j int) bool {
		if osdCounts[ids[i]] != osdCounts[ids[j]] {
			return osdCounts[ids[i]] > osdCounts[ids[j]]
		}
		return ids[i] < ids[j]
	})
	return ids
}

// PlanAll plans a fault list cumulatively: a later spec never selects an
// OSD an earlier one took, and the white-box guard runs over the union of
// what the list takes down.
func (f *FaultInjector) PlanAll(specs []FaultSpec) ([]PlannedFault, error) {
	out := make([]PlannedFault, 0, len(specs))
	taken := map[int]bool{}
	for i, s := range specs {
		pf, err := f.plan(s, taken)
		if err != nil {
			return nil, fmt.Errorf("core: fault %d: %w", i, err)
		}
		out = append(out, pf)
	}
	return out, nil
}

// plan resolves one spec given the OSDs already taken, adds its targets
// to taken and guards the union.
func (f *FaultInjector) plan(spec FaultSpec, taken map[int]bool) (PlannedFault, error) {
	at, err := injectionTime(spec.AtSeconds)
	pf := PlannedFault{Spec: spec, At: at}
	if err != nil {
		return pf, err
	}
	switch {
	case len(spec.OSDs) > 0:
		pf.OSDs = append([]int(nil), spec.OSDs...)
	case spec.Level == FaultLevelCorruption:
		return pf, f.planCorruption(&pf)
	default:
		if err := f.pickOSDs(&pf, taken); err != nil {
			return pf, err
		}
	}
	for _, id := range pf.OSDs {
		if id < 0 || id >= len(f.c.OSDs()) {
			return pf, fmt.Errorf("%w: fault targets osd.%d, the cluster has %d osds", ErrInvalidProfile, id, len(f.c.OSDs()))
		}
		if taken[id] {
			return pf, fmt.Errorf("%w: osd.%d is a fault target twice", ErrInvalidProfile, id)
		}
		taken[id] = true
	}
	return pf, f.guard(taken)
}

// injectionTime converts a spec's AtSeconds to simulated time. A century
// is the bound: the simulator's clock is int64 nanoseconds (292 years),
// and detection, checking and recovery are added on top of this.
func injectionTime(seconds float64) (simclock.Time, error) {
	const century = 100 * 365 * 24 * 3600
	if !(seconds >= 0 && seconds <= century) {
		return 0, fmt.Errorf("%w: injection time %g s is outside [0, %g]", ErrInvalidProfile, seconds, float64(century))
	}
	return simclock.Time(seconds * float64(time.Second)), nil
}

// planCorruption picks one corrupted shard per object, spread over PGs
// and shard positions deterministically — never exceeding what one scrub
// repair can fix per object.
func (f *FaultInjector) planCorruption(pf *PlannedFault) error {
	pool, err := f.c.Pool(f.pool)
	if err != nil {
		return err
	}
	shard := 0
	for _, pg := range pool.PGs {
		for _, obj := range pg.Objects {
			if len(pf.Corruptions) == pf.Spec.Count {
				return nil
			}
			pf.Corruptions = append(pf.Corruptions, Corruption{Object: obj.Name, Shard: shard % len(pg.Acting)})
			shard++
		}
	}
	if len(pf.Corruptions) < pf.Spec.Count {
		return fmt.Errorf("core: pool has %d objects, cannot corrupt %d chunks", len(pf.Corruptions), pf.Spec.Count)
	}
	return nil
}

// pickOSDs chooses a node- or device-level spec's targets among the OSDs
// not yet taken, using placement knowledge to hit stored data.
func (f *FaultInjector) pickOSDs(pf *PlannedFault, taken map[int]bool) error {
	spec := pf.Spec
	// Hosts by chunk count, leaving out the OSDs earlier specs of the same
	// fault list have taken.
	hosts, osdCounts, err := f.c.RankHosts(f.pool, taken)
	if err != nil {
		return err
	}
	switch spec.Level {
	case FaultLevelNode:
		if spec.Count > len(hosts) {
			return fmt.Errorf("core: cannot fail %d nodes, only %d hold data", spec.Count, len(hosts))
		}
		for _, h := range hosts[:spec.Count] {
			// Every OSD of the host, in id order.
			pf.OSDs = append(pf.OSDs, f.heaviestOSDs(h, nil, taken)...)
		}
	case FaultLevelDevice:
		switch spec.Locality {
		case LocalitySameHost:
			// All failed devices on the data-heaviest host with enough
			// OSDs.
			for _, h := range hosts {
				ids := f.heaviestOSDs(h, osdCounts, taken)
				if len(ids) >= spec.Count {
					pf.OSDs = ids[:spec.Count]
					break
				}
			}
			if len(pf.OSDs) == 0 {
				return fmt.Errorf("core: no host has %d devices", spec.Count)
			}
		case LocalityDiffHosts:
			if spec.Count > len(hosts) {
				return fmt.Errorf("core: cannot spread %d device failures over %d data hosts", spec.Count, len(hosts))
			}
			// The chunk-heaviest device on each of the data-heaviest
			// hosts, so same-host and diff-hosts plans lose comparable
			// chunk volumes.
			for _, h := range hosts[:spec.Count] {
				pf.OSDs = append(pf.OSDs, f.heaviestOSDs(h, osdCounts, taken)[0])
			}
		default:
			// The N chunk-heaviest devices on the data-heaviest host.
			ids := f.heaviestOSDs(hosts[0], osdCounts, taken)
			if spec.Count > len(ids) {
				return fmt.Errorf("core: host %s has %d devices, need %d", hosts[0], len(ids), spec.Count)
			}
			pf.OSDs = ids[:spec.Count]
		}
	default:
		return fmt.Errorf("%w: fault level %q", ErrInvalidProfile, spec.Level)
	}
	return nil
}

// guard enforces the white-box fault-tolerance rule: no placement group
// may lose more chunks than the code can repair.
func (f *FaultInjector) guard(down map[int]bool) error {
	pool, err := f.c.Pool(f.pool)
	if err != nil {
		return err
	}
	for _, pg := range pool.PGs {
		var lost []int
		for shard, id := range pg.Acting {
			if down[id] {
				lost = append(lost, shard)
			}
		}
		if len(lost) == 0 {
			continue
		}
		// Pattern-aware for non-MDS codes (LRC, SHEC): the same count of
		// losses can be fatal or benign depending on which shards they hit.
		if !erasure.CanRecover(pool.Code, lost) {
			return fmt.Errorf("%w: pg %d would lose shards %v", ErrExceedsTolerance, pg.ID, lost)
		}
	}
	return nil
}

// Inject applies a planned fault to the cluster. Corruption faults apply
// immediately (they are latent until a scrub); node and device faults
// are scheduled on the simulator.
func (f *FaultInjector) Inject(pf PlannedFault) error {
	if pf.Spec.Level == FaultLevelCorruption {
		for _, corr := range pf.Corruptions {
			if err := f.c.CorruptChunk(f.pool, corr.Object, corr.Shard); err != nil {
				return err
			}
		}
		return nil
	}
	f.c.InjectOSDFailures(pf.At, pf.OSDs...)
	return nil
}
