package cluster

import (
	"fmt"
	"sort"

	"repro/internal/bluestore"
)

// snapPG captures one placement group's post-populate state. The acting
// set is copied per fork (recovery remaps it in place); the object
// records are shared read-only across forks — recovery and scrub only
// read their fields, and the one change a fork makes to a PG's list is
// WriteObject's or BulkLoad's append of new objects, which the clamped
// capacity turns into a reallocation instead of a write into shared
// backing memory.
type snapPG struct {
	id      int
	acting  []int
	objects []ObjectRecord
	bulk    *bluestore.BulkPG
}

// snapPool captures one pool: its normalized creation config (so forks
// look up the shared erasure code without re-running CRUSH for 256 PG
// placements) and its PGs.
type snapPool struct {
	cfg PoolConfig
	pgs []snapPG
}

// Snapshot is an immutable populated-cluster image. It holds the frozen
// per-OSD stores plus the logical pool/PG state, and can be forked any
// number of times, concurrently, into independent clusters.
type Snapshot struct {
	cfg    Config             // normalized parent config, Log stripped
	stores []*bluestore.Store // frozen, indexed by OSD id
	pools  []snapPool         // sorted by pool name
}

// Snapshot freezes the cluster's stores and captures its logical state.
// The cluster must be quiescent (no scheduled simulator events); after
// the call its stores reject writes, so a parent that leaks back into use
// fails loudly and is only good for reads and further forks.
func (c *Cluster) Snapshot() *Snapshot {
	s := &Snapshot{cfg: c.cfg}
	s.cfg.Log = nil
	for _, o := range c.osds {
		o.Store.Freeze()
		s.stores = append(s.stores, o.Store)
	}
	names := make([]string, 0, len(c.pools))
	for name := range c.pools {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		pool := c.pools[name]
		sp := snapPool{cfg: pool.PoolConfig}
		for _, pg := range pool.PGs {
			objs := pg.Objects
			sp.pgs = append(sp.pgs, snapPG{
				id:      pg.ID,
				acting:  append([]int(nil), pg.Acting...),
				objects: objs[:len(objs):len(objs)],
				bulk:    pg.bulk,
			})
		}
		s.pools = append(s.pools, sp)
	}
	return s
}

// Fork builds a fresh cluster — new simulator, network, CRUSH map,
// monitor, queues — whose stores are forks of the snapshot's and whose
// pools carry the captured PG placements and shared object records. cfg
// may change recovery-side knobs (Net, Cost, cache scheme, Log); geometry
// must match the snapshot, and bluestore rejects any layout-relevant
// store field change.
func (s *Snapshot) Fork(cfg Config) (*Cluster, error) {
	norm, err := normalizeClusterConfig(cfg)
	if err != nil {
		return nil, err
	}
	if norm.Hosts != s.cfg.Hosts || norm.OSDsPerHost != s.cfg.OSDsPerHost ||
		norm.Racks != s.cfg.Racks || norm.DeviceCapacity != s.cfg.DeviceCapacity {
		return nil, fmt.Errorf("%w: fork geometry %d×%d/%d racks %d != snapshot %d×%d/%d racks %d",
			ErrBadGeometry, norm.Hosts, norm.OSDsPerHost, norm.DeviceCapacity, norm.Racks,
			s.cfg.Hosts, s.cfg.OSDsPerHost, s.cfg.DeviceCapacity, s.cfg.Racks)
	}
	c, err := build(cfg, func(cfg Config, id int) (*bluestore.Store, error) {
		return s.stores[id].Fork(cfg.Store)
	})
	if err != nil {
		return nil, err
	}
	for _, sp := range s.pools {
		// Forks receive the registry-shared code for the pool spec, so the
		// parallel fan-out shares compiled state instead of rebuilding it
		// per fork.
		pool, err := newPool(sp.cfg)
		if err != nil {
			return nil, err
		}
		for i := range sp.pgs {
			spg := &sp.pgs[i]
			pool.PGs = append(pool.PGs, &PG{
				ID:      spg.id,
				Acting:  append([]int(nil), spg.acting...),
				Objects: spg.objects,
				bulk:    spg.bulk,
			})
		}
		c.pools[sp.cfg.Name] = pool
	}
	return c, nil
}
