package cluster

import (
	"fmt"
	"sort"

	"repro/internal/erasure"
)

// PG states, following Ceph's naming.
const (
	PGActiveClean = "active+clean"
	PGDegraded    = "active+undersized+degraded"
	PGIncomplete  = "incomplete"
)

// HealthStatus is the cluster-level verdict.
const (
	HealthOK   = "HEALTH_OK"
	HealthWarn = "HEALTH_WARN"
	HealthErr  = "HEALTH_ERR"
)

// Health summarizes cluster state, like `ceph health`.
type Health struct {
	Status        string
	TotalPGs      int
	CleanPGs      int
	DegradedPGs   int
	IncompletePGs int
	DownOSDs      []int
}

// String renders the health summary.
func (h Health) String() string {
	return fmt.Sprintf("%s: %d/%d pgs clean, %d degraded, %d incomplete, %d osds down",
		h.Status, h.CleanPGs, h.TotalPGs, h.DegradedPGs, h.IncompletePGs, len(h.DownOSDs))
}

// lostShards returns the shard positions of a PG whose OSD is down.
func (c *Cluster) lostShards(pg *PG) []int {
	var lost []int
	for shard, id := range pg.Acting {
		if !c.osds[id].up {
			lost = append(lost, shard)
		}
	}
	return lost
}

// PGStateOf classifies one placement group given the current OSD states.
func (c *Cluster) PGStateOf(pool *Pool, pg *PG) string {
	lost := c.lostShards(pg)
	switch {
	case len(lost) == 0:
		return PGActiveClean
	case erasure.CanRecover(pool.Code, lost):
		return PGDegraded
	default:
		return PGIncomplete
	}
}

// Health computes the cluster-wide health across all pools.
func (c *Cluster) Health() Health {
	h := Health{Status: HealthOK}
	for _, osd := range c.osds {
		if !osd.up {
			h.DownOSDs = append(h.DownOSDs, osd.ID)
		}
	}
	sort.Ints(h.DownOSDs)
	names := make([]string, 0, len(c.pools))
	for name := range c.pools {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		pool := c.pools[name]
		for _, pg := range pool.PGs {
			h.TotalPGs++
			switch c.PGStateOf(pool, pg) {
			case PGActiveClean:
				h.CleanPGs++
			case PGDegraded:
				h.DegradedPGs++
			default:
				h.IncompletePGs++
			}
		}
	}
	switch {
	case h.IncompletePGs > 0:
		h.Status = HealthErr
	case h.DegradedPGs > 0 || len(h.DownOSDs) > 0:
		h.Status = HealthWarn
	}
	return h
}

// primaryOf returns the first member of the PG's acting set that is up
// and not in down (failures injected but not yet fired), or -1.
func (c *Cluster) primaryOf(pg *PG, down map[int]bool) int {
	for _, id := range pg.Acting {
		if c.osds[id].up && !down[id] {
			return id
		}
	}
	return -1
}
