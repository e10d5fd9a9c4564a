package cluster

import (
	"fmt"
	"slices"
	"sort"

	"repro/internal/erasure"
	"repro/internal/simclock"
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

// ReadLatency measures the simulated client latency of reading one object
// in the cluster's current state (see scheduleRead for the model). The
// simulation is driven to completion.
func (c *Cluster) ReadLatency(poolName, objectName string) (simclock.Time, error) {
	pool, err := c.Pool(poolName)
	if err != nil {
		return 0, err
	}
	pg, rec, _ := pool.findObject(objectName)
	if rec == nil {
		return 0, fmt.Errorf("%w: %s/%s", ErrNoObject, poolName, objectName)
	}
	start := c.sim.Now()
	var finish simclock.Time
	if err := c.scheduleRead(pool, pg, rec, func() { finish = c.sim.Now() }); err != nil {
		return 0, err
	}
	c.RunSim()
	if finish == 0 {
		return 0, fmt.Errorf("cluster: read of %s did not complete", objectName)
	}
	return finish - start, nil
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

// scheduleRead schedules one client read of an object in the cluster's
// current state and calls done when its last byte reaches the client: a
// healthy read fetches the k data chunks; a degraded read fetches the
// live data chunks plus the repair plan's helpers and decodes on the
// primary. Client I/O runs at full device bandwidth (it is not
// recovery-throttled) through the same disk, CPU and NIC queues recovery
// uses. It fails, scheduling nothing, when the object is unreadable.
func (c *Cluster) scheduleRead(pool *Pool, pg *PG, rec *ObjectRecord, done func()) error {
	code := pool.Code
	lost := c.lostShards(pg)
	lostData := lost[:sort.SearchInts(lost, code.K())] // lost is ascending
	if len(lost) > 0 && !erasure.CanRecover(code, lost) {
		return fmt.Errorf("cluster: object %s unreadable: shards %v lost", rec.Name, lost)
	}
	primaryID := c.primaryOf(pg, nil)
	if primaryID == -1 {
		return fmt.Errorf("cluster: no surviving member for %s", rec.Name)
	}
	primary := c.osds[primaryID]
	cm := &c.cfg.Cost

	// The shards to read, in shard order: all live data shards, plus
	// (degraded) the helpers of the lost data shards' repair plan.
	read := make([]bool, code.N())
	for shard := 0; shard < code.K(); shard++ {
		read[shard] = !slices.Contains(lostData, shard)
	}
	if len(lostData) > 0 {
		plan, err := code.RepairPlan(lostData)
		if err != nil {
			return err
		}
		for _, h := range plan.Helpers {
			read[h.Shard] = true
		}
	}
	reads := 0
	for _, r := range read {
		if r {
			reads++
		}
	}

	// The primary assembles the object, decoding when a data shard is
	// lost, and ships it to the client.
	join := simclock.NewJoin(reads, func() {
		var decode simclock.Time
		if len(lostData) > 0 {
			decode = cm.decodeTime(rec.ChunkSize*int64(code.K()), int64(code.SubChunks()))
		}
		primary.cpu.Submit(decode, func() {
			c.net.Transfer(primary.Host, "mon0", rec.Size, done)
		})
	})
	for shard, r := range read {
		if !r {
			continue
		}
		osd := c.osds[pg.Acting[shard]]
		metaHit, kvHit, _ := osd.Store.AccessProfile()
		miss := 1 - (metaHit+kvHit)/2
		service := simclock.Time(float64(cm.MetaLookup)*miss) +
			simclock.Time(float64(rec.ChunkSize)/cm.DiskReadBW*1e9)
		osd.disk.Submit(service, func() {
			c.net.Transfer(osd.Host, primary.Host, rec.ChunkSize, join.Done)
		})
	}
	return nil
}
