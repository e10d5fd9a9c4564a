package cluster

import (
	"fmt"
	"time"

	"repro/internal/simclock"
)

// ClientLoad generates background client I/O against a pool for the
// duration of the simulation: a closed loop of readers issuing object
// reads at a target rate. Client ops run at full device bandwidth but
// share the same disk and NIC queues as recovery, so they lengthen the
// EC recovery phase exactly the way foreground traffic does in a real
// cluster — the contention mclock's recovery reservation exists to bound.
type ClientLoad struct {
	c    *Cluster
	pool *Pool

	opsPerSec   float64
	stopped     bool
	outstanding int
	maxInFlight int

	// Stats.
	OpsCompleted int
	OpsShed      int // dropped by admission control under saturation
	TotalLatency simclock.Time
}

// StartClientLoad begins issuing reads of random objects in the pool at
// the given rate. It returns a handle to stop the load and read its
// stats; the load also stops when the pool has no objects.
func (c *Cluster) StartClientLoad(poolName string, opsPerSec float64) (*ClientLoad, error) {
	pool, err := c.Pool(poolName)
	if err != nil {
		return nil, err
	}
	if opsPerSec <= 0 {
		return nil, fmt.Errorf("cluster: client load needs a positive rate")
	}
	total := 0
	for _, pg := range pool.PGs {
		total += len(pg.Objects)
	}
	if total == 0 {
		return nil, fmt.Errorf("cluster: pool %q has no objects to read", poolName)
	}
	load := &ClientLoad{c: c, pool: pool, opsPerSec: opsPerSec, maxInFlight: 32}
	interval := simclock.Time(float64(time.Second) / opsPerSec)
	var tick func()
	seq := uint64(0)
	tick = func() {
		if load.stopped {
			return
		}
		load.issueRead(seq)
		seq++
		c.sim.After(interval, tick)
	}
	c.sim.After(interval, tick)
	return load, nil
}

// Stop halts the load; already-issued ops complete.
func (l *ClientLoad) Stop() { l.stopped = true }

// MeanLatency reports the average completed-op latency.
func (l *ClientLoad) MeanLatency() simclock.Time {
	if l.OpsCompleted == 0 {
		return 0
	}
	return l.TotalLatency / simclock.Time(l.OpsCompleted)
}

// issueRead performs one client read of a deterministically chosen
// object through the cluster's one read model (scheduleRead): degraded
// objects fetch their repair helpers and decode, charged at full
// (non-recovery) rates.
func (l *ClientLoad) issueRead(seq uint64) {
	c := l.c
	// Deterministic object choice.
	h := seq*0x9e3779b97f4a7c15 + 0x1234567
	pg := l.pool.PGs[h%uint64(len(l.pool.PGs))]
	if len(pg.Objects) == 0 {
		return
	}
	obj := pg.Objects[(h>>16)%uint64(len(pg.Objects))]
	// Admission control: real clients are closed loops with bounded
	// in-flight requests, so an over-provisioned rate self-clamps to
	// cluster capacity instead of growing queues without bound.
	if l.outstanding >= l.maxInFlight {
		l.OpsShed++
		return
	}
	start := c.sim.Now()
	err := c.scheduleRead(l.pool, pg, obj, func() {
		l.outstanding--
		l.OpsCompleted++
		l.TotalLatency += c.sim.Now() - start
	})
	if err != nil {
		return // unreadable right now
	}
	l.outstanding++
}
