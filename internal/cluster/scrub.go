package cluster

import (
	"fmt"
	"sort"
)

// Inconsistency is one chunk a scrub found damaged.
type Inconsistency struct {
	Pool   string
	PG     int
	Object string
	Shard  int
	OSD    int
}

// ScrubReport summarizes a deep scrub.
type ScrubReport struct {
	ChunksScrubbed int
	Inconsistent   []Inconsistency
	// SkippedDown counts chunks that could not be scrubbed because their
	// OSD is down.
	SkippedDown int
}

// ScrubPool deep-scrubs every chunk of a pool (checksum verification on
// payload chunks, corruption markers otherwise), returning the damaged
// chunks. It mirrors Ceph's deep scrub, which is how silent corruption —
// the fault class CORDS studies — is detected in practice.
func (c *Cluster) ScrubPool(poolName string) (*ScrubReport, error) {
	pool, err := c.Pool(poolName)
	if err != nil {
		return nil, err
	}
	report := &ScrubReport{}
	for _, pg := range pool.PGs {
		for _, obj := range pg.Objects {
			for shard, osdID := range pg.Acting {
				osd := c.osds[osdID]
				if !osd.up {
					report.SkippedDown++
					continue
				}
				id := pool.chunkID(pg, obj.Name, shard)
				if !osd.Store.HasChunk(id) {
					continue // not yet recovered / degraded write hole
				}
				ok, err := osd.Store.ScrubChunk(id)
				if err != nil {
					return nil, fmt.Errorf("cluster: scrubbing %s on osd.%d: %w", id, osdID, err)
				}
				report.ChunksScrubbed++
				if !ok {
					report.Inconsistent = append(report.Inconsistent, Inconsistency{
						Pool: pool.Name, PG: pg.ID, Object: obj.Name, Shard: shard, OSD: osdID,
					})
					c.log(c.sim.Now(), osd.Host, fmt.Sprintf("deep-scrub: pg %d object %s shard %d checksum mismatch", pg.ID, obj.Name, shard))
				}
			}
		}
	}
	sort.Slice(report.Inconsistent, func(i, j int) bool {
		a, b := report.Inconsistent[i], report.Inconsistent[j]
		if a.PG != b.PG {
			return a.PG < b.PG
		}
		if a.Object != b.Object {
			return a.Object < b.Object
		}
		return a.Shard < b.Shard
	})
	return report, nil
}

// RepairInconsistent reconstructs every chunk a scrub flagged, from the
// object's healthy shards (Ceph's `pg repair`). It returns the number of
// chunks rewritten.
func (c *Cluster) RepairInconsistent(poolName string, report *ScrubReport) (int, error) {
	pool, err := c.Pool(poolName)
	if err != nil {
		return 0, err
	}
	// Group inconsistencies by (pg, object) so multi-shard damage repairs
	// in one decode.
	type key struct {
		pg     int
		object string
	}
	damaged := map[key][]int{}
	for _, inc := range report.Inconsistent {
		if inc.Pool != poolName {
			continue
		}
		k := key{inc.PG, inc.Object}
		damaged[k] = append(damaged[k], inc.Shard)
	}
	keys := make([]key, 0, len(damaged))
	for k := range damaged {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].pg != keys[j].pg {
			return keys[i].pg < keys[j].pg
		}
		return keys[i].object < keys[j].object
	})
	repaired := 0
	for _, k := range keys {
		shards := damaged[k]
		pg, rec := pool.findObject(k.object)
		if rec == nil || pg.ID != k.pg {
			return repaired, fmt.Errorf("cluster: scrubbed object %s vanished", k.object)
		}
		if rec.Payload {
			targets := make([]int, len(shards))
			for i, s := range shards {
				targets[i] = pg.Acting[s]
			}
			if err := c.repairPayload(pool, pg, rec, shards, targets); err != nil {
				return repaired, fmt.Errorf("cluster: repairing %s: %w", k.object, err)
			}
		} else {
			share := rec.Size / int64(pool.Code.N())
			for _, s := range shards {
				osd := c.osds[pg.Acting[s]]
				if err := osd.Store.WriteChunk(pool.chunkID(pg, rec.Name, s), rec.ChunkSize, share, nil); err != nil {
					return repaired, err
				}
			}
		}
		repaired += len(shards)
		c.log(c.sim.Now(), "mon0", fmt.Sprintf("pg %d repair: object %s shards %v rewritten", k.pg, k.object, shards))
	}
	return repaired, nil
}

// CorruptChunk injects silent corruption into one object's shard, the
// CORDS-style fault (no I/O error, wrong bytes).
func (c *Cluster) CorruptChunk(poolName, object string, shard int) error {
	pool, err := c.Pool(poolName)
	if err != nil {
		return err
	}
	pg, rec := pool.findObject(object)
	if rec == nil {
		return fmt.Errorf("%w: %s/%s", ErrNoObject, poolName, object)
	}
	if shard < 0 || shard >= len(pg.Acting) {
		return fmt.Errorf("cluster: shard %d out of range", shard)
	}
	osd := c.osds[pg.Acting[shard]]
	return osd.Store.CorruptChunk(pool.chunkID(pg, object, shard))
}

// ResetFailureState clears the monitor's pending-failure batch so a new
// fault/recovery cycle can run after a completed one. OSDs that are down
// stay down and out.
func (c *Cluster) ResetFailureState() {
	c.mon.injectedAt = 0
	c.mon.detectedAt = 0
	c.mon.failedOSDs = nil
	c.mon.failedHosts = map[string]bool{}
}
