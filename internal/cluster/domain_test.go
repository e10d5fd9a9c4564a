package cluster

import (
	"testing"
	"time"

	"repro/internal/workload"
)

// TestRealRackTopology builds a cluster with explicit rack buckets and
// verifies rack-domain placement never co-locates two chunks in a rack,
// and that a whole-rack outage stays within fault tolerance.
func TestRealRackTopology(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Hosts = 12
	cfg.OSDsPerHost = 2
	cfg.Racks = 6
	cfg.DeviceCapacity = 4 << 30
	cfg.Tuning.MarkOutInterval = 20 * time.Second
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	p, err := c.CreatePool(PoolConfig{
		Name: "rp", Plugin: "jerasure_reed_sol_van",
		K: 4, M: 2, PGNum: 16, StripeUnit: 1 << 20, FailureDomain: "rack",
	})
	if err != nil {
		t.Fatal(err)
	}
	rackOf := map[int]string{}
	for _, rack := range c.Crush().Root.Children {
		for _, host := range rack.Children {
			for _, osd := range host.Children {
				rackOf[osd.OSDID] = rack.Name
			}
		}
	}
	for _, pg := range p.PGs {
		racks := map[string]bool{}
		for _, id := range pg.Acting {
			r := rackOf[id]
			if r == "" {
				t.Fatal("osd has no rack")
			}
			if racks[r] {
				t.Fatalf("pg %d places two chunks in %s", pg.ID, r)
			}
			racks[r] = true
		}
	}
	objs, _ := workload.Spec{Count: 32, ObjectSize: 2 << 20, NamePrefix: "o"}.Objects()
	if err := c.BulkLoad("rp", objs); err != nil {
		t.Fatal(err)
	}
	// Fail every host in one rack: each PG loses at most one chunk.
	victimRack := rackOf[p.PGs[0].Acting[0]]
	var ids []int
	for _, osd := range c.OSDs() {
		if rackOf[osd.ID] == victimRack {
			ids = append(ids, osd.ID)
		}
	}
	c.InjectOSDFailures(time.Second, ids...)
	res, err := c.recoverPool("rp")
	if err != nil {
		t.Fatal(err)
	}
	if res.RepairedChunks == 0 {
		t.Fatal("rack outage repaired nothing")
	}
}

// rackCluster builds a cluster with an explicit rack layer by driving the
// crush builder through cluster config — racks are exercised at the crush
// level; here we verify the pool-level rack domain path end to end using
// the "rack" failure domain over a flat map (hosts act as racks).
func TestRackFailureDomainPool(t *testing.T) {
	c := smallCluster(t, 8, 2, nil)
	p, err := c.CreatePool(PoolConfig{
		Name: "rackpool", Plugin: "jerasure_reed_sol_van",
		K: 4, M: 2, PGNum: 8, StripeUnit: 1 << 20, FailureDomain: "rack",
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, pg := range p.PGs {
		seen := map[string]bool{}
		for _, id := range pg.Acting {
			h := c.Crush().HostOf(id)
			if seen[h] {
				t.Fatalf("pg %d: two chunks in one rack-equivalent domain", pg.ID)
			}
			seen[h] = true
		}
	}
	objs, _ := workload.Spec{Count: 24, ObjectSize: 2 << 20, NamePrefix: "o"}.Objects()
	if err := c.BulkLoad("rackpool", objs); err != nil {
		t.Fatal(err)
	}
	host, _ := c.HostWithMostChunks("rackpool")
	c.FailHost(time.Second, host)
	if _, err := c.recoverPool("rackpool"); err != nil {
		t.Fatal(err)
	}
}

// TestClayMultiLossFullDecode drives a Clay pool through concurrent
// same-host device failures under the OSD failure domain: some PGs lose
// two chunks and must take the full-decode path, which the result
// surfaces via FullDecodeObjects.
func TestClayMultiLossFullDecode(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Hosts = 8
	cfg.OSDsPerHost = 3
	cfg.DeviceCapacity = 4 << 30
	cfg.Tuning.MarkOutInterval = 20 * time.Second
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.CreatePool(PoolConfig{
		Name: "clayosd", Plugin: "clay", K: 4, M: 2, D: 5,
		PGNum: 64, StripeUnit: 1 << 20, FailureDomain: "osd",
	}); err != nil {
		t.Fatal(err)
	}
	objs, _ := workload.Spec{Count: 256, ObjectSize: 4 << 20, NamePrefix: "o"}.Objects()
	if err := c.BulkLoad("clayosd", objs); err != nil {
		t.Fatal(err)
	}
	// Fail two OSDs on one host: with domain=osd some PGs have chunks on
	// both.
	host, _ := c.HostWithMostChunks("clayosd")
	ids := c.Crush().OSDsOnHost(host)[:2]
	c.InjectOSDFailures(time.Second, ids...)
	res, err := c.recoverPool("clayosd")
	if err != nil {
		t.Fatal(err)
	}
	if res.FullDecodeObjects == 0 {
		t.Skip("placement produced no double-loss PG at this seed; geometry-dependent")
	}
	if res.FullDecodeObjects >= res.ObjectRepairs {
		t.Fatal("not all repairs should be full decodes")
	}
}

// TestLRCGuardBlocksWholeGroupLoss shows the pattern-aware guard in
// action at the cluster level: a fault plan that would wipe an entire LRC
// local group within one PG is refused during recovery.
func TestLRCGuardBlocksWholeGroupLoss(t *testing.T) {
	c := smallCluster(t, 14, 2, nil)
	p, err := c.CreatePool(PoolConfig{
		Name: "lrcguard", Plugin: "lrc", K: 4, M: 1, D: 2, // 2 groups of 2 + 1 global
		PGNum: 4, StripeUnit: 1 << 20, FailureDomain: "host",
	})
	if err != nil {
		t.Fatal(err)
	}
	objs, _ := workload.Spec{Count: 8, ObjectSize: 2 << 20, NamePrefix: "o"}.Objects()
	if err := c.BulkLoad("lrcguard", objs); err != nil {
		t.Fatal(err)
	}
	// Kill a whole group of one PG: data shards 0,1 plus local parity 4
	// (3 losses: the code's M() is 3, but the pattern is undecodable).
	pg := p.PGs[0]
	if len(pg.Objects) == 0 {
		pg = p.PGs[1]
	}
	c.InjectOSDFailures(time.Second, pg.Acting[0], pg.Acting[1], pg.Acting[4])
	if _, err := c.recoverPool("lrcguard"); err == nil {
		t.Fatal("whole-group loss must be refused as unrecoverable")
	}
}
