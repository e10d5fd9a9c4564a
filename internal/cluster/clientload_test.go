package cluster

import (
	"testing"
	"time"

	"repro/internal/workload"
)

func loadedCluster(t *testing.T) *Cluster {
	t.Helper()
	c := smallCluster(t, 10, 2, nil)
	if _, err := c.CreatePool(PoolConfig{
		Name: "ecpool", Plugin: "jerasure_reed_sol_van",
		K: 4, M: 2, PGNum: 16, StripeUnit: 1 << 20, FailureDomain: "host",
	}); err != nil {
		t.Fatal(err)
	}
	objs, _ := workload.Spec{Count: 96, ObjectSize: 4 << 20, NamePrefix: "o"}.Objects()
	if err := c.BulkLoad("ecpool", objs); err != nil {
		t.Fatal(err)
	}
	return c
}

func TestClientLoadValidation(t *testing.T) {
	c := smallCluster(t, 8, 2, nil)
	rsPool(t, c, 4)
	if _, err := c.StartClientLoad("ecpool", 10); err == nil {
		t.Fatal("empty pool accepted")
	}
	if _, err := c.StartClientLoad("nope", 10); err == nil {
		t.Fatal("missing pool accepted")
	}
	objs, _ := workload.Spec{Count: 4, ObjectSize: 1 << 20, NamePrefix: "o"}.Objects()
	_ = c.BulkLoad("ecpool", objs)
	if _, err := c.StartClientLoad("ecpool", 0); err == nil {
		t.Fatal("zero rate accepted")
	}
}

func TestClientLoadCompletesOps(t *testing.T) {
	c := loadedCluster(t)
	load, err := c.StartClientLoad("ecpool", 20)
	if err != nil {
		t.Fatal(err)
	}
	c.Sim().RunUntil(10 * time.Second)
	load.Stop()
	c.Sim().Run()
	if load.OpsCompleted < 150 {
		t.Fatalf("completed %d ops in 10s at 20/s", load.OpsCompleted)
	}
	if load.MeanLatency() <= 0 {
		t.Fatal("no latency recorded")
	}
}

// TestRecoverySlowerUnderClientLoad is the mclock story: foreground
// traffic contends with recovery for the same devices.
func TestRecoverySlowerUnderClientLoad(t *testing.T) {
	run := func(ops float64) time.Duration {
		c := loadedCluster(t)
		host, _ := c.HostWithMostChunks("ecpool")
		c.FailHost(time.Second, host)
		var load *ClientLoad
		if ops > 0 {
			var err error
			load, err = c.StartClientLoad("ecpool", ops)
			if err != nil {
				t.Fatal(err)
			}
		}
		res, err := c.ScheduleRecovery("ecpool")
		if err != nil {
			t.Fatal(err)
		}
		// Stop the load once recovery completes so the sim drains.
		var watch func()
		watch = func() {
			if res.Done() {
				if load != nil {
					load.Stop()
				}
				return
			}
			c.Sim().After(5*time.Second, watch)
		}
		c.Sim().After(5*time.Second, watch)
		c.Sim().Run()
		if !res.Done() {
			t.Fatal("recovery did not finish")
		}
		return res.ECRecoveryPeriod()
	}
	idle := run(0)
	busy := run(200)
	if busy <= idle {
		t.Fatalf("recovery under load (%v) should be slower than idle (%v)", busy, idle)
	}
}

// TestClientLoadDegradedReadDecodes: a client-load op is the read
// ReadLatency measures. With ops far enough apart not to queue behind
// each other, the load's mean latency is ReadLatency's figure for the
// same objects in the same state — so a lost data shard costs the helper
// reads, the decode and nothing less (the load's old private model read
// fewer chunks for a degraded object, decoded nothing and was no slower).
func TestClientLoadDegradedReadDecodes(t *testing.T) {
	objs, _ := workload.Spec{Count: 8, ObjectSize: 4 << 20, NamePrefix: "o"}.Objects()
	build := func(degraded bool) *Cluster {
		c := smallCluster(t, 10, 2, nil)
		if _, err := c.CreatePool(PoolConfig{
			Name: "ecpool", Plugin: "jerasure_reed_sol_van",
			K: 4, M: 2, PGNum: 1, StripeUnit: 1 << 20, FailureDomain: "host",
		}); err != nil {
			t.Fatal(err)
		}
		if err := c.BulkLoad("ecpool", objs); err != nil {
			t.Fatal(err)
		}
		if degraded {
			pool, _ := c.Pool("ecpool")
			c.OSD(pool.PGs[0].Acting[0]).MarkDown()
		}
		return c
	}
	measure := func(degraded bool) (load, single time.Duration) {
		c := build(degraded)
		l, err := c.StartClientLoad("ecpool", 1)
		if err != nil {
			t.Fatal(err)
		}
		c.Sim().RunUntil(20 * time.Second)
		l.Stop()
		c.Sim().Run()
		if l.OpsCompleted < 19 || l.OpsShed != 0 {
			t.Fatalf("degraded=%v: %d ops completed, %d shed", degraded, l.OpsCompleted, l.OpsShed)
		}
		single, err = build(degraded).ReadLatency("ecpool", objs[0].Name)
		if err != nil {
			t.Fatal(err)
		}
		return l.MeanLatency(), single
	}
	healthy, healthyRead := measure(false)
	degraded, degradedRead := measure(true)
	if degraded <= healthy {
		t.Fatalf("degraded client ops (%v) should be slower than healthy ones (%v)", degraded, healthy)
	}
	if healthy != healthyRead || degraded != degradedRead {
		t.Fatalf("client load read %v healthy / %v degraded, ReadLatency %v / %v: two read models",
			healthy, degraded, healthyRead, degradedRead)
	}
}
