package cluster

import (
	"testing"
	"time"

	"repro/internal/workload"
)

func TestHealthStates(t *testing.T) {
	c := smallCluster(t, 8, 2, nil)
	p := rsPool(t, c, 8) // RS(6,4) over 8 hosts
	objs, _ := workload.Spec{Count: 16, ObjectSize: 1 << 20, NamePrefix: "o"}.Objects()
	if err := c.BulkLoad("ecpool", objs); err != nil {
		t.Fatal(err)
	}
	h := c.Health()
	if h.Status != HealthOK || h.CleanPGs != 8 || h.TotalPGs != 8 {
		t.Fatalf("healthy cluster: %s", h)
	}

	// One OSD down: some PGs degrade, health warns.
	victim := p.PGs[0].Acting[0]
	c.OSDs()[victim].up = false
	h = c.Health()
	if h.Status != HealthWarn {
		t.Fatalf("status = %s, want WARN", h.Status)
	}
	if h.DegradedPGs == 0 || len(h.DownOSDs) != 1 || h.DownOSDs[0] != victim {
		t.Fatalf("health: %s", h)
	}
	if got := c.PGStateOf(p, p.PGs[0]); got != PGDegraded {
		t.Fatalf("pg state = %s", got)
	}

	// Lose more shards of one PG than m=2: incomplete, health error.
	c.OSDs()[p.PGs[0].Acting[1]].up = false
	c.OSDs()[p.PGs[0].Acting[2]].up = false
	h = c.Health()
	if h.Status != HealthErr || h.IncompletePGs == 0 {
		t.Fatalf("health: %s", h)
	}
	if got := c.PGStateOf(p, p.PGs[0]); got != PGIncomplete {
		t.Fatalf("pg state = %s", got)
	}
}

func TestHealthAfterRecoveryIsOKAgain(t *testing.T) {
	c := smallCluster(t, 10, 2, nil)
	rsPool(t, c, 16)
	objs, _ := workload.Spec{Count: 48, ObjectSize: 2 << 20, NamePrefix: "o"}.Objects()
	if err := c.BulkLoad("ecpool", objs); err != nil {
		t.Fatal(err)
	}
	host, _ := c.HostWithMostChunks("ecpool")
	c.FailHost(time.Second, host)
	if _, err := c.recoverPool("ecpool"); err != nil {
		t.Fatal(err)
	}
	h := c.Health()
	// OSDs remain down (WARN), but every PG is clean again.
	if h.CleanPGs != h.TotalPGs {
		t.Fatalf("pgs not clean after recovery: %s", h)
	}
	if h.Status != HealthWarn || len(h.DownOSDs) != 2 {
		t.Fatalf("health: %s", h)
	}
}
