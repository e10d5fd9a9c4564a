package cluster

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"repro/internal/workload"
)

func payloadPool(t *testing.T) (*Cluster, *Pool, map[string][]byte) {
	t.Helper()
	c := smallCluster(t, 8, 2, nil)
	p, err := c.CreatePool(PoolConfig{
		Name: "scrubpool", Plugin: "jerasure_reed_sol_van",
		K: 4, M: 2, PGNum: 8, StripeUnit: 16 << 10, FailureDomain: "host",
	})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(42))
	contents := map[string][]byte{}
	for i := 0; i < 12; i++ {
		name := fmt.Sprintf("obj-%02d", i)
		data := make([]byte, 50_000+rng.Intn(30_000))
		rng.Read(data)
		contents[name] = data
		if err := c.WriteObject("scrubpool", name, data); err != nil {
			t.Fatal(err)
		}
	}
	return c, p, contents
}

func TestScrubCleanPool(t *testing.T) {
	c, _, _ := payloadPool(t)
	report, err := c.ScrubPool("scrubpool")
	if err != nil {
		t.Fatal(err)
	}
	if report.ChunksScrubbed != 12*6 {
		t.Fatalf("scrubbed %d chunks, want 72", report.ChunksScrubbed)
	}
	if len(report.Inconsistent) != 0 {
		t.Fatalf("clean pool reported %d inconsistencies", len(report.Inconsistent))
	}
}

func TestScrubDetectsCorruption(t *testing.T) {
	c, _, contents := payloadPool(t)
	// Corrupt two shards of one object and one shard of another.
	if err := c.CorruptChunk("scrubpool", "obj-03", 1); err != nil {
		t.Fatal(err)
	}
	if err := c.CorruptChunk("scrubpool", "obj-03", 4); err != nil {
		t.Fatal(err)
	}
	if err := c.CorruptChunk("scrubpool", "obj-07", 0); err != nil {
		t.Fatal(err)
	}
	report, err := c.ScrubPool("scrubpool")
	if err != nil {
		t.Fatal(err)
	}
	if len(report.Inconsistent) != 3 {
		t.Fatalf("found %d inconsistencies, want 3: %+v", len(report.Inconsistent), report.Inconsistent)
	}
	// Silent corruption: normal reads of obj-07 would return wrong data
	// when the damaged shard is a data shard, but scrub caught it first.
	repaired, err := c.RepairInconsistent("scrubpool", report)
	if err != nil {
		t.Fatal(err)
	}
	if repaired != 3 {
		t.Fatalf("repaired %d, want 3", repaired)
	}
	// Pool is clean again and data is intact.
	report2, err := c.ScrubPool("scrubpool")
	if err != nil {
		t.Fatal(err)
	}
	if len(report2.Inconsistent) != 0 {
		t.Fatalf("still %d inconsistencies after repair", len(report2.Inconsistent))
	}
	for name, want := range contents {
		got, err := c.ReadObject("scrubpool", name)
		if err != nil || !bytes.Equal(got, want) {
			t.Fatalf("%s wrong after scrub repair: %v", name, err)
		}
	}
}

func TestScrubAccountingMode(t *testing.T) {
	c := smallCluster(t, 8, 2, nil)
	if _, err := c.CreatePool(PoolConfig{
		Name: "acc", Plugin: "jerasure_reed_sol_van",
		K: 4, M: 2, PGNum: 4, StripeUnit: 1 << 20, FailureDomain: "host",
	}); err != nil {
		t.Fatal(err)
	}
	objs, _ := workload.Spec{Count: 8, ObjectSize: 4 << 20, NamePrefix: "o"}.Objects()
	if err := c.BulkLoad("acc", objs); err != nil {
		t.Fatal(err)
	}
	if err := c.CorruptChunk("acc", objs[2].Name, 3); err != nil {
		t.Fatal(err)
	}
	report, err := c.ScrubPool("acc")
	if err != nil {
		t.Fatal(err)
	}
	if len(report.Inconsistent) != 1 || report.Inconsistent[0].Object != objs[2].Name {
		t.Fatalf("inconsistencies: %+v", report.Inconsistent)
	}
	if _, err := c.RepairInconsistent("acc", report); err != nil {
		t.Fatal(err)
	}
	report2, _ := c.ScrubPool("acc")
	if len(report2.Inconsistent) != 0 {
		t.Fatal("accounting-mode repair did not clear corruption")
	}
}

func TestCorruptChunkValidation(t *testing.T) {
	c, _, _ := payloadPool(t)
	if err := c.CorruptChunk("scrubpool", "missing", 0); err == nil {
		t.Fatal("missing object accepted")
	}
	if err := c.CorruptChunk("scrubpool", "obj-00", 99); err == nil {
		t.Fatal("bad shard accepted")
	}
	if err := c.CorruptChunk("nope", "obj-00", 0); err == nil {
		t.Fatal("missing pool accepted")
	}
}

func TestScrubSkipsDownOSDs(t *testing.T) {
	c, p, _ := payloadPool(t)
	c.OSDs()[p.PGs[0].Acting[0]].up = false
	report, err := c.ScrubPool("scrubpool")
	if err != nil {
		t.Fatal(err)
	}
	if report.SkippedDown == 0 {
		t.Fatal("down OSD chunks should be skipped")
	}
}

// TestSequentialFailureCycles runs two full failure/recovery rounds, the
// pattern a longer-running study would use.
func TestSequentialFailureCycles(t *testing.T) {
	c := smallCluster(t, 10, 2, nil)
	if _, err := c.CreatePool(PoolConfig{
		Name: "seq", Plugin: "jerasure_reed_sol_van",
		K: 4, M: 2, PGNum: 16, StripeUnit: 1 << 20, FailureDomain: "host",
	}); err != nil {
		t.Fatal(err)
	}
	objs, _ := workload.Spec{Count: 64, ObjectSize: 4 << 20, NamePrefix: "o"}.Objects()
	if err := c.BulkLoad("seq", objs); err != nil {
		t.Fatal(err)
	}

	host1, _ := c.HostWithMostChunks("seq")
	c.FailHost(c.Sim().Now()+time.Second, host1)
	res1, err := c.recoverPool("seq")
	if err != nil {
		t.Fatal(err)
	}
	if res1.RepairedChunks == 0 {
		t.Fatal("first cycle repaired nothing")
	}

	// Second round: reset the batch, fail another host, recover again.
	c.ResetFailureState()
	host2, _ := c.HostWithMostChunks("seq")
	if host2 == host1 {
		t.Fatal("injector picked the dead host again")
	}
	c.FailHost(c.Sim().Now()+time.Second, host2)
	res2, err := c.recoverPool("seq")
	if err != nil {
		t.Fatal(err)
	}
	if res2.RepairedChunks == 0 {
		t.Fatal("second cycle repaired nothing")
	}
	if res2.DetectedAt <= res1.FinishedAt {
		t.Fatal("second cycle must happen after the first")
	}
	if h := c.Health(); h.CleanPGs != h.TotalPGs {
		t.Fatalf("%d of %d PGs not clean after two cycles", h.TotalPGs-h.CleanPGs, h.TotalPGs)
	}
}
