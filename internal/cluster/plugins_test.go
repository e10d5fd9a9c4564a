package cluster

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"repro/internal/workload"
)

// TestLRCPoolRecovery runs an LRC pool through a device failure: the
// repair plan should stay within the local group.
func TestLRCPoolRecovery(t *testing.T) {
	c := smallCluster(t, 14, 2, nil)
	if _, err := c.CreatePool(PoolConfig{
		Name: "lrcpool", Plugin: "lrc", K: 8, M: 2, D: 2, // 2 groups + 2 globals
		PGNum: 16, StripeUnit: 1 << 20, FailureDomain: "host",
	}); err != nil {
		t.Fatal(err)
	}
	objs, _ := workload.Spec{Count: 64, ObjectSize: 8 << 20, NamePrefix: "o"}.Objects()
	if err := c.BulkLoad("lrcpool", objs); err != nil {
		t.Fatal(err)
	}
	host, err := c.HostWithMostChunks("lrcpool")
	if err != nil {
		t.Fatal(err)
	}
	victim := c.Crush().OSDsOnHost(host)[0]
	c.InjectOSDFailures(time.Second, victim)
	res, err := c.recoverPool("lrcpool")
	if err != nil {
		t.Fatal(err)
	}
	if res.RepairedChunks == 0 {
		t.Fatal("nothing repaired")
	}
	// LRC local repair reads group size (4+1-1=4) chunks per object, so
	// helper traffic per object must be ~half of RS's k=8 chunks.
	perObject := float64(res.NetworkBytes-res.WrittenBytes) / float64(res.ObjectRepairs)
	chunk := float64((8 << 20) / 8)
	if ratio := perObject / chunk; ratio > 5 {
		t.Fatalf("LRC repair read %.2f chunks/object, expected ~4", ratio)
	}
}

// TestSHECPoolRecovery runs a SHEC pool through a device failure.
func TestSHECPoolRecovery(t *testing.T) {
	c := smallCluster(t, 18, 2, nil)
	if _, err := c.CreatePool(PoolConfig{
		Name: "shecpool", Plugin: "shec", K: 10, M: 6, D: 3,
		PGNum: 16, StripeUnit: 1 << 20, FailureDomain: "host",
	}); err != nil {
		t.Fatal(err)
	}
	objs, _ := workload.Spec{Count: 48, ObjectSize: 10 << 20, NamePrefix: "o"}.Objects()
	if err := c.BulkLoad("shecpool", objs); err != nil {
		t.Fatal(err)
	}
	host, _ := c.HostWithMostChunks("shecpool")
	victim := c.Crush().OSDsOnHost(host)[0]
	c.InjectOSDFailures(time.Second, victim)
	res, err := c.recoverPool("shecpool")
	if err != nil {
		t.Fatal(err)
	}
	if res.RepairedChunks == 0 {
		t.Fatal("nothing repaired")
	}
	// SHEC single repair reads a window of 5 chunks, half of k=10.
	perObject := float64(res.NetworkBytes-res.WrittenBytes) / float64(res.ObjectRepairs)
	chunk := float64((10 << 20) / 10)
	if ratio := perObject / chunk; ratio > 6.5 {
		t.Fatalf("SHEC repair read %.2f chunks/object, expected ~5", ratio)
	}
}

// TestLRCPayloadRecovery verifies bit-exact payload restoration through
// the LRC code path.
func TestLRCPayloadRecovery(t *testing.T) {
	c := smallCluster(t, 14, 2, nil)
	p, err := c.CreatePool(PoolConfig{
		Name: "lrcpool", Plugin: "lrc", K: 4, M: 2, D: 2,
		PGNum: 8, StripeUnit: 64 << 10, FailureDomain: "host",
	})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	contents := map[string][]byte{}
	for i := 0; i < 10; i++ {
		name := fmt.Sprintf("obj-%d", i)
		data := make([]byte, 100_000+rng.Intn(50_000))
		rng.Read(data)
		contents[name] = data
		if err := c.WriteObject("lrcpool", name, data); err != nil {
			t.Fatal(err)
		}
	}
	victim := p.PGs[0].Acting[2]
	c.InjectOSDFailures(time.Second, victim)
	if _, err := c.recoverPool("lrcpool"); err != nil {
		t.Fatal(err)
	}
	for name, want := range contents {
		got, err := c.ReadObject("lrcpool", name)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("%s differs after LRC recovery", name)
		}
	}
}

// TestRepairTrafficComparison pins the repair-traffic ordering of all four
// plugins on comparable geometries: clay < lrc < shec < rs is not the
// point — the point is each matches its plan's prediction.
func TestRepairTrafficComparison(t *testing.T) {
	type result struct {
		plugin string
		ratio  float64
	}
	var results []result
	for _, cfg := range []struct {
		plugin  string
		k, m, d int
	}{
		{"jerasure_reed_sol_van", 9, 3, 0},
		{"clay", 9, 3, 11},
		{"lrc", 9, 3, 3},
		{"shec", 9, 3, 2},
	} {
		c := smallCluster(t, 16, 2, nil)
		if _, err := c.CreatePool(PoolConfig{
			Name: "p", Plugin: cfg.plugin, K: cfg.k, M: cfg.m, D: cfg.d,
			PGNum: 16, StripeUnit: 1 << 20, FailureDomain: "host",
		}); err != nil {
			t.Fatal(err)
		}
		objs, _ := workload.Spec{Count: 48, ObjectSize: 9 << 20, NamePrefix: "o"}.Objects()
		if err := c.BulkLoad("p", objs); err != nil {
			t.Fatal(err)
		}
		host, _ := c.HostWithMostChunks("p")
		c.InjectOSDFailures(time.Second, c.Crush().OSDsOnHost(host)[0])
		res, err := c.recoverPool("p")
		if err != nil {
			t.Fatalf("%s: %v", cfg.plugin, err)
		}
		perObject := float64(res.NetworkBytes-res.WrittenBytes) / float64(res.ObjectRepairs)
		chunk := float64((9 << 20) / 9)
		results = append(results, result{cfg.plugin, perObject / chunk})
	}
	byName := map[string]float64{}
	for _, r := range results {
		byName[r.plugin] = r.ratio
	}
	if !(byName["clay"] < byName["jerasure_reed_sol_van"]) {
		t.Fatalf("clay (%f) should move less repair traffic than RS (%f)", byName["clay"], byName["jerasure_reed_sol_van"])
	}
	if !(byName["lrc"] < byName["jerasure_reed_sol_van"]) {
		t.Fatalf("lrc (%f) should move less repair traffic than RS (%f)", byName["lrc"], byName["jerasure_reed_sol_van"])
	}
	if !(byName["shec"] < byName["jerasure_reed_sol_van"]) {
		t.Fatalf("shec (%f) should move less repair traffic than RS (%f)", byName["shec"], byName["jerasure_reed_sol_van"])
	}
}
