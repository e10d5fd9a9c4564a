package cluster

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"time"

	"repro/internal/blockdev"
	"repro/internal/simclock"
	"repro/internal/workload"
)

// recoverPool runs the whole recovery cycle of a pool after failures were
// injected: ScheduleRecovery, then the simulation to completion, as the
// coordinator drives it.
func (c *Cluster) recoverPool(poolName string) (*RecoveryResult, error) {
	res, err := c.ScheduleRecovery(poolName)
	if err != nil {
		return nil, err
	}
	c.RunSim()
	if res.FinishedAt == 0 {
		return nil, fmt.Errorf("cluster: recovery did not complete")
	}
	return res, nil
}

// smallCluster builds a fast cluster for tests.
func smallCluster(t *testing.T, hosts, osdsPerHost int, log LogFunc) *Cluster {
	t.Helper()
	cfg := DefaultConfig()
	cfg.Hosts = hosts
	cfg.OSDsPerHost = osdsPerHost
	cfg.DeviceCapacity = 4 << 30
	cfg.Log = log
	// Shrink the checking period so tests run few events.
	cfg.Tuning.MarkOutInterval = 30 * time.Second
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func rsPool(t *testing.T, c *Cluster, pgs int) *Pool {
	t.Helper()
	p, err := c.CreatePool(PoolConfig{
		Name: "ecpool", Plugin: "jerasure_reed_sol_van",
		K: 4, M: 2, PGNum: pgs, StripeUnit: 4096, FailureDomain: "host",
	})
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestNewValidatesGeometry(t *testing.T) {
	if _, err := New(Config{Hosts: 0, OSDsPerHost: 1}); err == nil {
		t.Fatal("zero hosts accepted")
	}
}

func TestTopology(t *testing.T) {
	c := smallCluster(t, 8, 2, nil)
	if len(c.OSDs()) != 16 {
		t.Fatalf("osds = %d", len(c.OSDs()))
	}
	if m := c.Crush(); m.HostOf(15) == "" || m.HostOf(16) != "" {
		t.Fatal("crush map size wrong")
	}
	if !c.OSDs()[3].up {
		t.Fatal("osd should start up")
	}
}

func TestCreatePoolPlacesPGs(t *testing.T) {
	c := smallCluster(t, 8, 2, nil)
	p := rsPool(t, c, 16)
	if len(p.PGs) != 16 {
		t.Fatal("pg count wrong")
	}
	for _, pg := range p.PGs {
		if len(pg.Acting) != 6 {
			t.Fatalf("pg %d acting = %v", pg.ID, pg.Acting)
		}
		hosts := map[string]bool{}
		for _, id := range pg.Acting {
			h := c.Crush().HostOf(id)
			if hosts[h] {
				t.Fatalf("pg %d places two chunks on %s", pg.ID, h)
			}
			hosts[h] = true
		}
	}
	if _, err := c.CreatePool(PoolConfig{Name: "ecpool", Plugin: "clay", K: 4, M: 2, PGNum: 1}); err == nil {
		t.Fatal("duplicate pool accepted")
	}
	if _, err := c.CreatePool(PoolConfig{Name: "bad", Plugin: "nope", K: 4, M: 2, PGNum: 1}); err == nil {
		t.Fatal("unknown plugin accepted")
	}
}

// storedChunks counts the chunks of pool "ecpool" the stores hold: every
// OSD is asked for every shard of each object the pool records and of
// each of names, so a chunk written off its acting set counts too.
func storedChunks(c *Cluster, names ...string) (n int) {
	pool := c.pools["ecpool"]
	names = slices.Clone(names)
	for _, pg := range pool.PGs {
		for _, o := range pg.Objects {
			names = append(names, o.Name)
		}
	}
	slices.Sort(names)
	for _, name := range slices.Compact(names) {
		for shard := range pool.Code.N() {
			id := pool.chunkID(pool.pgOf(name), name, shard)
			for _, o := range c.OSDs() {
				if o.Store.HasChunk(id) {
					n++
				}
			}
		}
	}
	return n
}

func TestBulkLoadDistributesChunks(t *testing.T) {
	c := smallCluster(t, 8, 2, nil)
	rsPool(t, c, 16)
	objs, _ := workload.Spec{Count: 64, ObjectSize: 1 << 20, NamePrefix: "o"}.Objects()
	if err := c.BulkLoad("ecpool", objs); err != nil {
		t.Fatal(err)
	}
	if total := storedChunks(c); total != 64*6 {
		t.Fatalf("chunks = %d, want %d", total, 64*6)
	}
	var data int64
	for _, o := range c.OSDs() {
		data += o.Store.DataBytes()
	}
	if data == 0 || c.UsedBytes() <= data {
		t.Fatal("usage accounting wrong")
	}
}

func TestWriteReadObjectRoundTrip(t *testing.T) {
	c := smallCluster(t, 8, 2, nil)
	rsPool(t, c, 8)
	data := make([]byte, 100_000)
	rand.New(rand.NewSource(5)).Read(data)
	if err := c.WriteObject("ecpool", "hello", data); err != nil {
		t.Fatal(err)
	}
	got, err := c.ReadObject("ecpool", "hello")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("round trip mismatch")
	}
	if _, err := c.ReadObject("ecpool", "missing"); err == nil {
		t.Fatal("missing object read succeeded")
	}
}

// TestWriteObjectIsWriteOnce: a second write of a name the pool holds,
// written with payload or bulk-loaded, is refused before it touches the
// PG records, the usage or any device.
func TestWriteObjectIsWriteOnce(t *testing.T) {
	c := smallCluster(t, 8, 2, nil)
	p := rsPool(t, c, 4)
	objs, _ := workload.Spec{Count: 8, ObjectSize: 1 << 20, NamePrefix: "o"}.Objects()
	if err := c.BulkLoad("ecpool", objs); err != nil {
		t.Fatal(err)
	}
	data := bytes.Repeat([]byte{1}, 20_000)
	if err := c.WriteObject("ecpool", "payload", data); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"payload", objs[3].Name} {
		pg := p.pgOf(name)
		records, used := slices.Clone(pg.Objects), c.UsedBytes()
		var devs []blockdev.Stats
		for _, o := range c.OSDs() {
			devs = append(devs, o.Store.Device().Snapshot())
		}
		if err := c.WriteObject("ecpool", name, bytes.Repeat([]byte{2}, 30_000)); !errors.Is(err, ErrObjectExists) {
			t.Fatalf("second write of %s: %v, want ErrObjectExists", name, err)
		}
		if !slices.Equal(pg.Objects, records) || c.UsedBytes() != used {
			t.Fatalf("refused write of %s changed the PG records or the usage", name)
		}
		for i, o := range c.OSDs() {
			if o.Store.Device().Snapshot() != devs[i] {
				t.Fatalf("refused write of %s moved osd.%d's device counters", name, i)
			}
		}
	}
	if got, err := c.ReadObject("ecpool", "payload"); err != nil || !bytes.Equal(got, data) {
		t.Fatalf("first write's bytes lost: %v", err)
	}
}

// TestBulkLoadRefusesRepeatedOrUnorderedNames: a load that repeats a
// name, within itself or one the PG already holds, is refused with
// ErrObjectExists, and one out of name order is refused too, each before
// any store or PG record changes; sorted loads of new names succeed, into
// the empty PG and into the loaded one.
func TestBulkLoadRefusesRepeatedOrUnorderedNames(t *testing.T) {
	c := smallCluster(t, 8, 2, nil)
	pg := rsPool(t, c, 1).PGs[0]
	load := func(names ...string) error {
		objs := make([]workload.Object, len(names))
		for i, n := range names {
			objs[i] = workload.Object{Name: n, Size: 1 << 20}
		}
		return c.BulkLoad("ecpool", objs)
	}
	chunks := func() int { return storedChunks(c, "o-1", "o-2", "o-3", "o-4") }
	for _, tc := range []struct {
		names  []string
		exists bool
		ok     bool // a sorted load of new names
	}{
		{[]string{"o-2", "o-2", "o-3"}, true, false},
		{[]string{"o-3", "o-2"}, false, false},
		{[]string{"o-2", "o-3"}, false, true},
		{[]string{"o-1", "o-2"}, true, false},
		{[]string{"o-1", "o-1"}, true, false},
		{[]string{"o-4", "o-1"}, false, false},
		{[]string{"o-1", "o-4"}, false, true},
	} {
		records, used, n := slices.Clone(pg.Objects), c.UsedBytes(), chunks()
		err := load(tc.names...)
		if tc.ok {
			if err != nil || len(pg.Objects) != len(records)+len(tc.names) || chunks() != n+6*len(tc.names) {
				t.Fatalf("load %v: %v, %d records, %d chunks", tc.names, err, len(pg.Objects), chunks())
			}
			continue
		}
		if err == nil || errors.Is(err, ErrObjectExists) != tc.exists {
			t.Fatalf("load %v: %v, want refused (exists %v)", tc.names, err, tc.exists)
		}
		if !slices.Equal(pg.Objects, records) || c.UsedBytes() != used || chunks() != n {
			t.Fatalf("refused load %v changed the PG records, the usage or the chunk count", tc.names)
		}
	}
	var names []string
	for _, o := range pg.Objects {
		names = append(names, o.Name)
	}
	if want := []string{"o-2", "o-3", "o-1", "o-4"}; !slices.Equal(names, want) {
		t.Fatalf("PG records %v, want %v", names, want)
	}
}

func TestDegradedRead(t *testing.T) {
	c := smallCluster(t, 8, 2, nil)
	p := rsPool(t, c, 8)
	data := make([]byte, 50_000)
	rand.New(rand.NewSource(6)).Read(data)
	if err := c.WriteObject("ecpool", "obj", data); err != nil {
		t.Fatal(err)
	}
	// Kill two OSDs holding shards of the object (max tolerable).
	pg := p.pgOf("obj")
	c.OSDs()[pg.Acting[0]].up = false
	c.OSDs()[pg.Acting[3]].up = false
	got, err := c.ReadObject("ecpool", "obj")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("degraded read mismatch")
	}
	// Losing a third shard exceeds m=2.
	c.OSDs()[pg.Acting[5]].up = false
	if _, err := c.ReadObject("ecpool", "obj"); err == nil {
		t.Fatal("read beyond fault tolerance succeeded")
	}
}

func TestRecoveryEndToEndSynthetic(t *testing.T) {
	var logLines []string
	logFn := func(ts simclock.Time, node, msg string) {
		logLines = append(logLines, fmt.Sprintf("%v %s %s", ts, node, msg))
	}
	c := smallCluster(t, 8, 2, logFn)
	rsPool(t, c, 16)
	objs, _ := workload.Spec{Count: 128, ObjectSize: 4 << 20, NamePrefix: "o"}.Objects()
	if err := c.BulkLoad("ecpool", objs); err != nil {
		t.Fatal(err)
	}
	host, err := c.HostWithMostChunks("ecpool")
	if err != nil {
		t.Fatal(err)
	}
	c.FailHost(10*time.Second, host)
	res, err := c.recoverPool("ecpool")
	if err != nil {
		t.Fatal(err)
	}
	if res.DegradedPGs == 0 || res.RepairedChunks == 0 {
		t.Fatalf("no recovery happened: %+v", res)
	}
	if res.DetectedAt <= res.InjectedAt {
		t.Fatal("detection must follow injection")
	}
	if res.RecoveryStartAt < res.DetectedAt+30*time.Second {
		t.Fatal("recovery must wait out the mark-out interval")
	}
	if res.FinishedAt <= res.RecoveryStartAt {
		t.Fatal("EC recovery phase must take time")
	}
	if res.CheckingFraction() <= 0 || res.CheckingFraction() >= 1 {
		t.Fatalf("checking fraction = %f", res.CheckingFraction())
	}
	if res.HelperDiskBytes == 0 || res.NetworkBytes == 0 || res.WrittenBytes == 0 {
		t.Fatalf("I/O accounting empty: %+v", res)
	}
	// Degraded PGs must be clean afterwards: no acting member down.
	if h := c.Health(); h.CleanPGs != h.TotalPGs {
		t.Fatalf("%d of %d PGs still not clean", h.TotalPGs-h.CleanPGs, h.TotalPGs)
	}
	if len(logLines) == 0 {
		t.Fatal("no log lines emitted")
	}
}

func TestRecoveryRestoresPayloadBytes(t *testing.T) {
	c := smallCluster(t, 8, 2, nil)
	p := rsPool(t, c, 4)
	contents := map[string][]byte{}
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 12; i++ {
		name := fmt.Sprintf("payload-%d", i)
		data := make([]byte, 20_000+rng.Intn(10_000))
		rng.Read(data)
		contents[name] = data
		if err := c.WriteObject("ecpool", name, data); err != nil {
			t.Fatal(err)
		}
	}
	// Fail one OSD that holds chunks.
	victim := p.PGs[0].Acting[1]
	c.InjectOSDFailures(time.Second, victim)
	if _, err := c.recoverPool("ecpool"); err != nil {
		t.Fatal(err)
	}
	// All objects readable with original bytes, including via recovered
	// chunks (the victim stays down, so reads use the new targets).
	for name, want := range contents {
		got, err := c.ReadObject("ecpool", name)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("%s: content mismatch after recovery", name)
		}
	}
}

func TestRecoveryWithoutFailuresErrors(t *testing.T) {
	c := smallCluster(t, 8, 2, nil)
	rsPool(t, c, 4)
	if _, err := c.recoverPool("ecpool"); err == nil {
		t.Fatal("recovery without failures should error")
	}
}

func TestClayPoolRecovery(t *testing.T) {
	c := smallCluster(t, 8, 2, nil)
	if _, err := c.CreatePool(PoolConfig{
		Name: "claypool", Plugin: "clay", K: 4, M: 2, D: 5,
		PGNum: 8, StripeUnit: 65536, FailureDomain: "host",
	}); err != nil {
		t.Fatal(err)
	}
	objs, _ := workload.Spec{Count: 64, ObjectSize: 4 << 20, NamePrefix: "o"}.Objects()
	if err := c.BulkLoad("claypool", objs); err != nil {
		t.Fatal(err)
	}
	host, _ := c.HostWithMostChunks("claypool")
	// Single-OSD failure: Clay should use the bandwidth-optimal plan.
	victim := c.Crush().OSDsOnHost(host)[0]
	c.InjectOSDFailures(time.Second, victim)
	res, err := c.recoverPool("claypool")
	if err != nil {
		t.Fatal(err)
	}
	if res.RepairedChunks == 0 {
		t.Fatal("nothing repaired")
	}
	// Clay single-failure repair moves less than k*chunk per object over
	// the network: (n-1)/q = 5/2 = 2.5 chunks vs k = 4 chunks.
	perObject := float64(res.NetworkBytes-res.WrittenBytes) / float64(res.ObjectRepairs)
	chunk := float64(4 << 20 / 4)
	if ratio := perObject / chunk; ratio > 3.0 {
		t.Fatalf("clay repair read %.2f chunks/object, expected ~2.5", ratio)
	}
}

func TestRecoveryDeterministic(t *testing.T) {
	run := func() simclock.Time {
		c := smallCluster(t, 8, 2, nil)
		rsPool(t, c, 16)
		objs, _ := workload.Spec{Count: 96, ObjectSize: 2 << 20, NamePrefix: "o"}.Objects()
		if err := c.BulkLoad("ecpool", objs); err != nil {
			t.Fatal(err)
		}
		host, _ := c.HostWithMostChunks("ecpool")
		c.FailHost(5*time.Second, host)
		res, err := c.recoverPool("ecpool")
		if err != nil {
			t.Fatal(err)
		}
		return res.SystemRecoveryTime()
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("non-deterministic recovery: %v vs %v", a, b)
	}
}

func TestMoreParallelismWithMorePGs(t *testing.T) {
	run := func(pgs int) simclock.Time {
		c := smallCluster(t, 10, 2, nil)
		p, err := c.CreatePool(PoolConfig{
			Name: "ecpool", Plugin: "jerasure_reed_sol_van",
			K: 6, M: 3, PGNum: pgs, StripeUnit: 4 << 20, FailureDomain: "host",
		})
		if err != nil {
			t.Fatal(err)
		}
		_ = p
		objs, _ := workload.Spec{Count: 200, ObjectSize: 8 << 20, NamePrefix: "o"}.Objects()
		if err := c.BulkLoad("ecpool", objs); err != nil {
			t.Fatal(err)
		}
		host, _ := c.HostWithMostChunks("ecpool")
		c.FailHost(time.Second, host)
		res, err := c.recoverPool("ecpool")
		if err != nil {
			t.Fatal(err)
		}
		return res.ECRecoveryPeriod()
	}
	few := run(1)
	many := run(64)
	if many >= few {
		t.Fatalf("more PGs should recover faster: 1pg=%v 64pg=%v", few, many)
	}
}

func TestHostWithMostChunksNeedsData(t *testing.T) {
	c := smallCluster(t, 8, 2, nil)
	rsPool(t, c, 4)
	if _, err := c.HostWithMostChunks("ecpool"); err == nil {
		t.Fatal("empty pool should error")
	}
	if _, err := c.HostWithMostChunks("nope"); err == nil {
		t.Fatal("unknown pool should error")
	}
}

func TestWAMeasurementShape(t *testing.T) {
	// RS(12,9) with 4 MiB stripe unit on 64 MiB objects: actual WA must
	// exceed the n/k = 1.33 theory, matching Table 3's direction.
	cfg := DefaultConfig()
	cfg.Hosts = 15
	cfg.OSDsPerHost = 2
	cfg.DeviceCapacity = 8 << 30
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.CreatePool(PoolConfig{
		Name: "ecpool", Plugin: "jerasure_reed_sol_van",
		K: 9, M: 3, PGNum: 32, StripeUnit: 4 << 20, FailureDomain: "host",
	}); err != nil {
		t.Fatal(err)
	}
	objs, _ := workload.Spec{Count: 20, ObjectSize: 64 << 20, NamePrefix: "o"}.Objects()
	if err := c.BulkLoad("ecpool", objs); err != nil {
		t.Fatal(err)
	}
	written := int64(20) * (64 << 20)
	wa := float64(c.UsedBytes()) / float64(written)
	if wa < 1.6 || wa > 2.0 {
		t.Fatalf("actual WA = %.3f, want ~1.76", wa)
	}
}
