package cluster

import (
	"bytes"
	"errors"
	"fmt"
	"hash/crc32"
	"reflect"
	"slices"
	"testing"
	"time"

	"repro/internal/blockdev"
	"repro/internal/bluestore"
	"repro/internal/parallel"
	"repro/internal/workload"
)

// populateSmall builds and loads the reference cluster for snapshot tests.
func populateSmall(t *testing.T, log LogFunc) *Cluster {
	t.Helper()
	c := smallCluster(t, 8, 2, log)
	rsPool(t, c, 16)
	objs, _ := workload.Spec{Count: 128, ObjectSize: 4 << 20, NamePrefix: "o"}.Objects()
	if err := c.BulkLoad("ecpool", objs); err != nil {
		t.Fatal(err)
	}
	return c
}

// runHostFailure drives a full host-failure recovery cycle and returns
// the measured result.
func runHostFailure(t *testing.T, c *Cluster) *RecoveryResult {
	t.Helper()
	host, err := c.HostWithMostChunks("ecpool")
	if err != nil {
		t.Fatal(err)
	}
	c.FailHost(10*time.Second, host)
	res, err := c.recoverPool("ecpool")
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestForkRecoveryMatchesFresh(t *testing.T) {
	fresh := populateSmall(t, nil)
	freshRes := runHostFailure(t, fresh)

	parent := populateSmall(t, nil)
	snap := parent.Snapshot()
	fork, err := snap.Fork(snap.cfg)
	if err != nil {
		t.Fatal(err)
	}
	forkRes := runHostFailure(t, fork)

	if *freshRes != *forkRes {
		t.Fatalf("fork recovery diverged:\nfresh %+v\nfork  %+v", freshRes, forkRes)
	}
	if fresh.UsedBytes() != fork.UsedBytes() {
		t.Fatalf("UsedBytes %d vs %d", fresh.UsedBytes(), fork.UsedBytes())
	}
}

func TestForkIsolationFromParentAndSiblings(t *testing.T) {
	parent := populateSmall(t, nil)
	parentUsed := parent.UsedBytes()
	snap := parent.Snapshot()

	f1, err := snap.Fork(snap.cfg)
	if err != nil {
		t.Fatal(err)
	}
	f2, err := snap.Fork(snap.cfg)
	if err != nil {
		t.Fatal(err)
	}

	// f1 loses a whole host; f2 loses a single different OSD.
	r1 := runHostFailure(t, f1)
	p2, _ := f2.Pool("ecpool")
	f2.InjectOSDFailures(time.Second, p2.PGs[0].Acting[1])
	r2, err := f2.recoverPool("ecpool")
	if err != nil {
		t.Fatal(err)
	}
	if r1.RepairedChunks == 0 || r2.RepairedChunks == 0 {
		t.Fatal("both forks must repair something")
	}
	if r1.RepairedChunks <= r2.RepairedChunks {
		t.Fatalf("host failure repaired %d chunks, single-OSD %d", r1.RepairedChunks, r2.RepairedChunks)
	}

	// The parent saw none of it: same usage, all OSDs up, no degraded PGs.
	if got := parent.UsedBytes(); got != parentUsed {
		t.Fatalf("parent UsedBytes drifted %d -> %d", parentUsed, got)
	}
	for _, o := range parent.OSDs() {
		if !o.up {
			t.Fatalf("parent osd.%d marked down by a fork", o.ID)
		}
		if o.Store.Device().Removed() {
			t.Fatalf("parent osd.%d device removed by a fork", o.ID)
		}
	}
	if h := parent.Health(); h.CleanPGs != h.TotalPGs {
		t.Fatalf("parent has %d of %d PGs not clean", h.TotalPGs-h.CleanPGs, h.TotalPGs)
	}
	pp, _ := parent.Pool("ecpool")
	for i, pg := range pp.PGs {
		f1p, _ := f1.Pool("ecpool")
		if pg.ID != f1p.PGs[i].ID {
			t.Fatal("pg order diverged")
		}
	}
}

func TestForkPayloadRecoveryIsolated(t *testing.T) {
	parent := smallCluster(t, 8, 2, nil)
	p := rsPool(t, parent, 4)
	contents := map[string][]byte{}
	for i := 0; i < 8; i++ {
		name := fmt.Sprintf("payload-%d", i)
		data := bytes.Repeat([]byte{byte(i + 1)}, 30_000)
		contents[name] = data
		if err := parent.WriteObject("ecpool", name, data); err != nil {
			t.Fatal(err)
		}
	}
	snap := parent.Snapshot()
	fork, err := snap.Fork(snap.cfg)
	if err != nil {
		t.Fatal(err)
	}
	victim := p.PGs[0].Acting[1]
	fork.InjectOSDFailures(time.Second, victim)
	if _, err := fork.recoverPool("ecpool"); err != nil {
		t.Fatal(err)
	}
	// Every object readable with correct bytes on the fork and the parent.
	for name, want := range contents {
		got, err := fork.ReadObject("ecpool", name)
		if err != nil {
			t.Fatalf("fork read %s: %v", name, err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("fork %s corrupted after recovery", name)
		}
		got, err = parent.ReadObject("ecpool", name)
		if err != nil {
			t.Fatalf("parent read %s: %v", name, err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("parent %s corrupted by fork recovery", name)
		}
	}
}

// TestForkObjectMutationsStayInFork: a fork that writes a new object and
// scrub-repairs a corrupted snapshot chunk leaves the snapshot's stores
// and object records alone, so the next fork still sees the populated
// image.
func TestForkObjectMutationsStayInFork(t *testing.T) {
	snap := populateSmall(t, nil).Snapshot()
	wantStores, wantPGs := snapshotPrint(t, snap)

	f1, err := snap.Fork(snap.cfg)
	if err != nil {
		t.Fatal(err)
	}
	pool, _ := f1.Pool("ecpool")
	repaired := pool.PGs[1].Objects[0]
	if err := f1.WriteObject("ecpool", "late", []byte("tiny")); err != nil {
		t.Fatal(err)
	}
	if err := f1.CorruptChunk("ecpool", repaired.Name, 2); err != nil {
		t.Fatal(err)
	}
	report, err := f1.ScrubPool("ecpool")
	if err != nil {
		t.Fatal(err)
	}
	if n, err := f1.RepairInconsistent("ecpool", report); err != nil || n != 1 {
		t.Fatalf("fork repaired %d chunks, %v; want 1", n, err)
	}
	if got, err := f1.ReadObject("ecpool", "late"); err != nil || string(got) != "tiny" {
		t.Fatalf("the writing fork reads its object as %q, %v", got, err)
	}

	gotStores, gotPGs := snapshotPrint(t, snap)
	if !reflect.DeepEqual(gotStores, wantStores) || !reflect.DeepEqual(gotPGs, wantPGs) {
		t.Fatal("snapshot stores or PGs changed by a fork's write and repair")
	}
	f2, err := snap.Fork(snap.cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f2.ReadObject("ecpool", "late"); !errors.Is(err, ErrNoObject) {
		t.Fatalf("next fork reads its sibling's object: %v", err)
	}
}

func TestForkRejectsGeometryChange(t *testing.T) {
	parent := smallCluster(t, 4, 2, nil)
	snap := parent.Snapshot()
	cfg := snap.cfg
	cfg.Hosts = 5
	if _, err := snap.Fork(cfg); err == nil {
		t.Fatal("geometry change accepted")
	}
	cfg = snap.cfg
	cfg.Store.MinAllocSize = 65536
	if _, err := snap.Fork(cfg); err == nil {
		t.Fatal("layout-relevant store change accepted")
	}
}

// clusterFootprint is what a failed bulk load must leave untouched.
type clusterFootprint struct {
	objects, chunks int
	used            int64
}

// footprint reads it before and after a load of objs.
func footprint(c *Cluster, objs []workload.Object) clusterFootprint {
	fp := clusterFootprint{used: c.UsedBytes()}
	for _, pg := range c.pools["ecpool"].PGs {
		fp.objects += len(pg.Objects)
	}
	names := make([]string, len(objs))
	for i, o := range objs {
		names[i] = o.Name
	}
	fp.chunks = storedChunks(c, names...)
	return fp
}

func TestSnapshotFreezesParentStores(t *testing.T) {
	parent := populateSmall(t, nil)
	objs, _ := workload.Spec{Count: 64, ObjectSize: 1 << 20, NamePrefix: "late"}.Objects()
	before := footprint(parent, objs)
	parent.Snapshot()
	if err := parent.BulkLoad("ecpool", objs); err == nil {
		t.Fatal("bulk load into frozen parent should fail")
	}
	if after := footprint(parent, objs); after != before {
		t.Fatalf("failed bulk load left state behind: %+v -> %+v", before, after)
	}
}

// A store that refuses in the middle of the OSD order must not leave the
// stores before it loaded, nor phantom objects in the pool; once the
// obstacle is gone the same pool takes a further load.
func TestBulkLoadIsAllOrNothing(t *testing.T) {
	c := populateSmall(t, nil)
	objs, _ := workload.Spec{Count: 256, ObjectSize: 1 << 20, NamePrefix: "late"}.Objects()
	before := footprint(c, objs)
	bad := c.OSDs()[len(c.OSDs())/2]
	bad.Store.Device().Remove()
	if err := c.BulkLoad("ecpool", objs); err == nil {
		t.Fatal("bulk load onto a removed device should fail")
	}
	if after := footprint(c, objs); after != before {
		t.Fatalf("failed bulk load left state behind: %+v -> %+v", before, after)
	}

	healthy := populateSmall(t, nil)
	if err := healthy.BulkLoad("ecpool", objs); err != nil {
		t.Fatal(err)
	}
	after := footprint(healthy, objs)
	pool, _ := healthy.Pool("ecpool")
	if after.objects != before.objects+256 || after.chunks != before.chunks+256*pool.Code.N() || after.used <= before.used {
		t.Fatalf("second bulk load: %+v -> %+v", before, after)
	}
	res := runHostFailure(t, healthy)
	if res.ObjectRepairs == 0 {
		t.Fatal("recovery after two bulk loads repaired nothing")
	}
}

func TestForksShareCodeInstance(t *testing.T) {
	parent := populateSmall(t, nil)
	snap := parent.Snapshot()
	f1, err := snap.Fork(snap.cfg)
	if err != nil {
		t.Fatal(err)
	}
	f2, err := snap.Fork(snap.cfg)
	if err != nil {
		t.Fatal(err)
	}
	pp, _ := parent.Pool("ecpool")
	p1, _ := f1.Pool("ecpool")
	p2, _ := f2.Pool("ecpool")
	if pp.Code != p1.Code || p1.Code != p2.Code {
		t.Fatal("parent and forks should share one registry code instance")
	}
}

// storePrint is everything a frozen store shows through its read methods,
// the bytes of its payload chunks included.
type storePrint struct {
	chunks     int
	data, meta int64
	dev        blockdev.Stats
	removed    bool
	payload    uint32 // crc32 over the store's payload chunks, in PG order
}

// pgPrint is one snapshot PG: its acting set and its object records.
type pgPrint struct {
	acting  []int
	records []ObjectRecord
}

func snapshotPrint(t *testing.T, s *Snapshot) ([]storePrint, [][]pgPrint) {
	t.Helper()
	var stores []storePrint
	for _, st := range s.stores {
		stores = append(stores, storePrint{
			data:    st.DataBytes(),
			meta:    st.MetaBytes(),
			dev:     st.Device().Snapshot(),
			removed: st.Device().Removed(),
		})
	}
	var pools [][]pgPrint
	for _, sp := range s.pools {
		var pgs []pgPrint
		for _, pg := range sp.pgs {
			p := pgPrint{acting: slices.Clone(pg.acting)}
			for _, o := range pg.objects {
				p.records = append(p.records, o)
				for shard, osd := range pg.acting {
					if s.stores[osd].HasChunk(bluestore.ChunkID{Pool: sp.cfg.Name, PG: pg.id, Object: o.Name, Shard: shard}) {
						stores[osd].chunks++
					}
				}
				if o.Payload {
					payloadPrint(t, s, stores, sp.cfg.Name, pg, o.Name)
				}
			}
			pgs = append(pgs, p)
		}
		pools = append(pools, pgs)
	}
	return stores, pools
}

// payloadPrint folds the bytes of every shard of a payload object into its
// store's print. It reads through a fork of the store, so the snapshot's
// own device counters do not move.
func payloadPrint(t *testing.T, s *Snapshot, stores []storePrint, pool string, pg snapPG, object string) {
	t.Helper()
	for shard, osd := range pg.acting {
		f, err := s.stores[osd].Fork(s.cfg.Store)
		if err != nil {
			t.Fatal(err)
		}
		_, b, err := f.ReadChunk(bluestore.ChunkID{Pool: pool, PG: pg.id, Object: object, Shard: shard})
		if err != nil {
			t.Fatal(err)
		}
		stores[osd].payload = crc32.Update(stores[osd].payload, crc32.IEEETable, b)
	}
}

// TestConcurrentForksLeaveSnapshotUnchanged is the contract the stores'
// missing locks rest on: a frozen snapshot is only read by its forks, so
// eight of them running at once — each writing a payload object,
// corrupting snapshot payload chunks and rewriting them by scrub repair,
// failing an OSD and recovering the pool — leave every store, device,
// payload byte and PG of the snapshot as it was. Under -race it also shows that no fork writes
// anything the snapshot shares with its siblings.
func TestConcurrentForksLeaveSnapshotUnchanged(t *testing.T) {
	parent := populateSmall(t, nil)
	for i := 0; i < 4; i++ {
		if err := parent.WriteObject("ecpool", fmt.Sprintf("early-%d", i), bytes.Repeat([]byte{byte(0x10 + i)}, 30_000)); err != nil {
			t.Fatal(err)
		}
	}
	snap := parent.Snapshot()
	wantStores, wantPGs := snapshotPrint(t, snap)

	const forks = 8
	errs := make([]error, forks)
	parallel.ForEach(forks, forks, func(i int) {
		errs[i] = func() error {
			c, err := snap.Fork(snap.cfg)
			if err != nil {
				return err
			}
			if err := c.WriteObject("ecpool", fmt.Sprintf("late-%d", i), bytes.Repeat([]byte{byte(i + 1)}, 30_000)); err != nil {
				return err
			}
			for j := 0; j < 2; j++ {
				if err := c.CorruptChunk("ecpool", fmt.Sprintf("early-%d", (i+j)%4), (i+j)%3); err != nil {
					return err
				}
			}
			report, err := c.ScrubPool("ecpool")
			if err != nil {
				return err
			}
			if n, err := c.RepairInconsistent("ecpool", report); err != nil || n != 2 {
				return fmt.Errorf("scrub repair rewrote %d chunks, %v; want 2", n, err)
			}
			pool, err := c.Pool("ecpool")
			if err != nil {
				return err
			}
			pg := pool.PGs[i%len(pool.PGs)]
			c.InjectOSDFailures(time.Second, pg.Acting[i%len(pg.Acting)])
			res, err := c.recoverPool("ecpool")
			if err == nil && res.RepairedChunks == 0 {
				err = fmt.Errorf("repaired nothing")
			}
			return err
		}()
	})
	for i, err := range errs {
		if err != nil {
			t.Fatalf("fork %d: %v", i, err)
		}
	}

	gotStores, gotPGs := snapshotPrint(t, snap)
	for id := range wantStores {
		if gotStores[id] != wantStores[id] {
			t.Errorf("snapshot store of osd.%d changed by its forks:\n got %+v\nwant %+v", id, gotStores[id], wantStores[id])
		}
	}
	if !reflect.DeepEqual(gotPGs, wantPGs) {
		t.Error("snapshot PGs (acting sets or object records) changed by its forks")
	}
}

// TestRecoveredChunkScrubsAndRepairs: a chunk a recovery target rebuilt on
// a fork — a bit of the run ScheduleRecovery declared on it — behaves like
// any other chunk in the next round: corrupted, it scrubs dirty; repaired,
// it is rewritten and scrubs clean.
func TestRecoveredChunkScrubsAndRepairs(t *testing.T) {
	snap := populateSmall(t, nil).Snapshot()
	c, err := snap.Fork(snap.cfg)
	if err != nil {
		t.Fatal(err)
	}
	pool, err := c.Pool("ecpool")
	if err != nil {
		t.Fatal(err)
	}
	before := make([][]int, len(pool.PGs))
	for i, pg := range pool.PGs {
		before[i] = slices.Clone(pg.Acting)
	}
	if res := runHostFailure(t, c); res.RepairedChunks == 0 {
		t.Fatal("recovery repaired nothing")
	}
	c.ResetFailureState()

	// The first shard recovery moved to a new OSD.
	var pg *PG
	shard := -1
	for i, p := range pool.PGs {
		if len(p.Objects) == 0 {
			continue
		}
		if shard = slices.IndexFunc(p.Acting, func(id int) bool { return !slices.Contains(before[i], id) }); shard >= 0 {
			pg = p
			break
		}
	}
	if pg == nil {
		t.Fatal("recovery moved no shard")
	}
	obj, osd := pg.Objects[len(pg.Objects)/2].Name, pg.Acting[shard]
	chunks := 0
	for _, p := range pool.PGs {
		chunks += len(p.Objects) * len(p.Acting)
	}

	if err := c.CorruptChunk("ecpool", obj, shard); err != nil {
		t.Fatal(err)
	}
	report, err := c.ScrubPool("ecpool")
	if err != nil {
		t.Fatal(err)
	}
	want := Inconsistency{Pool: "ecpool", PG: pg.ID, Object: obj, Shard: shard, OSD: osd}
	if report.ChunksScrubbed != chunks || len(report.Inconsistent) != 1 || report.Inconsistent[0] != want {
		t.Fatalf("scrub after corrupting a recovered chunk: %d of %d chunks, %+v; want only %+v",
			report.ChunksScrubbed, chunks, report.Inconsistent, want)
	}
	if n, err := c.RepairInconsistent("ecpool", report); n != 1 || err != nil {
		t.Fatalf("RepairInconsistent rewrote %d chunks, %v; want 1", n, err)
	}
	if report, err := c.ScrubPool("ecpool"); err != nil || report.ChunksScrubbed != chunks || len(report.Inconsistent) != 0 {
		t.Fatalf("scrub after repair: %+v, %v", report, err)
	}
}
