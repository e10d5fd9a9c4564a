package cluster

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/workload"
)

func TestRecoveryFractionClamps(t *testing.T) {
	tu := Tuning{}.Normalize()
	if f := tu.recoveryFraction(false); f != tu.RecoveryBWFraction {
		t.Fatalf("busy fraction = %f", f)
	}
	boosted := tu.recoveryFraction(true)
	if boosted <= tu.RecoveryBWFraction {
		t.Fatal("idle boost not applied")
	}
	if boosted > 1 {
		t.Fatal("fraction above 1")
	}
	tu.RecoveryBWFraction = 0.9 // boosted past the whole device
	if tu.recoveryFraction(true) != 1 {
		t.Fatal("boost must clamp at 1")
	}
}

func TestThrottledTimeCap(t *testing.T) {
	tu := Tuning{RecoveryBWFraction: 0.1}.Normalize()
	// Small op: pure throttled rate.
	small := tu.throttledTime(1<<20, 100e6, false)
	want := time.Duration(float64(1<<20) / 10e6 * float64(time.Second))
	if small != want {
		t.Fatalf("small op = %v, want %v", small, want)
	}
	// Huge op: cap + full-bandwidth transfer, well under the throttled time.
	huge := tu.throttledTime(1<<30, 100e6, false)
	throttled := time.Duration(float64(1<<30) / 10e6 * float64(time.Second))
	capped := recoveryOpCap + time.Duration(float64(1<<30)/100e6*float64(time.Second))
	if huge != capped {
		t.Fatalf("huge op = %v, want %v", huge, capped)
	}
	if huge >= throttled {
		t.Fatal("cap must beat pure throttling for large ops")
	}
}

func TestDiskReadTimeComponents(t *testing.T) {
	tu := Tuning{}.Normalize()
	base := tu.diskReadTime(0, 0, 0, false)
	if base != 0 {
		t.Fatalf("zero read costs %v", base)
	}
	withIOs := tu.diskReadTime(0, 10, 0, false)
	if withIOs != 10*perIOOverhead {
		t.Fatalf("ios cost = %v", withIOs)
	}
	withRuns := tu.diskReadTime(0, 0, 4, false)
	if withRuns != 4*diskSeek {
		t.Fatalf("runs cost = %v", withRuns)
	}
	// Bytes dominate for large sequential reads.
	big := tu.diskReadTime(100<<20, 1, 1, false)
	if big < time.Second {
		t.Fatalf("100 MiB at throttled rate should exceed 1s, got %v", big)
	}
}

func TestDiskWriteSlowerThanFullBW(t *testing.T) {
	tu := Tuning{}.Normalize()
	throttled := tu.diskWriteTime(8<<20, false)
	idle := tu.diskWriteTime(8<<20, true)
	if idle >= throttled {
		t.Fatal("idle writes should be faster")
	}
}

func TestDecodeTime(t *testing.T) {
	src := int64(1 << 30)
	pure := decodeTime(src, 0)
	want := time.Duration(float64(src) / decodeBW * float64(time.Second))
	if pure != want {
		t.Fatalf("decode = %v want %v", pure, want)
	}
	withSub := decodeTime(0, 100_000)
	if withSub != 100_000*(claySubChunkCPU+claySubChunkOp) {
		t.Fatalf("sub-chunk cost = %v", withSub)
	}
}

// TestPartialTuningRecovers: a Tuning that sets only the mark-out interval
// takes Ceph's defaults for the other three settings, and a host failure
// recovers to active+clean. A zero setting left in place could stall
// recovery or loop forever scheduling events, so the cycle, milliseconds
// of work, runs under a wall-clock bound that panics: a t.Fatal would
// leave the runaway goroutine allocating for the rest of the package's
// tests.
func TestPartialTuningRecovers(t *testing.T) {
	markOut := 30 * time.Second
	c, err := New(Config{Hosts: 8, OSDsPerHost: 2, DeviceCapacity: 4 << 30, Tuning: Tuning{MarkOutInterval: markOut}})
	if err != nil {
		t.Fatal(err)
	}
	want := Tuning{}.Normalize()
	want.MarkOutInterval = markOut
	if got := c.cfg.Tuning; got != want {
		t.Fatalf("tuning = %+v, want %+v", got, want)
	}
	pool := rsPool(t, c, 16)
	objs, _ := workload.Spec{Count: 16, ObjectSize: 1 << 20, NamePrefix: "o"}.Objects()
	if err := c.BulkLoad("ecpool", objs); err != nil {
		t.Fatal(err)
	}
	host, err := c.HostWithMostChunks("ecpool")
	if err != nil {
		t.Fatal(err)
	}
	c.FailHost(time.Second, host)

	bound := 2 * time.Second
	if d, ok := t.Deadline(); ok {
		bound = min(bound, time.Until(d)/2)
	}
	done := make(chan error, 1)
	go func() {
		_, err := c.recoverPool("ecpool")
		done <- err
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(bound):
		panic(fmt.Sprintf("recovery with only the mark-out interval tuned did not finish within %v of wall clock", bound))
	}
	for _, pg := range pool.PGs {
		if st := c.PGStateOf(pool, pg); st != PGActiveClean {
			t.Fatalf("pg %d is %s after recovery", pg.ID, st)
		}
	}
}

func TestReservationOrder(t *testing.T) {
	got := reservationOrder(7, []int{3, 7, 12, 3})
	want := []int{3, 7, 12}
	if len(got) != len(want) {
		t.Fatalf("order = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order = %v, want %v", got, want)
		}
	}
}

func TestPlanHelperIOModes(t *testing.T) {
	c := smallCluster(t, 16, 2, nil)
	// Clay pool with a large stripe unit: sub-chunks above the block size
	// take the strided path.
	pool, err := c.CreatePool(PoolConfig{
		Name: "p", Plugin: "clay", K: 9, M: 3, D: 11,
		PGNum: 4, StripeUnit: 4 << 20, FailureDomain: "host",
	})
	if err != nil {
		t.Fatal(err)
	}
	pg := pool.PGs[0]
	plan, err := pool.Code.RepairPlan([]int{0})
	if err != nil {
		t.Fatal(err)
	}
	chunk := int64(8 << 20) // 2 stripe units
	hios := c.planHelperIO(pool, pg, plan, chunk)
	if len(hios) != 11 {
		t.Fatalf("helpers = %d", len(hios))
	}
	for _, h := range hios {
		if !h.strided {
			t.Fatal("4MB-unit clay sub-chunks should be strided")
		}
		// Network ships beta/alpha of the chunk.
		want := chunk * 27 / 81
		if h.netBytes != want {
			t.Fatalf("netBytes = %d, want %d", h.netBytes, want)
		}
		if h.diskBytes != h.netBytes {
			t.Fatal("strided path moves exactly the planned bytes")
		}
	}

	// Tiny stripe unit: sub-chunks below the block size coalesce.
	pool2, err := c.CreatePool(PoolConfig{
		Name: "p2", Plugin: "clay", K: 9, M: 3, D: 11,
		PGNum: 4, StripeUnit: 4096, FailureDomain: "host",
	})
	if err != nil {
		t.Fatal(err)
	}
	plan2, _ := pool2.Code.RepairPlan([]int{0})
	chunk2 := int64(1821 * 4096)
	hios2 := c.planHelperIO(pool2, pool2.PGs[0], plan2, chunk2)
	for _, h := range hios2 {
		if h.strided {
			t.Fatal("4KB-unit clay sub-chunks must coalesce")
		}
		if h.diskBytes != chunk2 {
			t.Fatalf("coalesced path should read the whole chunk, got %d", h.diskBytes)
		}
		if h.netBytes >= chunk2 {
			t.Fatal("network must still ship only planned bytes")
		}
	}

	// RS reads whole chunks in one run.
	pool3, err := c.CreatePool(PoolConfig{
		Name: "p3", Plugin: "jerasure_reed_sol_van", K: 9, M: 3,
		PGNum: 4, StripeUnit: 4 << 20, FailureDomain: "host",
	})
	if err != nil {
		t.Fatal(err)
	}
	plan3, _ := pool3.Code.RepairPlan([]int{0})
	hios3 := c.planHelperIO(pool3, pool3.PGs[0], plan3, 8<<20)
	if len(hios3) != 9 {
		t.Fatalf("rs helpers = %d", len(hios3))
	}
	for _, h := range hios3 {
		if h.ios != 1 || h.runs != 1 || h.diskBytes != 8<<20 || h.strided {
			t.Fatalf("rs helper io = %+v", h)
		}
	}
}
