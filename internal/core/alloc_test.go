package core

import (
	"runtime"
	"testing"
)

// allocated runs f three times and returns the smallest heap allocation
// count and volume of a run, so a stray background allocation cannot
// fail the budget.
func allocated(t *testing.T, f func() error) (mallocs, bytes uint64) {
	t.Helper()
	mallocs, bytes = ^uint64(0), ^uint64(0)
	for i := 0; i < 3; i++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if err := f(); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		mallocs = min(mallocs, after.Mallocs-before.Mallocs)
		bytes = min(bytes, after.TotalAlloc-before.TotalAlloc)
	}
	return mallocs, bytes
}

// TestAllocationBudget keeps per-chunk state out of populate and growth
// steps out of a forked run. The paper default stores 120,000 chunks; when
// each cost a map entry and a name, a cold run made 250,381 allocations
// totalling 63.8 MB. With bulk-loaded chunks held as base runs the figures
// are 2,300 allocations / 1.1 MB for Populate and 6,700 / 1.6 MB for a Run
// (Populate, then one fork): a bulk-loaded PG's records are one
// name-ordered table that lookups binary-search and that the PG's object
// list is, a recovery target keeps the chunks it rebuilds as bits of the
// runs it declared, not as overlay entries, every queue and semaphore
// waits in one backlog slab per simulator, iostat samples into a sorted
// device table, an OSD's device and KV store are counters, not maps
// built with every store and cloned with every fork, and a finished run
// hands its backlog slab, repair records and iostat buffer on to the next
// (8,500 / 1.9 MB for a Run when every run grew its own and a repair's
// legs were pooled nodes of their own, 8,700 / 2.1 MB for a
// Run with a wait ring per queue, 3,600 / 1.7 MB and 10,000 / 2.7 MB with
// a name index per PG and a pointer per object, 10,000 / 3.2 MB for a Run
// when the targets' overlays were sized from the repair plan instead,
// 10,400 / 3.3 MB before the device and KV counters, 11,000 / 4.2 MB
// before the overlays were sized, and 17,300 / 4.6 MB before log lines
// went straight into the timeline). The budgets sit about 20-25% above those, far below
// what one allocation per chunk would cost.
func TestAllocationBudget(t *testing.T) {
	p := DefaultProfile()
	for _, tc := range []struct {
		name            string
		run             func() error
		mallocs, mbytes uint64
	}{
		{"Populate", func() error { _, err := Populate(p); return err }, 2_800, 1_350_000},
		{"Run", func() error { _, err := Run(p); return err }, 8_200, 2_000_000},
	} {
		mallocs, bytes := allocated(t, tc.run)
		t.Logf("%s: %d allocations, %d bytes", tc.name, mallocs, bytes)
		if mallocs > tc.mallocs || bytes > tc.mbytes {
			t.Errorf("%s allocated %d objects / %d bytes, budget %d / %d", tc.name, mallocs, bytes, tc.mallocs, tc.mbytes)
		}
	}
}
