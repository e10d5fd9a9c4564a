package experiments

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/logsys"
	"repro/internal/parallel"
)

// recoveryGolden extracts the golden-comparable fields from a result.
func recoveryGolden(res *core.Result) timelineGolden {
	r := res.Recovery
	return timelineGolden{
		DetectedNS:  int64(r.DetectedAt),
		StartNS:     int64(r.RecoveryStartAt),
		FinishedNS:  int64(r.FinishedAt),
		HelperDisk:  r.HelperDiskBytes,
		Network:     r.NetworkBytes,
		Written:     r.WrittenBytes,
		ObjRepairs:  r.ObjectRepairs,
		RepChunks:   r.RepairedChunks,
		DegradedPGs: r.DegradedPGs,
	}
}

// renderTimeline flattens a merged timeline to the raw on-node log
// format; comparing the rendered bytes is what "byte-identical timeline"
// means for compareRuns (entry order included).
func renderTimeline(entries []logsys.Entry) string {
	var b strings.Builder
	for _, e := range entries {
		fmt.Fprintf(&b, "%d %s %s %s\n", int64(e.Time), e.Node, e.Category, e.Message)
	}
	return b.String()
}

// renderIOSamples flattens the iostat sample stream, order included.
func renderIOSamples(res *core.Result) string {
	var b strings.Builder
	for _, s := range res.IOSamples {
		fmt.Fprintf(&b, "%d %s r%d w%d rb%d wb%d\n",
			int64(s.Time), s.Device, s.ReadOps, s.WriteOps, s.ReadBytes, s.WriteBytes)
	}
	return b.String()
}

// coldRun runs a profile on its own freshly built root cluster, with no
// snapshot and no fork in between: the oracle forked runs are compared
// with, now that core.Run itself forks.
func coldRun(t *testing.T, p core.Profile) *core.Result {
	t.Helper()
	co, err := core.NewCoordinator(p)
	if err != nil {
		t.Fatal(err)
	}
	res, err := co.Run()
	if err != nil {
		t.Fatalf("%s: cold run: %v", p.Name, err)
	}
	return res
}

// compareRuns asserts every observable of a cold run and its forked twin
// is identical.
func compareRuns(t *testing.T, label string, cold, forked *core.Result) {
	t.Helper()
	if cold.Recovery == nil || forked.Recovery == nil {
		t.Fatalf("%s: missing recovery result (cold=%v forked=%v)",
			label, cold.Recovery != nil, forked.Recovery != nil)
	}
	if *cold.Recovery != *forked.Recovery {
		t.Errorf("%s: recovery result diverged\ncold   %+v\nforked %+v",
			label, *cold.Recovery, *forked.Recovery)
	}
	if cold.UsedBytes != forked.UsedBytes || cold.WrittenBytes != forked.WrittenBytes {
		t.Errorf("%s: byte accounting diverged: cold used=%d written=%d, forked used=%d written=%d",
			label, cold.UsedBytes, cold.WrittenBytes, forked.UsedBytes, forked.WrittenBytes)
	}
	if cold.LogLinesShipped != forked.LogLinesShipped || cold.LogLinesDropped != forked.LogLinesDropped {
		t.Errorf("%s: log accounting diverged: cold %d/%d, forked %d/%d",
			label, cold.LogLinesShipped, cold.LogLinesDropped, forked.LogLinesShipped, forked.LogLinesDropped)
	}
	if renderIOSamples(cold) != renderIOSamples(forked) {
		t.Errorf("%s: iostat sample stream diverged (%d vs %d samples)",
			label, len(cold.IOSamples), len(forked.IOSamples))
	}
	if c, f := renderTimeline(cold.Timeline), renderTimeline(forked.Timeline); c != f {
		i := 0
		for i < len(c) && i < len(f) && c[i] == f[i] {
			i++
		}
		lo := max(i-80, 0)
		t.Errorf("%s: timeline diverged at byte %d\ncold   ...%q\nforked ...%q",
			label, i, c[lo:min(i+80, len(c))], f[lo:min(i+80, len(f))])
	}
}

// TestEngineDeterminismForked replays the engine goldens on forked
// clusters: populate once per profile, run the recovery side on a
// copy-on-write fork, and demand the exact numbers the pre-rewrite
// engine produced on fresh-built clusters. Each forked run is also
// compared, in every observable, with a freshly computed cold twin,
// which extends the check to a scale the stored goldens do not pin.
func TestEngineDeterminismForked(t *testing.T) {
	scales := []int{goldenScale, 10}
	if testing.Short() {
		scales = scales[:1]
	}
	for _, scale := range scales {
		for _, cfg := range goldenProfilesAt(scale) {
			label := fmt.Sprintf("%s/scale=%d", cfg.Name, scale)
			snap, err := core.Populate(cfg.P)
			if err != nil {
				t.Fatalf("%s: populate: %v", label, err)
			}
			res, err := snap.Run(cfg.P)
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			if res.Recovery == nil {
				t.Fatalf("%s: no recovery result", label)
			}
			if scale == goldenScale {
				if got, want := recoveryGolden(res), engineGoldens[cfg.Name]; got != want {
					t.Errorf("%s: forked run diverged from golden\n got %+v\nwant %+v", label, got, want)
				}
			}
			compareRuns(t, label, coldRun(t, cfg.P), res)
		}
	}
}

// TestForkMutationsDoNotLeakAcrossParallelCells runs many cells off one
// snapshot concurrently (run under -race): several recovery-side variants,
// each replicated, all forking the same frozen image at once. Every
// replica must match its serially computed fresh twin bit-identically —
// any cross-fork leak (shared chunk map, shared acting set, shared
// decode state) shows up as a divergent replica or a race report.
func TestForkMutationsDoNotLeakAcrossParallelCells(t *testing.T) {
	base := goldenProfiles()[0].P
	schemes := []string{core.SchemeKVOptimized, core.SchemeDataOptimized, core.SchemeAutotune}

	fresh := make([]*core.Result, len(schemes))
	for i, s := range schemes {
		p := base
		p.Backend.CacheScheme = s
		fresh[i] = coldRun(t, p)
	}

	cache := newSnapshotCache(snapshotBound)
	const replicas = 4
	n := len(schemes) * replicas
	results := make([]*core.Result, n)
	errs := make([]error, n)
	parallel.ForEach(n, n, func(i int) {
		p := base
		p.Name = fmt.Sprintf("%s-fork-%d", base.Name, i)
		p.Backend.CacheScheme = schemes[i%len(schemes)]
		results[i], errs[i] = cache.Run(p)
	})
	for i := 0; i < n; i++ {
		if errs[i] != nil {
			t.Fatalf("cell %d: %v", i, errs[i])
		}
		twin := fresh[i%len(schemes)]
		res := results[i]
		if *res.Recovery != *twin.Recovery {
			t.Errorf("cell %d (%s): recovery diverged\nfork  %+v\nfresh %+v",
				i, schemes[i%len(schemes)], res.Recovery, twin.Recovery)
		}
		if res.WA != twin.WA || res.UsedBytes != twin.UsedBytes || res.WrittenBytes != twin.WrittenBytes {
			t.Errorf("cell %d: accounting diverged", i)
		}
		if res.LogLinesShipped != twin.LogLinesShipped || res.LogLinesDropped != twin.LogLinesDropped {
			t.Errorf("cell %d: log counts diverged", i)
		}
	}
	hits, misses, _ := cache.Stats()
	if misses != 1 || hits != int64(n-1) {
		t.Errorf("cache stats: %d hits %d misses, want %d hits 1 miss", hits, misses, n-1)
	}
}

// TestSnapshotCacheBoundAndReset pins the LRU bound behavior on a cache
// shrunk to one slot.
func TestSnapshotCacheBoundAndReset(t *testing.T) {
	c := newSnapshotCache(1)

	a := goldenProfiles()[0].P // rs layout
	b := a
	b.Workload.Seed++ // layout-relevant: different snapshot

	if _, err := c.Run(a); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Run(a); err != nil { // hit
		t.Fatal(err)
	}
	if _, err := c.Run(b); err != nil { // miss, evicts a
		t.Fatal(err)
	}
	if _, err := c.Run(a); err != nil { // miss again: a was evicted
		t.Fatal(err)
	}
	hits, misses, evictions := c.Stats()
	if hits != 1 || misses != 3 || evictions != 2 {
		t.Errorf("stats = %d/%d/%d hits/misses/evictions, want 1/3/2", hits, misses, evictions)
	}

	defer engineCache.Store(engineCache.Load())
	engineCache.Store(c)
	ResetSnapshotCache()
	hits, misses, evictions = SnapshotCacheStats()
	if hits != 0 || misses != 0 || evictions != 0 {
		t.Error("reset did not clear stats")
	}
	if engineCache.Load().lru.Len() != 0 {
		t.Error("reset did not clear entries")
	}
}
