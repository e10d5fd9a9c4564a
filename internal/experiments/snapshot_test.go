package experiments

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/logsys"
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

// TestResetSnapshotCache: a reset empties the process-wide sweep, so its
// stats restart from zero and a layout populated before it misses again.
func TestResetSnapshotCache(t *testing.T) {
	p := goldenProfiles()[0].P
	if _, err := runProfiles([]core.Profile{p}); err != nil {
		t.Fatal(err)
	}
	ResetSnapshotCache()
	if hits, misses, evictions := SnapshotCacheStats(); hits != 0 || misses != 0 || evictions != 0 {
		t.Errorf("stats after reset = %d/%d/%d, want 0/0/0", hits, misses, evictions)
	}
	if _, err := runProfiles([]core.Profile{p}); err != nil {
		t.Fatal(err)
	}
	if hits, misses, _ := SnapshotCacheStats(); hits != 0 || misses != 1 {
		t.Errorf("after reset: %d hits %d misses, want the layout populated again", hits, misses)
	}
}
