package core

import "testing"

// TestEventsPerRepair pins the engine's census of the two default
// profiles: every event the simulator fires, for 4,588 object repairs
// each. An RS(12,9) repair is 32 events — 9 helper disk reads, 9 NIC
// transfers of 2 (egress, ingress), 2 deliveries for the helper gather
// (the primary's own shard over loopback, the remote helpers as one), the
// write ship's delivery, the decode and the disk write — and a
// Clay(12,9,11) repair, with 11 helpers, 38; the rest is peering,
// heartbeats, reports and iostat samples. A change to the event graph
// shows here as a count before it shows in a profile. So do the most
// events pending at once and the most jobs waiting at once across the
// run's queues and semaphores (helper disks, NICs, CPUs, backfill
// reservations), which size the engine's two slabs. The unforked root
// run and the fork path Run takes must read the same counts: a fork
// schedules what its root would have.
func TestEventsPerRepair(t *testing.T) {
	for _, tc := range []struct {
		name               string
		profile            Profile
		fired              uint64
		heapPeak, waitPeak int
	}{
		{"paper-default", DefaultProfile(), 147_116, 135, 1_487},
		{"paper-default-clay", ClayProfile(), 174_646, 135, 1_806},
	} {
		root, err := NewCoordinator(tc.profile)
		if err != nil {
			t.Fatal(err)
		}
		rootRes, err := root.Run()
		if err != nil {
			t.Fatal(err)
		}
		snap, err := Populate(tc.profile)
		if err != nil {
			t.Fatal(err)
		}
		fork, err := newCoordinator(tc.profile, snap.snap.Fork)
		if err != nil {
			t.Fatal(err)
		}
		forkRes, err := fork.finish(&Result{Profile: tc.profile}, nil)
		if err != nil {
			t.Fatal(err)
		}
		for _, run := range []struct {
			path string
			co   *Coordinator
			res  *Result
		}{{"root", root, rootRes}, {"fork", fork, forkRes}} {
			name := tc.name + "/" + run.path
			st := run.co.cluster.Sim().Stats()
			t.Logf("%s: %+v, %d object repairs", name, st, run.res.Recovery.ObjectRepairs)
			if run.res.Recovery.ObjectRepairs != 4588 {
				t.Errorf("%s: %d object repairs, want 4588", name, run.res.Recovery.ObjectRepairs)
			}
			if st.Fired != tc.fired || st.Scheduled != tc.fired {
				t.Errorf("%s: scheduled %d, fired %d events, want %d of each", name, st.Scheduled, st.Fired, tc.fired)
			}
			if st.HeapPeak != tc.heapPeak || st.WaitPeak != tc.waitPeak {
				t.Errorf("%s: %d events pending and %d jobs waiting at most, want %d and %d",
					name, st.HeapPeak, st.WaitPeak, tc.heapPeak, tc.waitPeak)
			}
			if st.SlotPeak != st.HeapPeak {
				t.Errorf("%s: slot slab reached %d for at most %d pending events", name, st.SlotPeak, st.HeapPeak)
			}
		}
	}
}
