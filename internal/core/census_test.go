package core

import "testing"

// TestEventsPerRepair pins the engine's census of a cold run of the two
// default profiles: every event the simulator fires, for 4,588 object
// repairs each. An RS(12,9) repair is 32 events — 9 helper disk reads,
// 9 NIC transfers of 2 (egress, ingress), 2 deliveries for the helper
// gather (the primary's own shard over loopback, the remote helpers as
// one), the write ship's delivery, the decode and the disk write — and a
// Clay(12,9,11) repair, with 11 helpers, 38; the rest is peering,
// heartbeats, reports and iostat samples. A change to the event graph
// shows here as a count before it shows in a profile.
func TestEventsPerRepair(t *testing.T) {
	for _, tc := range []struct {
		name    string
		profile Profile
		fired   uint64
	}{
		{"paper-default", DefaultProfile(), 147_116},
		{"paper-default-clay", ClayProfile(), 174_646},
	} {
		co, err := NewCoordinator(tc.profile)
		if err != nil {
			t.Fatal(err)
		}
		res, err := co.Run()
		if err != nil {
			t.Fatal(err)
		}
		st := co.Cluster().Sim().Stats()
		t.Logf("%s: %+v, %d object repairs", tc.name, st, res.Recovery.ObjectRepairs)
		if res.Recovery.ObjectRepairs != 4588 {
			t.Errorf("%s: %d object repairs, want 4588", tc.name, res.Recovery.ObjectRepairs)
		}
		if st.Fired != tc.fired || st.Scheduled != tc.fired {
			t.Errorf("%s: scheduled %d, fired %d events, want %d of each", tc.name, st.Scheduled, st.Fired, tc.fired)
		}
		if st.SlotPeak != st.HeapPeak {
			t.Errorf("%s: slot slab reached %d for at most %d pending events", tc.name, st.SlotPeak, st.HeapPeak)
		}
	}
}
