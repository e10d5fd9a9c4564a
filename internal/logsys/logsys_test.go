package logsys

import "testing"

func TestClassify(t *testing.T) {
	cases := []struct{ line, want string }{
		{"osd.3 start recovery I/O", CatRecovery},
		{"decoding stripe 17", CatDecoding},
		{"osd.5 marked down after grace", CatFailure},
		{"receiving heartbeats from osd.1", CatHeartbeat},
		{"collecting missing objects, queueing", CatPeering},
		{"iostat sample dev nvme0n1", CatIO},
		{"unrelated chatter", CatOther},
		// Priority: "recovery" beats "heartbeat" when both appear.
		{"heartbeat during recovery window", CatRecovery},
	}
	for _, tc := range cases {
		if got := Classify(tc.line); got != tc.want {
			t.Errorf("Classify(%q) = %s, want %s", tc.line, got, tc.want)
		}
	}
}
