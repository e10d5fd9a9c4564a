package simnet

import (
	"testing"
	"time"

	"repro/internal/simclock"
)

func newNet(t *testing.T, hosts ...string) (*simclock.Sim, *Network) {
	t.Helper()
	sim := simclock.New()
	// 1 MB/s and zero latency make arithmetic exact in tests.
	net := New(sim, Config{BandwidthBytesPerSec: 1e6, Latency: 0})
	for _, h := range hosts {
		if _, err := net.AddHost(h); err != nil {
			t.Fatal(err)
		}
	}
	return sim, net
}

func TestTransferTime(t *testing.T) {
	sim, net := newNet(t, "a", "b")
	var done simclock.Time
	net.Transfer("a", "b", 1_000_000, func() { done = sim.Now() })
	sim.Run()
	// 1 MB at 1 MB/s through two store-and-forward hops = 2s.
	if done != 2*time.Second {
		t.Fatalf("done = %v", done)
	}
}

func TestEgressContention(t *testing.T) {
	sim, net := newNet(t, "a", "b", "c")
	var times []simclock.Time
	net.Transfer("a", "b", 1_000_000, func() { times = append(times, sim.Now()) })
	net.Transfer("a", "c", 1_000_000, func() { times = append(times, sim.Now()) })
	sim.Run()
	// Both share a's egress: second flow finishes 1s after the first.
	if times[0] != 2*time.Second || times[1] != 3*time.Second {
		t.Fatalf("times = %v", times)
	}
}

func TestIngressContention(t *testing.T) {
	sim, net := newNet(t, "a", "b", "c")
	var times []simclock.Time
	net.Transfer("a", "c", 1_000_000, func() { times = append(times, sim.Now()) })
	net.Transfer("b", "c", 1_000_000, func() { times = append(times, sim.Now()) })
	sim.Run()
	// Egress is parallel (different hosts) but c's ingress serializes.
	if times[0] != 2*time.Second || times[1] != 3*time.Second {
		t.Fatalf("times = %v", times)
	}
}

func TestIntraHostBypassesNIC(t *testing.T) {
	sim := simclock.New()
	net := New(sim, Config{BandwidthBytesPerSec: 1e6, Latency: 400 * time.Microsecond})
	if _, err := net.AddHost("a"); err != nil {
		t.Fatal(err)
	}
	var done simclock.Time
	net.Transfer("a", "a", 1_000_000_000, func() { done = sim.Now() })
	sim.Run()
	if done != 100*time.Microsecond { // latency/4, no bandwidth charge
		t.Fatalf("done = %v", done)
	}
	eg, in := net.HostUtilization("a")
	if eg != 0 || in != 0 {
		t.Fatal("intra-host transfer must not occupy the NIC")
	}
	if net.BytesMoved != 0 {
		t.Fatal("intra-host transfer must not count as moved bytes")
	}
}

func TestBytesMovedAccounting(t *testing.T) {
	sim, net := newNet(t, "a", "b")
	net.Transfer("a", "b", 123, nil)
	net.Transfer("b", "a", 77, nil)
	sim.Run()
	if net.BytesMoved != 200 {
		t.Fatalf("BytesMoved = %d", net.BytesMoved)
	}
}

func TestDuplicateHostRejected(t *testing.T) {
	_, net := newNet(t, "a")
	if _, err := net.AddHost("a"); err == nil {
		t.Fatal("duplicate host accepted")
	}
}

func TestUnknownHostPanics(t *testing.T) {
	_, net := newNet(t, "a")
	defer func() {
		if recover() == nil {
			t.Fatal("unknown host did not panic")
		}
	}()
	net.Transfer("a", "nope", 1, nil)
}

func TestLatencyApplied(t *testing.T) {
	sim := simclock.New()
	net := New(sim, Config{BandwidthBytesPerSec: 1e6, Latency: time.Millisecond})
	_, _ = net.AddHost("a")
	_, _ = net.AddHost("b")
	var done simclock.Time
	net.Transfer("a", "b", 1_000_000, func() { done = sim.Now() })
	sim.Run()
	if done != 2*time.Second+time.Millisecond {
		t.Fatalf("done = %v", done)
	}
}

func TestHostUtilization(t *testing.T) {
	sim, net := newNet(t, "a", "b")
	net.Transfer("a", "b", 500_000, nil)
	sim.Run()
	eg, _ := net.HostUtilization("a")
	_, in := net.HostUtilization("b")
	if eg != 500*time.Millisecond || in != 500*time.Millisecond {
		t.Fatalf("eg=%v in=%v", eg, in)
	}
}

func TestDefaultConfig(t *testing.T) {
	cfg := DefaultConfig()
	if cfg.BandwidthBytesPerSec <= 0 || cfg.Latency <= 0 {
		t.Fatalf("default config: %+v", cfg)
	}
}

func TestQueueDepthAndUnknownHostStats(t *testing.T) {
	sim, net := newNet(t, "a", "b")
	// In-flight plus waiting transfers on a host's NIC queues.
	depth := func(name string) int {
		h := net.hosts[name]
		return h.egress.InFlight() + h.egress.QueueLen() + h.ingress.InFlight() + h.ingress.QueueLen()
	}
	if depth("a") != 0 {
		t.Fatal("idle depth nonzero")
	}
	net.Transfer("a", "b", 5_000_000, nil)
	net.Transfer("a", "b", 5_000_000, nil)
	// Before running: both transfers occupy/queue on a's egress.
	if depth("a") != 2 {
		t.Fatalf("depth = %d", depth("a"))
	}
	sim.Run()
	if depth("a") != 0 {
		t.Fatal("depth after drain")
	}
	if eg, in := net.HostUtilization("ghost"); eg != 0 || in != 0 {
		t.Fatal("unknown host should report zero")
	}
}

func TestZeroBandwidthPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	New(simclock.New(), Config{})
}

func TestNegativeTransferPanics(t *testing.T) {
	_, net := newNet(t, "a", "b")
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	net.Transfer("a", "b", -1, nil)
}
