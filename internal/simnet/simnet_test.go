package simnet

import (
	"testing"
	"time"

	"repro/internal/simclock"
)

// newNet adds n hosts to a 1 MB/s, zero-latency network (arithmetic
// stays exact) and returns their handles in order.
func newNet(n int) (*simclock.Sim, *Network, []*Host) {
	sim := simclock.New()
	net := New(sim, Config{BandwidthBytesPerSec: 1e6, Latency: 0})
	hosts := make([]*Host, n)
	for i := range hosts {
		hosts[i] = net.AddHost()
	}
	return sim, net, hosts
}

// ignore is a delivery callback for transfers whose arrival no test reads.
func ignore(any) {}

func TestTransferTime(t *testing.T) {
	sim, net, h := newNet(2)
	var done simclock.Time
	net.Send(h[0], h[1], 1_000_000, func(any) { done = sim.Now() }, nil)
	sim.Run()
	// 1 MB at 1 MB/s through two store-and-forward hops = 2s.
	if done != 2*time.Second {
		t.Fatalf("done = %v", done)
	}
}

func TestEgressContention(t *testing.T) {
	sim, net, h := newNet(3)
	var times []simclock.Time
	arrived := func(any) { times = append(times, sim.Now()) }
	net.Send(h[0], h[1], 1_000_000, arrived, nil)
	net.Send(h[0], h[2], 1_000_000, arrived, nil)
	sim.Run()
	// Both share a's egress: second flow finishes 1s after the first.
	if times[0] != 2*time.Second || times[1] != 3*time.Second {
		t.Fatalf("times = %v", times)
	}
}

func TestIngressContention(t *testing.T) {
	sim, net, h := newNet(3)
	var times []simclock.Time
	arrived := func(any) { times = append(times, sim.Now()) }
	net.Send(h[0], h[2], 1_000_000, arrived, nil)
	net.Send(h[1], h[2], 1_000_000, arrived, nil)
	sim.Run()
	// Egress is parallel (different hosts) but c's ingress serializes.
	if times[0] != 2*time.Second || times[1] != 3*time.Second {
		t.Fatalf("times = %v", times)
	}
}

func TestIntraHostBypassesNIC(t *testing.T) {
	sim := simclock.New()
	net := New(sim, Config{BandwidthBytesPerSec: 1e6, Latency: 400 * time.Microsecond})
	a := net.AddHost()
	var done simclock.Time
	net.Send(a, a, 1_000_000_000, func(any) { done = sim.Now() }, nil)
	sim.Run()
	if done != 100*time.Microsecond { // latency/4, no bandwidth charge
		t.Fatalf("done = %v", done)
	}
	if a.egress.BusyTime != 0 || a.ingress.BusyTime != 0 {
		t.Fatal("intra-host transfer must not occupy the NIC")
	}
	if net.BytesMoved != 0 {
		t.Fatal("intra-host transfer must not count as moved bytes")
	}
}

func TestBytesMovedAccounting(t *testing.T) {
	sim, net, h := newNet(2)
	net.Send(h[0], h[1], 123, ignore, nil)
	net.Send(h[1], h[0], 77, ignore, nil)
	sim.Run()
	if net.BytesMoved != 200 {
		t.Fatalf("BytesMoved = %d", net.BytesMoved)
	}
}

func TestLatencyApplied(t *testing.T) {
	sim := simclock.New()
	net := New(sim, Config{BandwidthBytesPerSec: 1e6, Latency: time.Millisecond})
	a, b := net.AddHost(), net.AddHost()
	var done simclock.Time
	net.Send(a, b, 1_000_000, func(any) { done = sim.Now() }, nil)
	sim.Run()
	if done != 2*time.Second+time.Millisecond {
		t.Fatalf("done = %v", done)
	}
}

func TestHostUtilization(t *testing.T) {
	sim, net, h := newNet(2)
	net.Send(h[0], h[1], 500_000, ignore, nil)
	sim.Run()
	eg, in := h[0].egress.BusyTime, h[1].ingress.BusyTime
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
	sim, net, h := newNet(2)
	// In-flight plus waiting transfers on a host's NIC queues.
	depth := func(h *Host) int {
		return h.egress.InFlight() + h.egress.QueueLen() + h.ingress.InFlight() + h.ingress.QueueLen()
	}
	if depth(h[0]) != 0 {
		t.Fatal("idle depth nonzero")
	}
	net.Send(h[0], h[1], 5_000_000, ignore, nil)
	net.Send(h[0], h[1], 5_000_000, ignore, nil)
	// Before running: both transfers occupy/queue on a's egress.
	if depth(h[0]) != 2 {
		t.Fatalf("depth = %d", depth(h[0]))
	}
	sim.Run()
	if depth(h[0]) != 0 {
		t.Fatal("depth after drain")
	}
	if idle := net.AddHost(); idle.egress.BusyTime != 0 || idle.ingress.BusyTime != 0 {
		t.Fatal("a host no transfer touched should report zero busy time")
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
	_, net, h := newNet(2)
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	net.Send(h[0], h[1], -1, ignore, nil)
}
