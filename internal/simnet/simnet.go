// Package simnet models the cluster network: hosts with full-duplex NICs
// of finite bandwidth, connected through a non-blocking core (a reasonable
// model for the 25 Gb/s AWS fabric in the paper). Transfers contend for
// the sender's egress and the receiver's ingress; intra-host traffic
// bypasses the NIC.
package simnet

import (
	"fmt"
	"time"

	"repro/internal/simclock"
)

// Network is the fabric connecting hosts.
type Network struct {
	sim       *simclock.Sim
	bandwidth float64 // NIC bandwidth in bytes/sec, full duplex
	latency   simclock.Time
	hosts     map[string]*hostNIC

	freeTransfers *transfer // pooled in-flight transfer state

	// BytesMoved accumulates all inter-host payload bytes, for
	// repair-traffic accounting.
	BytesMoved int64
}

type hostNIC struct {
	egress  *simclock.Queue
	ingress *simclock.Queue
}

// Config parameterizes the network.
type Config struct {
	BandwidthBytesPerSec float64       // per-NIC, each direction
	Latency              simclock.Time // propagation + stack latency per transfer
}

// DefaultConfig models an m5.xlarge-class NIC: 1.25 Gb/s sustained
// baseline (the instances burst to 10 Gb/s, but sustained recovery
// traffic sees the baseline), 200us latency.
func DefaultConfig() Config {
	return Config{BandwidthBytesPerSec: 1.25e9 / 8, Latency: 200 * time.Microsecond}
}

// New creates a network on the given simulator.
func New(sim *simclock.Sim, cfg Config) *Network {
	if cfg.BandwidthBytesPerSec <= 0 {
		panic("simnet: bandwidth must be positive")
	}
	return &Network{
		sim:       sim,
		bandwidth: cfg.BandwidthBytesPerSec,
		latency:   cfg.Latency,
		hosts:     map[string]*hostNIC{},
	}
}

// AddHost registers a host NIC. Duplicate names are rejected.
func (n *Network) AddHost(name string) error {
	if _, ok := n.hosts[name]; ok {
		return fmt.Errorf("simnet: duplicate host %q", name)
	}
	n.hosts[name] = &hostNIC{
		egress:  n.sim.NewQueue(1),
		ingress: n.sim.NewQueue(1),
	}
	return nil
}

// serviceTime converts a payload size to wire time at NIC speed.
func (n *Network) serviceTime(bytes int64) simclock.Time {
	sec := float64(bytes) / n.bandwidth
	return simclock.Time(sec * float64(time.Second))
}

// transfer is the pooled in-flight state of one inter-host transfer: it
// rides the egress and ingress completion events as their fixed argument,
// so a transfer allocates nothing once the freelist warms up.
type transfer struct {
	n    *Network
	dst  *hostNIC
	wire simclock.Time
	fn   func(any)
	arg  any
	next *transfer
}

func (n *Network) newTransfer() *transfer {
	if t := n.freeTransfers; t != nil {
		n.freeTransfers = t.next
		t.next = nil
		return t
	}
	return &transfer{}
}

func (n *Network) freeTransfer(t *transfer) {
	*t = transfer{next: n.freeTransfers}
	n.freeTransfers = t
}

func egressDone(a any) {
	t := a.(*transfer)
	t.dst.ingress.SubmitArg(t.wire, ingressDone, t)
}

func ingressDone(a any) {
	t := a.(*transfer)
	n, fn, arg := t.n, t.fn, t.arg
	n.freeTransfer(t)
	n.sim.AfterArg(n.latency, fn, arg)
}

func noop(any) {}

// Transfer moves bytes from one host to another, invoking done when the
// payload has fully arrived. Intra-host transfers skip the NIC and incur
// only loopback latency.
func (n *Network) Transfer(from, to string, bytes int64, done func()) {
	if done == nil {
		n.TransferArg(from, to, bytes, nil, nil)
		return
	}
	n.TransferArg(from, to, bytes, callThunk, done)
}

func callThunk(a any) { a.(func())() }

// TransferArg is the allocation-free form of Transfer: fn(arg) fires when
// the payload has fully arrived (fn may be nil).
func (n *Network) TransferArg(from, to string, bytes int64, fn func(any), arg any) {
	if bytes < 0 {
		panic("simnet: negative transfer")
	}
	if fn == nil {
		fn = noop
	}
	if from == to {
		n.sim.AfterArg(n.latency/4, fn, arg)
		return
	}
	src, ok := n.hosts[from]
	if !ok {
		panic("simnet: unknown source host " + from)
	}
	dst, ok := n.hosts[to]
	if !ok {
		panic("simnet: unknown destination host " + to)
	}
	n.BytesMoved += bytes
	wire := n.serviceTime(bytes)
	t := n.newTransfer()
	t.n, t.dst, t.wire, t.fn, t.arg = n, dst, wire, fn, arg
	// Store-and-forward through sender egress then receiver ingress: both
	// NICs are occupied for the payload's wire time, so concurrent flows
	// sharing either end contend there.
	src.egress.SubmitArg(wire, egressDone, t)
}

// HostUtilization returns cumulative egress and ingress busy time for a
// host, used by the breakdown analysis.
func (n *Network) HostUtilization(host string) (egress, ingress simclock.Time) {
	h, ok := n.hosts[host]
	if !ok {
		return 0, 0
	}
	return h.egress.BusyTime, h.ingress.BusyTime
}

// QueueDepth reports in-flight plus waiting transfers on a host's NIC
// queues.
func (n *Network) QueueDepth(host string) int {
	h, ok := n.hosts[host]
	if !ok {
		return 0
	}
	return h.egress.InFlight() + h.egress.QueueLen() + h.ingress.InFlight() + h.ingress.QueueLen()
}
