// Package simnet models the cluster network: hosts with full-duplex NICs
// of finite bandwidth, connected through a non-blocking core (a reasonable
// model for the 25 Gb/s AWS fabric in the paper). Transfers contend for
// the sender's egress and the receiver's ingress; intra-host traffic
// bypasses the NIC.
package simnet

import (
	"time"

	"repro/internal/simclock"
)

// Network is the fabric connecting hosts.
type Network struct {
	sim       *simclock.Sim
	bandwidth float64 // NIC bandwidth in bytes/sec, full duplex
	latency   simclock.Time

	freeTransfers *transfer // pooled in-flight transfer state

	// BytesMoved accumulates all inter-host payload bytes, for
	// repair-traffic accounting.
	BytesMoved int64
}

// Host is a host's NIC: the handle AddHost returns, which Send and Ship
// take. The network keeps no registry of hosts; whoever adds one holds
// its handle.
type Host struct {
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
	}
}

// AddHost adds a host NIC to the fabric and returns its handle.
func (n *Network) AddHost() *Host {
	return &Host{
		egress:  n.sim.NewQueue(1),
		ingress: n.sim.NewQueue(1),
	}
}

// serviceTime converts a payload size to wire time at NIC speed.
func (n *Network) serviceTime(bytes int64) simclock.Time {
	sec := float64(bytes) / n.bandwidth
	return simclock.Time(sec * float64(time.Second))
}

// transfer is the pooled in-flight state of one inter-host transfer: it
// rides the egress and ingress completion events as their fixed argument,
// so a transfer allocates nothing once the freelist warms up. A transfer
// delivers either to its own callback or, as a member of a Gather, to g.
type transfer struct {
	n    *Network
	dst  *Host
	wire simclock.Time
	fn   func(any)
	arg  any
	g    *Gather
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

// ingressDone fires when a payload has cleared the receiver's NIC; the
// receiver sees it one latency later. A Gather member that is not the
// last of its gather through this NIC is counted as arrived here, without
// an event of its own: the NIC is a single FIFO server and the latency is
// one constant, so the last member through arrives after every earlier
// one, nothing can complete the gather before it does, and nothing else
// reads an earlier member's arrival time.
func ingressDone(a any) {
	t := a.(*transfer)
	n, fn, arg, g := t.n, t.fn, t.arg, t.g
	n.freeTransfer(t)
	if g != nil {
		g.remote--
		if g.remote > 0 {
			g.left--
			return
		}
	}
	n.sim.AfterArg(n.latency, fn, arg)
}

// Send moves bytes from one host to another: fn(arg) fires when the
// payload has fully arrived at to. Intra-host sends skip the NIC and incur
// only loopback latency.
func (n *Network) Send(from, to *Host, bytes int64, fn func(any), arg any) {
	n.send(from, to, bytes, fn, arg, nil)
}

// send is the one transfer implementation: a plain transfer delivers to
// fn(arg), a gather member (g != nil) to its gather.
func (n *Network) send(from, to *Host, bytes int64, fn func(any), arg any, g *Gather) {
	if bytes < 0 {
		panic("simnet: negative transfer")
	}
	if from == to {
		n.sim.AfterArg(n.latency/4, fn, arg)
		return
	}
	n.BytesMoved += bytes
	wire := n.serviceTime(bytes)
	t := n.newTransfer()
	t.n, t.dst, t.wire, t.fn, t.arg, t.g = n, to, wire, fn, arg, g
	// Store-and-forward through sender egress then receiver ingress: both
	// NICs are occupied for the payload's wire time, so concurrent flows
	// sharing either end contend there.
	from.egress.SubmitArg(wire, egressDone, t)
}

// Gather is a fan-in: several payloads converging on one host whose
// owner acts once, when the last has arrived, and never asks when any
// other one did. That lets the network deliver all of a gather's remote
// members with a single latency event (see ingressDone) instead of one
// each. The zero value is ready for Reset; a Gather is reusable once it
// has fired.
type Gather struct {
	to     *Host
	remote int // remote members that have not cleared to's NIC yet
	left   int // members that have not arrived yet
	fn     func(any)
	arg    any
}

// Reset arms g to call fn(arg) when every member announced by Expect has
// arrived at to.
func (g *Gather) Reset(to *Host, fn func(any), arg any) {
	*g = Gather{to: to, fn: fn, arg: arg}
}

// Expect announces one member that Ship will later send from the given
// host. Every member must be announced before the first is shipped: the
// network tells the last remote member by counting the outstanding ones.
func (g *Gather) Expect(from *Host) {
	g.left++
	if from != g.to {
		g.remote++
	}
}

// Ship sends one announced member of g. Members from the receiving host
// itself skip the NIC and arrive after the loopback latency, as in Send.
func (n *Network) Ship(g *Gather, from *Host, bytes int64) {
	n.send(from, g.to, bytes, gatherArrive, g, g)
}

// gatherArrive is the arrival of a member that kept its delivery event:
// an intra-host member, or the last remote member through the NIC.
func gatherArrive(a any) {
	g := a.(*Gather)
	g.left--
	if g.left == 0 {
		g.fn(g.arg)
	}
}
