package simnet

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"time"

	"repro/internal/simclock"
)

// Equivalence oracle for Gather. A byte program describes gathers
// (receiver, members with sender, size and ship time) and plain transfers
// on a handful of hosts; it is run once through Gather/Ship and once
// through the per-ship reference below, which sends every member as a
// transfer of its own and counts arrivals the way cluster's recovery did
// before gathers existed. Both runs must record the same (time, id)
// completions in the same order, move the same bytes and keep every NIC
// busy for the same time; the only permitted difference is the number of
// events fired, by exactly the deliveries a gather folds away.

const gatherHosts = 5

var gatherLatencies = []simclock.Time{0, time.Microsecond, 200 * time.Microsecond, 3 * time.Millisecond}

type gatherMember struct {
	from  int
	bytes int64
	at    simclock.Time // when the member is shipped
}

type gatherSpec struct {
	to      int
	members []gatherMember
}

type plainSpec struct {
	from, to int
	bytes    int64
	at       simclock.Time
}

type gatherProgram struct {
	latency simclock.Time
	gathers []gatherSpec
	plains  []plainSpec
}

// parseGatherProgram turns fuzz bytes into a program. Sizes are small
// multiples of 250 bytes (250 µs of wire time at 1 MB/s) and ship times
// small multiples of 100 µs, so transfers overlap, queue behind one
// another on shared NICs and often complete at the same instant; size 0
// and sender == receiver both come up about one time in five.
func parseGatherProgram(data []byte) gatherProgram {
	next := func() int {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return int(b)
	}
	p := gatherProgram{latency: gatherLatencies[next()%len(gatherLatencies)]}
	for len(data) > 0 && len(p.gathers)+len(p.plains) < 64 {
		head := next()
		if head%4 == 0 {
			p.plains = append(p.plains, plainSpec{
				from: next() % gatherHosts, to: next() % gatherHosts,
				bytes: int64(next()%5) * 250, at: simclock.Time(next()%32) * 100 * time.Microsecond,
			})
			continue
		}
		g := gatherSpec{to: (head / 4) % gatherHosts}
		for n := 1 + next()%10; n > 0; n-- {
			g.members = append(g.members, gatherMember{
				from: next() % gatherHosts, bytes: int64(next()%5) * 250,
				at: simclock.Time(next()%32) * 100 * time.Microsecond,
			})
		}
		p.gathers = append(p.gathers, g)
	}
	return p
}

type completion struct {
	at simclock.Time
	id int
}

type gatherOutcome struct {
	trace      []completion
	bytesMoved int64
	busy       [gatherHosts][2]simclock.Time
	fired      uint64
}

// runGatherProgram executes p. A gather's completion sends a follow-on
// transfer from its receiver, as a repair's decode is followed by the
// write ship, so the order of what a completion schedules is part of the
// trace. Ids: gather i is i, its follow-on 1000+i, plain transfer j
// 2000+j.
func runGatherProgram(p gatherProgram, perShip bool) gatherOutcome {
	sim := simclock.New()
	net := New(sim, Config{BandwidthBytesPerSec: 1e6, Latency: p.latency})
	var hosts [gatherHosts]*Host
	for i := range hosts {
		hosts[i] = net.AddHost()
	}
	var out gatherOutcome
	record := func(id int) { out.trace = append(out.trace, completion{sim.Now(), id}) }

	for j, pl := range p.plains {
		j, pl := j, pl
		sim.At(pl.at, func() {
			net.Send(hosts[pl.from], hosts[pl.to], pl.bytes, func(any) { record(2000 + j) }, nil)
		})
	}
	gathers := make([]Gather, len(p.gathers))
	for i, spec := range p.gathers {
		i, spec := i, spec
		to := hosts[spec.to]
		complete := func(any) {
			record(i)
			net.Send(to, hosts[(spec.to+1)%gatherHosts], 250, func(any) { record(1000 + i) }, nil)
		}
		if perShip {
			left := len(spec.members)
			arrive := func(any) {
				if left--; left == 0 {
					complete(nil)
				}
			}
			for _, m := range spec.members {
				m := m
				sim.At(m.at, func() { net.Send(hosts[m.from], to, m.bytes, arrive, nil) })
			}
			continue
		}
		g := &gathers[i]
		g.Reset(to, complete, nil)
		for _, m := range spec.members {
			g.Expect(hosts[m.from])
		}
		for _, m := range spec.members {
			m := m
			sim.At(m.at, func() { net.Ship(g, hosts[m.from], m.bytes) })
		}
	}
	sim.Run()
	out.bytesMoved = net.BytesMoved
	for i, h := range hosts {
		out.busy[i] = [2]simclock.Time{h.egress.BusyTime, h.ingress.BusyTime}
	}
	out.fired = sim.Stats().Fired
	return out
}

func checkGatherProgram(t *testing.T, p gatherProgram) {
	t.Helper()
	got, want := runGatherProgram(p, false), runGatherProgram(p, true)
	if !slices.Equal(got.trace, want.trace) {
		t.Fatalf("completion traces differ\ngather:   %v\nper-ship: %v\nprogram: %+v", got.trace, want.trace, p)
	}
	if len(got.trace) != 2*len(p.gathers)+len(p.plains) {
		t.Fatalf("%d completions for %d gathers and %d plain transfers", len(got.trace), len(p.gathers), len(p.plains))
	}
	if got.bytesMoved != want.bytesMoved {
		t.Fatalf("BytesMoved %d, per-ship %d", got.bytesMoved, want.bytesMoved)
	}
	if got.busy != want.busy {
		t.Fatalf("NIC busy times %v, per-ship %v", got.busy, want.busy)
	}
	// Every remote member but the last through the receiver's NIC gives
	// up its delivery event, and nothing else changes.
	var folded uint64
	for _, g := range p.gathers {
		remote := 0
		for _, m := range g.members {
			if m.from != g.to {
				remote++
			}
		}
		if remote > 1 {
			folded += uint64(remote - 1)
		}
	}
	if want.fired-got.fired != folded {
		t.Fatalf("fired %d events, per-ship %d: difference %d, want %d", got.fired, want.fired, want.fired-got.fired, folded)
	}
}

// encodeGatherProgram is parseGatherProgram's inverse, so the seed
// programs below can be written as what they mean.
func encodeGatherProgram(p gatherProgram) []byte {
	step := func(t simclock.Time) byte { return byte(t / (100 * time.Microsecond)) }
	data := []byte{byte(slices.Index(gatherLatencies, p.latency))}
	for _, pl := range p.plains {
		data = append(data, 0, byte(pl.from), byte(pl.to), byte(pl.bytes/250), step(pl.at))
	}
	for _, g := range p.gathers {
		data = append(data, byte(g.to*4+1), byte(len(g.members)-1))
		for _, m := range g.members {
			data = append(data, byte(m.from), byte(m.bytes/250), step(m.at))
		}
	}
	return data
}

const us = time.Microsecond

// gatherSeedPrograms name the cases the random programs reach only by
// chance.
var gatherSeedPrograms = []gatherProgram{
	{ // no remote member: every ship keeps its loopback delivery
		latency: 200 * us,
		gathers: []gatherSpec{{to: 1, members: []gatherMember{{1, 500, 0}, {1, 0, 300 * us}, {1, 250, 100 * us}}}},
	},
	{ // one remote member, and the receiver's own member arriving last
		latency: 200 * us,
		gathers: []gatherSpec{{to: 2, members: []gatherMember{{0, 750, 0}, {2, 250, 3100 * us}}}},
	},
	{ // the shape of a repair: eight remote helpers and the primary's own shard
		latency: 200 * us,
		gathers: []gatherSpec{{to: 0, members: []gatherMember{
			{1, 1000, 0}, {2, 1000, 100 * us}, {3, 1000, 0}, {4, 1000, 200 * us}, {0, 1000, 100 * us},
			{1, 1000, 300 * us}, {2, 1000, 0}, {3, 1000, 500 * us}, {4, 1000, 0},
		}}},
	},
	{ // two gathers overlapping on h1's NIC from shared senders, interleaved
		latency: 3000 * us,
		gathers: []gatherSpec{
			{to: 1, members: []gatherMember{{0, 1000, 0}, {2, 500, 100 * us}, {3, 750, 900 * us}}},
			{to: 1, members: []gatherMember{{0, 250, 100 * us}, {2, 1000, 0}, {3, 0, 200 * us}, {1, 500, 0}}},
		},
	},
	{ // zero bytes at zero latency: everything happens at the same few instants
		latency: 0,
		gathers: []gatherSpec{
			{to: 3, members: []gatherMember{{0, 0, 0}, {1, 0, 0}, {3, 0, 0}, {2, 0, 0}}},
			{to: 3, members: []gatherMember{{2, 0, 0}, {0, 0, 0}}},
		},
		plains: []plainSpec{{0, 3, 0, 0}, {4, 3, 0, 0}},
	},
	{ // plain transfers ahead of and between a gather's members on its NIC
		latency: us,
		gathers: []gatherSpec{{to: 4, members: []gatherMember{{0, 500, 100 * us}, {1, 500, 400 * us}, {2, 250, 0}}}},
		plains:  []plainSpec{{3, 4, 1000, 0}, {0, 4, 750, 200 * us}, {4, 0, 1000, 0}},
	},
}

func TestGatherMatchesPerShip(t *testing.T) {
	for i, p := range gatherSeedPrograms {
		t.Run(fmt.Sprintf("seed%d", i), func(t *testing.T) {
			if back := parseGatherProgram(encodeGatherProgram(p)); !reflect.DeepEqual(back, p) {
				t.Fatalf("seed does not survive encoding: %+v became %+v", p, back)
			}
			checkGatherProgram(t, p)
		})
	}
	for seed := int64(1); seed <= 200; seed++ {
		data := make([]byte, 40+seed%160)
		rand.New(rand.NewSource(seed)).Read(data)
		p := parseGatherProgram(data)
		t.Run(fmt.Sprintf("random%d", seed), func(t *testing.T) { checkGatherProgram(t, p) })
	}
}

func FuzzGatherMatchesPerShip(f *testing.F) {
	for _, p := range gatherSeedPrograms {
		f.Add(encodeGatherProgram(p))
	}
	f.Fuzz(func(t *testing.T, data []byte) { checkGatherProgram(t, parseGatherProgram(data)) })
}

// TestGatherFoldsDeliveries is the arithmetic the census in internal/core
// rests on: k remote members and one local cost 2k NIC events and two
// deliveries, where k+1 plain transfers cost 2k NIC events and k+1.
func TestGatherFoldsDeliveries(t *testing.T) {
	sim := simclock.New()
	net := New(sim, Config{BandwidthBytesPerSec: 1e6, Latency: time.Millisecond})
	var hosts [9]*Host
	for i := range hosts {
		hosts[i] = net.AddHost()
	}
	var done simclock.Time
	var g Gather
	g.Reset(hosts[0], func(any) { done = sim.Now() }, nil)
	for _, h := range hosts {
		g.Expect(h)
	}
	for _, h := range hosts {
		net.Ship(&g, h, 1000)
	}
	sim.Run()
	// Eight 1 ms payloads queue on h0's ingress behind 1 ms of egress.
	if want := 9*time.Millisecond + time.Millisecond; done != want {
		t.Fatalf("gather completed at %v, want %v", done, want)
	}
	if st := sim.Stats(); st.Fired != 8*2+2 {
		t.Fatalf("fired %d events, want %d", st.Fired, 8*2+2)
	}
}
