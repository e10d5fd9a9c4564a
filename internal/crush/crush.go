// Package crush implements a CRUSH-style deterministic placement function:
// straw2 bucket selection over a root/rack/host/osd hierarchy with
// failure-domain constraints. Placement groups map to ordered sets of OSDs
// without any central lookup table, exactly the property the cluster
// simulator needs to distribute EC chunks the way Ceph does.
//
// Build does once what every draw would otherwise redo: each OSD's straw2
// item key and its host and rack as bucket numbers, so Select hashes one
// round per candidate per draw and compares failure domains as integers.
// A Map is owned by one cluster and not safe for concurrent use: SetOut
// writes it.
package crush

import (
	"errors"
	"fmt"
	"math"
)

// Node types in the hierarchy.
const (
	TypeRoot = "root"
	TypeRack = "rack"
	TypeHost = "host"
	TypeOSD  = "osd"
)

// Errors.
var (
	ErrNotEnoughDomains = errors.New("crush: not enough failure domains for selection")
	ErrUnknownDomain    = errors.New("crush: unknown failure domain type")
)

// Node is one vertex of the CRUSH hierarchy.
type Node struct {
	Name     string
	Type     string
	Weight   float64
	Children []*Node
	OSDID    int // valid for TypeOSD
	out      bool
}

// Map is a CRUSH map: a tree rooted at a single root node. OSD ids are
// dense, from 0 up, so every per-OSD table is a slice.
type Map struct {
	Root   *Node
	osds   []*Node   // by OSD id
	items  []osdItem // by OSD id
	hostOf []string  // by OSD id: host name
	byName map[string]*Node
}

// osdItem is what Select reads of an OSD besides its node: the straw2 item
// key and the OSD's host and rack as bucket numbers. Buckets are numbered
// in walk order from one counter, and a host directly under the root is
// its own rack, so two OSDs share a number exactly when they share the
// host (or rack) name the domain stands for.
type osdItem struct {
	key        uint64 // NameKey of the OSD's name
	host, rack int32
}

// Builder assembles a map.
type Builder struct {
	root   *Node
	byName map[string]*Node
	nextID int
}

// NewBuilder starts a map with an empty root.
func NewBuilder() *Builder {
	root := &Node{Name: "default", Type: TypeRoot}
	return &Builder{root: root, byName: map[string]*Node{"default": root}}
}

// AddRack adds a rack under the root.
func (b *Builder) AddRack(name string) error {
	return b.addBucket(name, TypeRack, b.root)
}

// AddHost adds a host under the given rack ("" for directly under root).
func (b *Builder) AddHost(name, rack string) error {
	parent := b.root
	if rack != "" {
		p, ok := b.byName[rack]
		if !ok || p.Type != TypeRack {
			return fmt.Errorf("crush: unknown rack %q", rack)
		}
		parent = p
	}
	return b.addBucket(name, TypeHost, parent)
}

func (b *Builder) addBucket(name, typ string, parent *Node) error {
	if _, dup := b.byName[name]; dup {
		return fmt.Errorf("crush: duplicate node %q", name)
	}
	n := &Node{Name: name, Type: typ}
	parent.Children = append(parent.Children, n)
	b.byName[name] = n
	return nil
}

// AddOSD adds an OSD with the given weight under a host, returning its id.
func (b *Builder) AddOSD(host string, weight float64) (int, error) {
	p, ok := b.byName[host]
	if !ok || p.Type != TypeHost {
		return 0, fmt.Errorf("crush: unknown host %q", host)
	}
	id := b.nextID
	b.nextID++
	n := &Node{Name: fmt.Sprintf("osd.%d", id), Type: TypeOSD, Weight: weight, OSDID: id}
	p.Children = append(p.Children, n)
	b.byName[n.Name] = n
	return id, nil
}

// Build finalizes the map, computing subtree weights and the per-OSD
// tables.
func (b *Builder) Build() *Map {
	m := &Map{
		Root:   b.root,
		osds:   make([]*Node, b.nextID),
		items:  make([]osdItem, b.nextID),
		hostOf: make([]string, b.nextID),
		byName: b.byName,
	}
	var bucket int32
	var walk func(n *Node, host string, hostB, rackB int32) float64
	walk = func(n *Node, host string, hostB, rackB int32) float64 {
		switch n.Type {
		case TypeHost:
			host, hostB = n.Name, bucket
			if rackB < 0 {
				rackB = bucket // flat maps: host acts as rack
			}
			bucket++
		case TypeRack:
			rackB = bucket
			bucket++
		case TypeOSD:
			m.osds[n.OSDID] = n
			m.items[n.OSDID] = osdItem{key: NameKey(n.Name), host: hostB, rack: rackB}
			m.hostOf[n.OSDID] = host
			return n.Weight
		}
		total := 0.0
		for _, c := range n.Children {
			total += walk(c, host, hostB, rackB)
		}
		n.Weight = total
		return total
	}
	walk(b.root, "", -1, -1)
	return m
}

// HostOf returns the host name of an OSD ("" for an unknown id).
func (m *Map) HostOf(osd int) string {
	if osd < 0 || osd >= len(m.hostOf) {
		return ""
	}
	return m.hostOf[osd]
}

// OSDsOnHost returns the OSD ids on a host, sorted.
func (m *Map) OSDsOnHost(host string) []int {
	var ids []int
	for id, h := range m.hostOf {
		if h == host {
			ids = append(ids, id)
		}
	}
	return ids
}

// SetOut marks an OSD in or out of the map; out OSDs are skipped by
// Select, which is how the cluster recomputes placement after a failure.
func (m *Map) SetOut(osd int, out bool) {
	if osd >= 0 && osd < len(m.osds) {
		m.osds[osd].out = out
	}
}

// splitmix64 is the deterministic hash behind straw2 draws.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// NameKey is the FNV-1a hash of a name: an OSD's straw2 item key here, a
// pool's placement seed and an object's PG in the cluster.
func NameKey(s string) uint64 {
	var h uint64 = 1469598103934665603
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}

// Select maps a placement seed to n distinct OSDs with at most one OSD per
// failure domain ("osd", "host", or "rack"). It is deterministic in
// (seed, n, failureDomain) and skips out-marked OSDs.
//
// Each round is a straw2 draw over the candidates left: the item with the
// longest straw ln(u)/weight wins, u uniform in (0, 1] from the hash
// splitmix64(splitmix64(splitmix64(seed) ^ itemKey) ^ round). The first two
// rounds of that hash do not depend on the round, so they are computed
// once per candidate and a draw costs one more. With equal weights the
// winner is the largest u, and u = (h>>11 + 1) / 2^53 is exact and
// strictly increasing in h>>11, so that case compares integers and takes
// no log. Ties keep the earliest candidate.
func (m *Map) Select(seed uint64, n int, failureDomain string) ([]int, error) {
	var level int // the osdItem field a domain is: 0 the OSD itself, 1 host, 2 rack
	switch failureDomain {
	case TypeOSD:
	case TypeHost:
		level = 1
	case TypeRack:
		level = 2
	default:
		return nil, fmt.Errorf("%w: %q", ErrUnknownDomain, failureDomain)
	}
	type candidate struct {
		pre    uint64 // the hash's first two rounds
		weight float64
		osd    int32
		domain int32
	}
	// Select runs once per PG at pool creation and again after every
	// failure; the array keeps clusters of up to 128 OSDs off the heap.
	var buf [128]candidate
	cands := buf[:0]
	uniform := true
	s0 := splitmix64(seed)
	for id, node := range m.osds {
		if node.out || node.Weight <= 0 {
			continue
		}
		it := &m.items[id]
		domain := int32(id)
		switch level {
		case 1:
			domain = it.host
		case 2:
			domain = it.rack
		}
		if len(cands) > 0 && node.Weight != cands[0].weight {
			uniform = false
		}
		cands = append(cands, candidate{pre: splitmix64(s0 ^ it.key), weight: node.Weight, osd: int32(id), domain: domain})
	}
	chosen := make([]int, 0, n)
	for r := uint64(0); len(chosen) < n; r++ {
		best := -1
		if uniform && len(cands) > 0 {
			best = 0
			bestU := splitmix64(cands[0].pre^r) >> 11
			for i := 1; i < len(cands); i++ {
				if u := splitmix64(cands[i].pre^r) >> 11; u > bestU {
					best, bestU = i, u
				}
			}
		} else {
			bestDraw := math.Inf(-1)
			for i := range cands {
				c := &cands[i]
				u := (float64(splitmix64(c.pre^r)>>11) + 1) / float64(1<<53) // (0, 1]
				if d := math.Log(u) / c.weight; d > bestDraw {
					best, bestDraw = i, d
				}
			}
		}
		if best == -1 {
			return nil, fmt.Errorf("%w: placed %d of %d", ErrNotEnoughDomains, len(chosen), n)
		}
		chosen = append(chosen, int(cands[best].osd))
		// Drop the winning domain's candidates in place: later rounds
		// could never pick them.
		used := cands[best].domain
		kept := cands[:0]
		for _, c := range cands {
			if c.domain != used {
				kept = append(kept, c)
			}
		}
		cands = kept
	}
	return chosen, nil
}
