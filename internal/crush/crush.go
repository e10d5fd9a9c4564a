// Package crush implements a CRUSH-style deterministic placement function:
// straw2 bucket selection over a root/rack/host/osd hierarchy with
// failure-domain constraints. Placement groups map to ordered sets of OSDs
// without any central lookup table, exactly the property the cluster
// simulator needs to distribute EC chunks the way Ceph does.
package crush

import (
	"errors"
	"fmt"
	"math"
	"sort"
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

// Map is a CRUSH map: a tree rooted at a single root node.
type Map struct {
	Root   *Node
	osds   []*Node        // by OSD id
	hostOf map[int]string // osd id -> host name
	rackOf map[int]string // osd id -> rack name
	byName map[string]*Node
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

// Build finalizes the map, computing subtree weights.
func (b *Builder) Build() *Map {
	m := &Map{
		Root:   b.root,
		hostOf: map[int]string{},
		rackOf: map[int]string{},
		byName: b.byName,
	}
	var walk func(n *Node, host, rack string) float64
	walk = func(n *Node, host, rack string) float64 {
		switch n.Type {
		case TypeHost:
			host = n.Name
		case TypeRack:
			rack = n.Name
		case TypeOSD:
			for len(m.osds) <= n.OSDID {
				m.osds = append(m.osds, nil)
			}
			m.osds[n.OSDID] = n
			m.hostOf[n.OSDID] = host
			m.rackOf[n.OSDID] = rack
			return n.Weight
		}
		total := 0.0
		for _, c := range n.Children {
			total += walk(c, host, rack)
		}
		n.Weight = total
		return total
	}
	walk(b.root, "", "")
	return m
}

// NumOSDs returns the number of OSDs in the map.
func (m *Map) NumOSDs() int { return len(m.osds) }

// HostOf returns the host name of an OSD.
func (m *Map) HostOf(osd int) string { return m.hostOf[osd] }

// RackOf returns the rack name of an OSD ("" if none).
func (m *Map) RackOf(osd int) string { return m.rackOf[osd] }

// Hosts returns all host names, sorted.
func (m *Map) Hosts() []string {
	seen := map[string]bool{}
	var hosts []string
	for _, h := range m.hostOf {
		if !seen[h] {
			seen[h] = true
			hosts = append(hosts, h)
		}
	}
	sort.Strings(hosts)
	return hosts
}

// OSDsOnHost returns the OSD ids on a host, sorted.
func (m *Map) OSDsOnHost(host string) []int {
	var ids []int
	for id, h := range m.hostOf {
		if h == host {
			ids = append(ids, id)
		}
	}
	sort.Ints(ids)
	return ids
}

// SetOut marks an OSD in or out of the map; out OSDs are skipped by
// Select, which is how the cluster recomputes placement after a failure.
func (m *Map) SetOut(osd int, out bool) {
	if osd >= 0 && osd < len(m.osds) && m.osds[osd] != nil {
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

func hash3(a, b, c uint64) uint64 {
	return splitmix64(splitmix64(splitmix64(a)^b) ^ c)
}

// strawDraw computes the straw2 "length" for an item: higher wins.
// Following straw2, draw = ln(u)/weight with u uniform in (0,1]; items
// with larger weight win proportionally more often.
func strawDraw(seed uint64, itemKey uint64, r int, weight float64) float64 {
	if weight <= 0 {
		return math.Inf(-1)
	}
	return math.Log(strawU(seed, itemKey, r)) / weight
}

// strawU is the uniform variate behind strawDraw. ln is strictly
// monotonic, so when every candidate has the same weight,
// argmax ln(u)/w == argmax u and Select can skip the (expensive) log —
// the chosen item is bit-identical either way.
func strawU(seed uint64, itemKey uint64, r int) float64 {
	h := hash3(seed, itemKey, uint64(r))
	return (float64(h>>11) + 1) / float64(1<<53) // (0, 1]
}

func nameKey(s string) uint64 {
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
func (m *Map) Select(seed uint64, n int, failureDomain string) ([]int, error) {
	switch failureDomain {
	case TypeOSD, TypeHost, TypeRack:
	default:
		return nil, fmt.Errorf("%w: %q", ErrUnknownDomain, failureDomain)
	}
	type candidate struct {
		domainKey string
		osd       int
		itemKey   uint64
		weight    float64
	}
	// Enumerate live OSDs with their domain keys. Item keys and weights
	// are hoisted here so the draw loop below touches no maps. Select runs
	// once per PG at pool creation and again after every failure; the
	// array keeps clusters of up to 128 OSDs off the heap.
	var buf [128]candidate
	cands := buf[:0]
	uniform := true
	for id, node := range m.osds {
		if node == nil || node.out || node.Weight <= 0 {
			continue
		}
		var key string
		switch failureDomain {
		case TypeOSD:
			key = node.Name
		case TypeHost:
			key = m.hostOf[id]
		case TypeRack:
			key = m.rackOf[id]
			if key == "" {
				key = m.hostOf[id] // flat maps: host acts as rack
			}
		}
		if len(cands) > 0 && node.Weight != cands[0].weight {
			uniform = false
		}
		cands = append(cands, candidate{domainKey: key, osd: id, itemKey: nameKey(node.Name), weight: node.Weight})
	}
	chosen := make([]int, 0, n)
	for r := 0; len(chosen) < n; r++ {
		if r > 16*n+64 {
			return nil, fmt.Errorf("%w: placed %d of %d", ErrNotEnoughDomains, len(chosen), n)
		}
		best := -1
		bestDraw := math.Inf(-1)
		for i, c := range cands {
			var d float64
			if uniform {
				d = strawU(seed, c.itemKey, r)
			} else {
				d = strawDraw(seed, c.itemKey, r, c.weight)
			}
			if d > bestDraw {
				bestDraw = d
				best = i
			}
		}
		if best == -1 {
			return nil, fmt.Errorf("%w: placed %d of %d", ErrNotEnoughDomains, len(chosen), n)
		}
		chosen = append(chosen, cands[best].osd)
		// Drop the winning domain's candidates in place: later rounds
		// could never pick them, exactly as the old used-domain skip.
		usedKey := cands[best].domainKey
		kept := cands[:0]
		for _, c := range cands {
			if c.domainKey != usedKey {
				kept = append(kept, c)
			}
		}
		cands = kept
	}
	return chosen, nil
}
