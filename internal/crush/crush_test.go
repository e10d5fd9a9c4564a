package crush

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"testing"
)

// buildCluster makes hosts x osdsPerHost OSDs of weight 1.
func buildCluster(t *testing.T, hosts, osdsPerHost int) *Map {
	t.Helper()
	b := NewBuilder()
	for h := 0; h < hosts; h++ {
		name := hostName(h)
		if err := b.AddHost(name, ""); err != nil {
			t.Fatal(err)
		}
		for d := 0; d < osdsPerHost; d++ {
			if _, err := b.AddOSD(name, 1.0); err != nil {
				t.Fatal(err)
			}
		}
	}
	return b.Build()
}

func hostName(h int) string { return "host" + string(rune('a'+h%26)) + string(rune('0'+h/26)) }

func TestBuildTopology(t *testing.T) {
	m := buildCluster(t, 5, 2)
	if len(m.osds) != 10 {
		t.Fatalf("%d OSDs", len(m.osds))
	}
	if len(m.Root.Children) != 5 {
		t.Fatalf("%d hosts under the root", len(m.Root.Children))
	}
	if m.HostOf(0) != m.HostOf(1) {
		t.Fatal("osd 0 and 1 should share a host")
	}
	if m.HostOf(0) == m.HostOf(2) {
		t.Fatal("osd 0 and 2 should be on different hosts")
	}
	ids := m.OSDsOnHost(m.HostOf(0))
	if len(ids) != 2 || ids[0] != 0 || ids[1] != 1 {
		t.Fatalf("OSDsOnHost = %v", ids)
	}
	if m.Root.Weight != 10 {
		t.Fatalf("root weight = %f", m.Root.Weight)
	}
}

func TestSelectDeterministic(t *testing.T) {
	m := buildCluster(t, 15, 2)
	a, err := m.Select(42, 12, TypeHost)
	if err != nil {
		t.Fatal(err)
	}
	b, err := m.Select(42, 12, TypeHost)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("selection not deterministic")
		}
	}
}

func TestSelectDistinctDomains(t *testing.T) {
	m := buildCluster(t, 15, 2)
	for seed := uint64(0); seed < 200; seed++ {
		sel, err := m.Select(seed, 12, TypeHost)
		if err != nil {
			t.Fatal(err)
		}
		if len(sel) != 12 {
			t.Fatalf("len = %d", len(sel))
		}
		hosts := map[string]bool{}
		osds := map[int]bool{}
		for _, o := range sel {
			if osds[o] {
				t.Fatal("duplicate OSD selected")
			}
			osds[o] = true
			h := m.HostOf(o)
			if hosts[h] {
				t.Fatalf("seed %d: host %s selected twice", seed, h)
			}
			hosts[h] = true
		}
	}
}

func TestSelectOSDDomainAllowsSameHost(t *testing.T) {
	m := buildCluster(t, 4, 3) // 12 OSDs over 4 hosts
	sel, err := m.Select(7, 12, TypeOSD)
	if err != nil {
		t.Fatal(err)
	}
	if len(sel) != 12 {
		t.Fatalf("len = %d", len(sel))
	}
	// Must include multiple OSDs of the same host (only 4 hosts).
	seen := map[int]bool{}
	for _, o := range sel {
		if seen[o] {
			t.Fatal("duplicate OSD")
		}
		seen[o] = true
	}
}

func TestSelectInsufficientDomains(t *testing.T) {
	m := buildCluster(t, 5, 2)
	if _, err := m.Select(1, 6, TypeHost); !errors.Is(err, ErrNotEnoughDomains) {
		t.Fatalf("got %v", err)
	}
}

func TestSelectUnknownDomain(t *testing.T) {
	m := buildCluster(t, 3, 1)
	if _, err := m.Select(1, 2, "datacenter"); !errors.Is(err, ErrUnknownDomain) {
		t.Fatalf("got %v", err)
	}
}

func TestSetOutExcludesOSD(t *testing.T) {
	m := buildCluster(t, 15, 2)
	sel, _ := m.Select(9, 12, TypeHost)
	victim := sel[0]
	m.SetOut(victim, true)
	sel2, err := m.Select(9, 12, TypeHost)
	if err != nil {
		t.Fatal(err)
	}
	for _, o := range sel2 {
		if o == victim {
			t.Fatal("out OSD still selected")
		}
	}
	// Bring it back: mapping returns to the original.
	m.SetOut(victim, false)
	sel3, _ := m.Select(9, 12, TypeHost)
	for i := range sel {
		if sel[i] != sel3[i] {
			t.Fatal("mapping did not return after SetOut(false)")
		}
	}
}

func TestDistributionRoughlyUniform(t *testing.T) {
	m := buildCluster(t, 10, 2)
	counts := make([]int, len(m.osds))
	const pgs = 4000
	for seed := uint64(0); seed < pgs; seed++ {
		sel, err := m.Select(seed, 3, TypeHost)
		if err != nil {
			t.Fatal(err)
		}
		for _, o := range sel {
			counts[o]++
		}
	}
	mean := float64(pgs*3) / float64(len(m.osds))
	for id, c := range counts {
		if float64(c) < mean*0.7 || float64(c) > mean*1.3 {
			t.Fatalf("osd %d has %d placements, mean %.0f — distribution too skewed", id, c, mean)
		}
	}
}

func TestWeightBias(t *testing.T) {
	b := NewBuilder()
	_ = b.AddHost("h1", "")
	_ = b.AddHost("h2", "")
	heavy, _ := b.AddOSD("h1", 4.0)
	light, _ := b.AddOSD("h2", 1.0)
	m := b.Build()
	hc, lc := 0, 0
	for seed := uint64(0); seed < 2000; seed++ {
		sel, err := m.Select(seed, 1, TypeOSD)
		if err != nil {
			t.Fatal(err)
		}
		switch sel[0] {
		case heavy:
			hc++
		case light:
			lc++
		}
	}
	// Expect roughly 4:1; accept 2.5:1 as a loose bound.
	if float64(hc) < 2.5*float64(lc) {
		t.Fatalf("weight bias too weak: heavy=%d light=%d", hc, lc)
	}
}

func TestRacks(t *testing.T) {
	b := NewBuilder()
	_ = b.AddRack("r1")
	_ = b.AddRack("r2")
	_ = b.AddHost("h1", "r1")
	_ = b.AddHost("h2", "r1")
	_ = b.AddHost("h3", "r2")
	_ = b.AddHost("h4", "r2")
	for _, h := range []string{"h1", "h2", "h3", "h4"} {
		if _, err := b.AddOSD(h, 1); err != nil {
			t.Fatal(err)
		}
	}
	m := b.Build()
	racks := rackNames(m)
	if racks[0] != "r1" || racks[3] != "r2" {
		t.Fatal("rack mapping wrong")
	}
	for seed := uint64(0); seed < 50; seed++ {
		sel, err := m.Select(seed, 2, TypeRack)
		if err != nil {
			t.Fatal(err)
		}
		if racks[sel[0]] == racks[sel[1]] {
			t.Fatal("rack domain violated")
		}
	}
}

// rackNames maps every OSD under a rack to the rack's name, read off the
// map's tree: racks as names, independent of the bucket numbers Select
// compares.
func rackNames(m *Map) map[int]string {
	racks := map[int]string{}
	for _, rack := range m.Root.Children {
		if rack.Type != TypeRack {
			continue
		}
		for _, host := range rack.Children {
			for _, osd := range host.Children {
				racks[osd.OSDID] = rack.Name
			}
		}
	}
	return racks
}

// TestDuplicateHostRejected: a host name is added once. The cluster adds
// each host to the map before it builds the host's NIC, so this is the
// one duplicate check a cluster's hosts pass.
func TestDuplicateHostRejected(t *testing.T) {
	b := NewBuilder()
	if err := b.AddHost("h", ""); err != nil {
		t.Fatal(err)
	}
	if err := b.AddHost("h", ""); err == nil {
		t.Fatal("duplicate host accepted")
	}
}

func TestBuilderErrors(t *testing.T) {
	b := NewBuilder()
	if err := b.AddHost("x", "norack"); err == nil {
		t.Fatal("unknown rack accepted")
	}
	if _, err := b.AddOSD("nohost", 1); err == nil {
		t.Fatal("unknown host accepted")
	}
}

// referenceSelect is straw2 selection written the direct way: every draw
// hashes all three rounds, turns the hash into a float and, with unequal
// weights, takes its log; failure domains are compared by name. Select
// must pick exactly what it picks.
func referenceSelect(m *Map, seed uint64, n int, failureDomain string) ([]int, error) {
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
	var cands []candidate
	uniform := true
	racks := rackNames(m)
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
			key = racks[id]
			if key == "" {
				key = m.hostOf[id] // flat maps: host acts as rack
			}
		}
		if len(cands) > 0 && node.Weight != cands[0].weight {
			uniform = false
		}
		cands = append(cands, candidate{domainKey: key, osd: id, itemKey: NameKey(node.Name), weight: node.Weight})
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

func hash3(a, b, c uint64) uint64 {
	return splitmix64(splitmix64(splitmix64(a)^b) ^ c)
}

// strawDraw is the straw2 "length" for an item: higher wins. draw =
// ln(u)/weight with u uniform in (0,1]; items with larger weight win
// proportionally more often.
func strawDraw(seed uint64, itemKey uint64, r int, weight float64) float64 {
	if weight <= 0 {
		return math.Inf(-1)
	}
	return math.Log(strawU(seed, itemKey, r)) / weight
}

// strawU is the uniform variate behind strawDraw. ln is strictly
// monotonic, so with equal weights argmax ln(u)/w == argmax u.
func strawU(seed uint64, itemKey uint64, r int) float64 {
	h := hash3(seed, itemKey, uint64(r))
	return (float64(h>>11) + 1) / float64(1<<53) // (0, 1]
}

// shapeMap builds racks × hostsPerRack hosts under racks plus flatHosts
// hosts under the root, osdsPerHost OSDs each. weight(i) gives OSD i's
// weight.
func shapeMap(t testing.TB, racks, hostsPerRack, flatHosts, osdsPerHost int, weight func(i int) float64) *Map {
	t.Helper()
	b := NewBuilder()
	osd := 0
	addHost := func(name, rack string) {
		if err := b.AddHost(name, rack); err != nil {
			t.Fatal(err)
		}
		for d := 0; d < osdsPerHost; d++ {
			if _, err := b.AddOSD(name, weight(osd)); err != nil {
				t.Fatal(err)
			}
			osd++
		}
	}
	// Flat hosts first and last, so rack and flat buckets interleave.
	for h := 0; h < flatHosts/2; h++ {
		addHost(fmt.Sprintf("flat%d", h), "")
	}
	for r := 0; r < racks; r++ {
		rack := fmt.Sprintf("rack%d", r)
		if err := b.AddRack(rack); err != nil {
			t.Fatal(err)
		}
		for h := 0; h < hostsPerRack; h++ {
			addHost(fmt.Sprintf("r%dh%d", r, h), rack)
		}
	}
	for h := flatHosts / 2; h < flatHosts; h++ {
		addHost(fmt.Sprintf("flat%d", h), "")
	}
	return b.Build()
}

// errKind names the sentinel an error wraps, so selections that fail can
// be compared by kind.
func errKind(err error) string {
	switch {
	case err == nil:
		return "nil"
	case errors.Is(err, ErrNotEnoughDomains):
		return "not-enough-domains"
	case errors.Is(err, ErrUnknownDomain):
		return "unknown-domain"
	}
	return "other: " + err.Error()
}

func checkAgainstReference(t testing.TB, m *Map, seed uint64, n int, domain string) {
	t.Helper()
	got, gotErr := m.Select(seed, n, domain)
	want, wantErr := referenceSelect(m, seed, n, domain)
	if errKind(gotErr) != errKind(wantErr) || !slices.Equal(got, want) {
		t.Fatalf("Select(%d, %d, %q) = %v, %v; reference %v, %v", seed, n, domain, got, gotErr, want, wantErr)
	}
}

func TestSelectMatchesReference(t *testing.T) {
	one := func(int) float64 { return 1 }
	shapes := []struct {
		name string
		m    *Map
	}{
		{"flat 30x2", shapeMap(t, 0, 0, 30, 2, one)},
		{"flat 20x3", shapeMap(t, 0, 0, 20, 3, one)},
		{"4 racks", shapeMap(t, 4, 3, 0, 2, one)},
		{"mixed rack/flat", shapeMap(t, 2, 3, 4, 2, one)},
		// Weights 0 to 3.5; weight-0 OSDs never place.
		{"weighted flat", shapeMap(t, 0, 0, 10, 3, func(i int) float64 { return float64(i%8) / 2 })},
		{"weighted racks", shapeMap(t, 3, 2, 2, 3, func(i int) float64 { return 1 + float64(i%3) })},
	}
	seeds := uint64(300)
	if testing.Short() {
		seeds = 30
	}
	for _, sh := range shapes {
		for out := 0; out <= 3; out++ {
			ids := make([]int, out)
			for j := range ids {
				ids[j] = (j*13 + out) % len(sh.m.osds)
				sh.m.SetOut(ids[j], true)
			}
			for _, domain := range []string{TypeOSD, TypeHost, TypeRack, "datacenter"} {
				for _, n := range []int{1, 3, 6, 12, 14} {
					for seed := uint64(0); seed < seeds; seed++ {
						checkAgainstReference(t, sh.m, seed*0x9e3779b97f4a7c15, n, domain)
					}
				}
			}
			for _, id := range ids {
				sh.m.SetOut(id, false)
			}
		}
	}
}

// FuzzSelectMatchesReference draws the map shape, the weights, the out
// mask, the domain, n and the seed from the input; up to 36 hosts of 4
// OSDs, so the candidate list also outgrows Select's stack buffer.
func FuzzSelectMatchesReference(f *testing.F) {
	f.Add(uint8(0), uint8(0), uint8(15), uint8(1), []byte(nil), uint64(0), uint8(1), uint8(12), uint64(42))
	f.Add(uint8(4), uint8(2), uint8(0), uint8(1), []byte(nil), uint64(0b1011), uint8(2), uint8(4), uint64(7))
	f.Add(uint8(2), uint8(3), uint8(4), uint8(2), []byte{16, 32, 0, 8}, uint64(1<<40|3), uint8(0), uint8(14), uint64(9))
	f.Add(uint8(3), uint8(7), uint8(7), uint8(3), []byte{255, 1}, uint64(0), uint8(3), uint8(6), uint64(1))
	f.Fuzz(func(t *testing.T, racks, hostsPerRack, flatHosts, osdsPerHost uint8, weights []byte, outMask uint64, domain, n uint8, seed uint64) {
		weight := func(int) float64 { return 1 }
		if len(weights) > 0 {
			weight = func(i int) float64 { return float64(weights[i%len(weights)]) / 16 }
		}
		m := shapeMap(t, int(racks%4), int(hostsPerRack%8), int(flatHosts%16), 1+int(osdsPerHost%4), weight)
		for id := 0; id < len(m.osds); id++ {
			if outMask>>(id%64)&1 != 0 {
				m.SetOut(id, true)
			}
		}
		domains := []string{TypeOSD, TypeHost, TypeRack, "datacenter"}
		checkAgainstReference(t, m, seed, int(n%16), domains[domain%4])
	})
}
