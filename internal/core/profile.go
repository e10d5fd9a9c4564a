package core

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"os"

	"repro/internal/bluestore"
	"repro/internal/erasure"
	"repro/internal/erasure/codecache"
)

// Fault levels and localities (§3.2). Corruption extends the prototype's
// two levels with the silent-corruption fault class of CORDS [14], which
// the paper's related work discusses: wrong bytes, no I/O error, caught
// only by a deep scrub.
const (
	FaultLevelNode       = "node"
	FaultLevelDevice     = "device"
	FaultLevelCorruption = "corruption"

	LocalitySameHost  = "same-host"
	LocalityDiffHosts = "diff-hosts"
)

// Cache scheme names (Table 2).
const (
	SchemeKVOptimized   = "kv-optimized"
	SchemeDataOptimized = "data-optimized"
	SchemeAutotune      = "autotune"
)

// ErrInvalidProfile wraps all profile validation failures.
var ErrInvalidProfile = errors.New("core: invalid profile")

// ClusterSpec sizes the DSS under test.
type ClusterSpec struct {
	Hosts            int     `json:"hosts"`
	OSDsPerHost      int     `json:"osds_per_host"`
	DeviceCapacityGB int     `json:"device_capacity_gb"`
	NetworkGbps      float64 `json:"network_gbps"`
	// Racks, when > 0, spreads hosts over rack buckets, enabling the
	// "rack" failure domain.
	Racks int `json:"racks,omitempty"`
}

// PoolSpec is the erasure-coded pool configuration (Table 1 rows: EC
// plugin/technique, parameters, failure domain, pg_num, stripe_unit).
type PoolSpec struct {
	Name          string `json:"name"`
	Plugin        string `json:"plugin"` // e.g. jerasure_reed_sol_van, jerasure_cauchy_orig, isa_reed_sol_van, clay
	K             int    `json:"k"`
	M             int    `json:"m"`
	D             int    `json:"d,omitempty"` // Clay helpers, LRC locality or SHEC c; 0 takes codecache.Normalize's default
	PGNum         int    `json:"pg_num"`
	StripeUnit    int64  `json:"stripe_unit"`
	FailureDomain string `json:"failure_domain"` // osd, host, rack
}

// BackendSpec is the storage-backend configuration (Table 1 rows: backend
// and BlueStore cache).
type BackendSpec struct {
	// CacheScheme selects a named Table 2 scheme; CustomRatios overrides
	// it when non-nil.
	CacheScheme  string                 `json:"cache_scheme"`
	CustomRatios *bluestore.CacheConfig `json:"custom_ratios,omitempty"`
	CacheGB      float64                `json:"cache_gb"`
	MinAllocSize int64                  `json:"min_alloc_size"`
}

// WorkloadSpec is the client workload (§4.1).
type WorkloadSpec struct {
	Objects    int     `json:"objects"`
	ObjectSize int64   `json:"object_size"`
	SizeJitter float64 `json:"size_jitter"`
	Seed       int64   `json:"seed"`
	// Payload stores and verifies real bytes end to end; practical for
	// small workloads only.
	Payload bool `json:"payload,omitempty"`
}

// FaultSpec describes one fault-injection action.
type FaultSpec struct {
	Level     string  `json:"level"`              // node, device or corruption
	Count     int     `json:"count"`              // nodes or devices to fail, or chunks to corrupt
	Locality  string  `json:"locality,omitempty"` // same-host or diff-hosts (device level)
	AtSeconds float64 `json:"at_seconds"`         // injection time
	OSDs      []int   `json:"osds,omitempty"`     // explicit targets override planning
}

// TuningSpec overrides selected Ceph-style daemon settings. Zero values
// keep cluster.DefaultCostModel's defaults (600 s
// mon_osd_down_out_interval, osd_max_backfills=1, a 0.13 recovery
// bandwidth share, osd_recovery_max_active=10).
type TuningSpec struct {
	MarkOutIntervalSeconds float64 `json:"mark_out_interval_seconds,omitempty"`
	MaxBackfills           int     `json:"max_backfills,omitempty"`
	RecoveryBWFraction     float64 `json:"recovery_bw_fraction,omitempty"`
	RecoveryMaxActive      int     `json:"recovery_max_active,omitempty"`
}

// Profile is a complete experimental profile, the unit the EC Manager
// manages (§3, Controller).
type Profile struct {
	Name     string       `json:"name"`
	Cluster  ClusterSpec  `json:"cluster"`
	Pool     PoolSpec     `json:"pool"`
	Backend  BackendSpec  `json:"backend"`
	Workload WorkloadSpec `json:"workload"`
	Faults   []FaultSpec  `json:"faults"`
	Tuning   TuningSpec   `json:"tuning,omitempty"`
}

// DefaultProfile is the paper's baseline: a 31-VM-shaped cluster (30 OSD
// hosts x 2 NVMe volumes), RS(12,9), pg_num=256, 4 MiB stripe unit,
// autotuned cache, the 10,000 x 64 MB workload, and one OSD-host failure.
func DefaultProfile() Profile {
	return Profile{
		Name: "paper-default",
		Cluster: ClusterSpec{
			Hosts:            30,
			OSDsPerHost:      2,
			DeviceCapacityGB: 100,
			// m5.xlarge sustained baseline; the 25 Gb/s the paper quotes
			// is the burst/placement-group figure.
			NetworkGbps: 1.25,
		},
		Pool: PoolSpec{
			Name:          "ecpool",
			Plugin:        "jerasure_reed_sol_van",
			K:             9,
			M:             3,
			PGNum:         256,
			StripeUnit:    4 << 20,
			FailureDomain: "host",
		},
		Backend: BackendSpec{
			CacheScheme:  SchemeAutotune,
			CacheGB:      3,
			MinAllocSize: 4096,
		},
		Workload: WorkloadSpec{
			Objects:    10000,
			ObjectSize: 64 << 20,
		},
		Faults: []FaultSpec{{Level: FaultLevelNode, Count: 1, AtSeconds: 10}},
	}
}

// ClayProfile is the baseline with the Clay(12,9,11) pool.
func ClayProfile() Profile {
	p := DefaultProfile()
	p.Name = "paper-default-clay"
	p.Pool.Plugin = "clay"
	p.Pool.D = 11
	return p
}

// LayoutKey hashes exactly the profile fields that shape a populated
// cluster's on-disk state: topology, pool/EC geometry, the backend's
// allocation granularity, and the workload. Two profiles with equal keys
// produce byte-identical clusters after the populate phase, so one can
// run on a copy-on-write fork of the other's snapshot. Recovery-side
// knobs — cache scheme and size, network bandwidth, faults, tuning — are
// deliberately excluded. Fields are normalized the same way the cluster
// and the code registry resolve them (D through codecache.Normalize), so
// e.g. Clay with D=0 and D=k+m-1 share a key.
func (p Profile) LayoutKey() string {
	capGB := p.Cluster.DeviceCapacityGB
	if capGB <= 0 {
		capGB = 100
	}
	d := codecache.Normalize(codecache.Spec{Plugin: p.Pool.Plugin, K: p.Pool.K, M: p.Pool.M, D: p.Pool.D}).D
	fd := p.Pool.FailureDomain
	if fd == "" {
		fd = "host"
	}
	minAlloc := p.Backend.MinAllocSize
	if minAlloc <= 0 {
		minAlloc = 4096
	}
	sum := sha256.Sum256([]byte(fmt.Sprintf(
		"layout/v1|%d|%d|%d|%d|%s|%s|%d|%d|%d|%d|%d|%s|%d|%d|%d|%g|%d|%t",
		p.Cluster.Hosts, p.Cluster.OSDsPerHost, capGB, p.Cluster.Racks,
		p.Pool.Name, p.Pool.Plugin, p.Pool.K, p.Pool.M, d, p.Pool.PGNum, p.Pool.StripeUnit, fd,
		minAlloc,
		p.Workload.Objects, p.Workload.ObjectSize, p.Workload.SizeJitter, p.Workload.Seed, p.Workload.Payload,
	)))
	return hex.EncodeToString(sum[:])
}

// ScaleWorkload divides the object count by factor (>= 1), preserving
// per-object behaviour; used to run paper-shaped experiments quickly. The
// mark-out interval is scaled down with the workload so the ratio of the
// checking period to the EC recovery period — which the paper's
// normalized figures depend on — is preserved at any scale.
func (p Profile) ScaleWorkload(factor int) Profile {
	if factor > 1 {
		p.Workload.Objects = max(p.Workload.Objects/factor, 1)
		base := p.Tuning.MarkOutIntervalSeconds
		if base == 0 {
			base = 600
		}
		p.Tuning.MarkOutIntervalSeconds = base / float64(factor)
	}
	return p
}

// Validate checks the profile against the white-box fault-tolerance rule
// and basic geometry constraints.
func (p *Profile) Validate() error {
	bad := func(format string, args ...any) error {
		return fmt.Errorf("%w: %s", ErrInvalidProfile, fmt.Sprintf(format, args...))
	}
	if p.Cluster.Hosts <= 0 || p.Cluster.OSDsPerHost <= 0 {
		return bad("cluster needs hosts and osds per host")
	}
	if p.Pool.K <= 0 || p.Pool.M <= 0 {
		return bad("pool needs k > 0 and m > 0")
	}
	if p.Pool.PGNum <= 0 {
		return bad("pool needs pg_num >= 1")
	}
	if p.Pool.StripeUnit <= 0 {
		return bad("pool needs a positive stripe_unit")
	}
	found := false
	for _, name := range erasure.Plugins() {
		if name == p.Pool.Plugin {
			found = true
			break
		}
	}
	if !found {
		return bad("unknown EC plugin %q (have %v)", p.Pool.Plugin, erasure.Plugins())
	}
	switch p.Pool.FailureDomain {
	case "osd", "host", "rack", "":
	default:
		return bad("unknown failure domain %q", p.Pool.FailureDomain)
	}
	if p.Pool.FailureDomain == "host" || p.Pool.FailureDomain == "" {
		if p.Cluster.Hosts < p.Pool.K+p.Pool.M {
			return bad("need >= n=%d hosts for host failure domain, have %d", p.Pool.K+p.Pool.M, p.Cluster.Hosts)
		}
	}
	if p.Workload.Objects <= 0 || p.Workload.ObjectSize <= 0 {
		return bad("workload needs objects and object size")
	}
	switch p.Backend.CacheScheme {
	case SchemeKVOptimized, SchemeDataOptimized, SchemeAutotune, "":
	default:
		if p.Backend.CustomRatios == nil {
			return bad("unknown cache scheme %q", p.Backend.CacheScheme)
		}
	}
	for i, f := range p.Faults {
		switch f.Level {
		case FaultLevelNode, FaultLevelDevice, FaultLevelCorruption:
		default:
			return bad("fault %d: unknown level %q", i, f.Level)
		}
		if f.Count <= 0 && len(f.OSDs) == 0 {
			return bad("fault %d: needs count or explicit osds", i)
		}
		switch f.Locality {
		case "", LocalitySameHost, LocalityDiffHosts:
		default:
			return bad("fault %d: unknown locality %q", i, f.Locality)
		}
		// White-box guarantee (§3.2): never exceed the fault tolerance
		// within the failure domain.
		if f.Level == FaultLevelDevice && f.Count > p.Pool.M {
			return bad("fault %d: %d device failures exceed m=%d", i, f.Count, p.Pool.M)
		}
		if f.Level == FaultLevelNode && f.Count > p.Pool.M {
			return bad("fault %d: %d node failures exceed m=%d", i, f.Count, p.Pool.M)
		}
		if _, err := injectionTime(f.AtSeconds); err != nil {
			return fmt.Errorf("fault %d: %w", i, err)
		}
	}
	return nil
}

// MarshalJSON-friendly load/save helpers.

// LoadProfile reads and validates a profile from a JSON file.
func LoadProfile(path string) (Profile, error) {
	var p Profile
	data, err := os.ReadFile(path)
	if err != nil {
		return p, err
	}
	if err := json.Unmarshal(data, &p); err != nil {
		return p, fmt.Errorf("core: parsing %s: %w", path, err)
	}
	if err := p.Validate(); err != nil {
		return p, err
	}
	return p, nil
}

// SaveProfile writes a profile as indented JSON.
func SaveProfile(p Profile, path string) error {
	data, err := json.MarshalIndent(p, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// ConfigSurface returns the Table 1 configuration dimensions this
// framework can vary, for documentation and the coverage test.
func ConfigSurface() map[string][]string {
	return map[string][]string{
		"storage backend": {"bluestore"},
		"bluestore cache": {SchemeKVOptimized, SchemeDataOptimized, SchemeAutotune, "custom ratios"},
		"interface":       {"rados"},
		"pg_num":          {"customized"},
		"ec plugin":       erasure.Plugins(),
		"ec technique":    {"reed_sol_van", "cauchy_orig", "clay"},
		"failure domain":  {"osd", "host", "rack"},
		"device class":    {"virtual nvme"},
		"ec parameters":   {"k", "m", "d", "stripe_unit"},
		"fault level":     {FaultLevelNode, FaultLevelDevice, FaultLevelCorruption},
		"fault locality":  {LocalitySameHost, LocalityDiffHosts},
	}
}
