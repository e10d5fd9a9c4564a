package core

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"

	"repro/internal/bluestore"
	"repro/internal/cluster"
	"repro/internal/erasure"
	"repro/internal/erasure/codecache"
	"repro/internal/workload"
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
	D             int    `json:"d,omitempty"` // Clay helpers, LRC locality or SHEC c; 0 takes the plugin's registered default
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
// keep the defaults cluster.Tuning.Normalize fills in.
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

// Layout is what shapes a populated cluster's on-disk state: the geometry
// and allocation granularity of the cluster config Populate builds, the
// normalized pool config it creates the pool from, and the workload. Two
// profiles with equal layouts populate byte-identical clusters, so one can
// run on a copy-on-write fork of the other's snapshot. Recovery-side knobs
// — cache scheme and size, network bandwidth, faults, tuning — are not
// part of it.
type Layout struct {
	Hosts, OSDsPerHost, Racks    int
	DeviceCapacity, MinAllocSize int64
	Pool                         cluster.PoolConfig
	Workload                     WorkloadSpec
}

// Layout validates the profile and returns its Layout.
func (p Profile) Layout() (Layout, error) {
	mgr, err := NewECManager(p)
	if err != nil {
		return Layout{}, err
	}
	cfg, err := mgr.ClusterConfig(nil)
	return mgr.layout(cfg), err
}

// ScaleWorkload divides the object count by factor (>= 1), preserving
// per-object behaviour; used to run paper-shaped experiments quickly. The
// mark-out interval — the profile's, or cluster.Tuning's default — is
// scaled down with the workload so the ratio of the checking period to
// the EC recovery period, which the paper's normalized figures depend on,
// is preserved at any scale.
func (p Profile) ScaleWorkload(factor int) Profile {
	if factor > 1 {
		p.Workload.Objects = max(p.Workload.Objects/factor, 1)
		base := p.Tuning.MarkOutIntervalSeconds
		if base == 0 {
			base = cluster.Tuning{}.Normalize().MarkOutInterval.Seconds()
		}
		p.Tuning.MarkOutIntervalSeconds = base / float64(factor)
	}
	return p
}

// Validate checks the profile against the white-box fault-tolerance rule
// and basic geometry constraints. An optional numeric field keeps its
// default at zero; a negative, non-finite or out-of-range value is an
// error naming the field.
func (p *Profile) Validate() error {
	bad := func(format string, args ...any) error {
		return fmt.Errorf("%w: %s", ErrInvalidProfile, fmt.Sprintf(format, args...))
	}
	c, b, t := p.Cluster, p.Backend, p.Tuning
	if c.Hosts <= 0 || c.OSDsPerHost <= 0 {
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
	var ratios bluestore.CacheConfig
	if b.CustomRatios != nil {
		ratios = *b.CustomRatios
	}
	// GB-valued fields become int64 byte counts. Below 1 Mb/s a recovery's
	// simulated span, sampled every 30 s, outgrows any run; a week of
	// mark-out interval is about twenty thousand samples.
	const huge, maxGB, week = math.MaxFloat64, math.MaxInt64 >> 30, 7 * 24 * 3600
	for _, f := range []struct {
		field          string
		v, least, most float64 // 0 is always allowed
	}{
		{"cluster racks", float64(c.Racks), 0, huge},
		{"cluster device_capacity_gb", float64(c.DeviceCapacityGB), 0, maxGB},
		{"cluster network_gbps", c.NetworkGbps, 0.001, huge},
		{"pool d", float64(p.Pool.D), 0, huge},
		{"backend custom_ratios kv", ratios.KVRatio, 0, huge},
		{"backend custom_ratios meta", ratios.MetaRatio, 0, huge},
		{"backend custom_ratios data", ratios.DataRatio, 0, huge},
		{"backend cache_gb", b.CacheGB, 0, maxGB},
		{"backend min_alloc_size", float64(b.MinAllocSize), 0, huge},
		{"tuning mark_out_interval_seconds", t.MarkOutIntervalSeconds, 0, week},
		{"tuning max_backfills", float64(t.MaxBackfills), 0, huge},
		{"tuning recovery_max_active", float64(t.RecoveryMaxActive), 0, huge},
		{"tuning recovery_bw_fraction", t.RecoveryBWFraction, 0, 1},
	} {
		if !(f.v == 0 || f.v >= f.least && f.v <= f.most) {
			return bad("%s %g is neither 0 nor in [%g, %g]", f.field, f.v, f.least, f.most)
		}
	}
	pc := p.poolConfig()
	code, err := codecache.Get(pc.Plugin, pc.K, pc.M, pc.D)
	if errors.Is(err, erasure.ErrUnknownPlugin) {
		return bad("unknown EC plugin %q (have %v)", pc.Plugin, erasure.Plugins())
	}
	if err != nil {
		return bad("pool: %v", err)
	}
	// The acting set spans n distinct failure domains.
	domains, n := c.Hosts, code.N()
	switch pc.FailureDomain {
	case "host":
	case "osd":
		domains *= c.OSDsPerHost
	case "rack":
		if c.Racks == 0 {
			return bad("rack failure domain needs cluster racks > 0")
		}
		domains = min(c.Racks, c.Hosts)
	default:
		return bad("unknown failure domain %q", pc.FailureDomain)
	}
	if domains < n {
		return bad("need >= n=%d %ss for the %s failure domain, have %d", n, pc.FailureDomain, pc.FailureDomain, domains)
	}
	if err := p.workloadSpec().Validate(); err != nil {
		return bad("%v", err)
	}
	switch b.CacheScheme {
	case SchemeKVOptimized, SchemeDataOptimized, SchemeAutotune, "":
	default:
		if b.CustomRatios == nil {
			return bad("unknown cache scheme %q", b.CacheScheme)
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
		// Corruption targets chunks, which the plan picks: explicit osds
		// would leave it nothing to corrupt.
		if f.Level == FaultLevelCorruption && len(f.OSDs) > 0 {
			return bad("fault %d: a corruption fault takes a count, not osds", i)
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

// poolConfig is the normalized config Populate creates the pool from.
// PoolSpec is cluster.PoolConfig with JSON tags, field for field.
func (p *Profile) poolConfig() cluster.PoolConfig { return cluster.PoolConfig(p.Pool).Normalize() }

// workloadSpec is the workload Populate writes.
func (p *Profile) workloadSpec() workload.Spec {
	w := p.Workload
	return workload.Spec{NamePrefix: "obj", Count: w.Objects, ObjectSize: w.ObjectSize, SizeJitter: w.SizeJitter, Seed: w.Seed}
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
