package core

import (
	"fmt"
	"time"

	"repro/internal/bluestore"
	"repro/internal/cluster"
	"repro/internal/erasure"
	"repro/internal/erasure/codecache"
	"repro/internal/simnet"
)

// ECManager translates an experimental profile into concrete cluster and
// pool configurations — the Controller sub-module that "manages all
// EC-related configurations in an experimental profile" (§3).
type ECManager struct {
	profile Profile
}

// NewECManager validates the profile and wraps it.
func NewECManager(p Profile) (*ECManager, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return &ECManager{profile: p}, nil
}

// Profile returns the managed profile.
func (m *ECManager) Profile() Profile { return m.profile }

// cacheConfig resolves the profile's cache scheme to BlueStore ratios.
func (m *ECManager) cacheConfig() (bluestore.CacheConfig, error) {
	b := m.profile.Backend
	if b.CustomRatios != nil {
		return *b.CustomRatios, nil
	}
	switch b.CacheScheme {
	case SchemeKVOptimized:
		return bluestore.CacheKVOptimized, nil
	case SchemeDataOptimized:
		return bluestore.CacheDataOptimized, nil
	case SchemeAutotune, "":
		return bluestore.CacheAutotune, nil
	}
	return bluestore.CacheConfig{}, fmt.Errorf("%w: cache scheme %q", ErrInvalidProfile, b.CacheScheme)
}

// ClusterConfig builds the cluster.Config for the profile.
func (m *ECManager) ClusterConfig(log cluster.LogFunc) (cluster.Config, error) {
	p := m.profile
	cache, err := m.cacheConfig()
	if err != nil {
		return cluster.Config{}, err
	}
	cfg := cluster.DefaultConfig()
	cfg.Hosts = p.Cluster.Hosts
	cfg.OSDsPerHost = p.Cluster.OSDsPerHost
	cfg.Racks = p.Cluster.Racks
	if p.Cluster.DeviceCapacityGB > 0 {
		cfg.DeviceCapacity = int64(p.Cluster.DeviceCapacityGB) << 30
	}
	if p.Cluster.NetworkGbps > 0 {
		cfg.Net = simnet.Config{
			BandwidthBytesPerSec: p.Cluster.NetworkGbps * 1e9 / 8,
			Latency:              simnet.DefaultConfig().Latency,
		}
	}
	cfg.Store = bluestore.DefaultConfig()
	cfg.Store.Cache = cache
	if p.Backend.CacheGB > 0 {
		cfg.Store.CacheBytes = int64(p.Backend.CacheGB * float64(1<<30))
	}
	if p.Backend.MinAllocSize > 0 {
		cfg.Store.MinAllocSize = p.Backend.MinAllocSize
	}
	cfg.Tuning = cluster.Tuning{
		MarkOutInterval:    time.Duration(p.Tuning.MarkOutIntervalSeconds * float64(time.Second)),
		MaxBackfills:       p.Tuning.MaxBackfills,
		RecoveryMaxActive:  p.Tuning.RecoveryMaxActive,
		RecoveryBWFraction: p.Tuning.RecoveryBWFraction,
	}
	cfg.Log = log
	return cfg, nil
}

// Code returns the erasure code for the profile's pool spec — the same
// registry-shared instance the cluster pool and every snapshot fork use,
// so callers computing durability or plan statistics hit the instance's
// warm plan/program caches.
func (m *ECManager) Code() (erasure.Code, error) {
	pc := m.PoolConfig()
	return codecache.Get(pc.Plugin, pc.K, pc.M, pc.D)
}

// PoolConfig builds the normalized pool configuration for the profile.
func (m *ECManager) PoolConfig() cluster.PoolConfig { return m.profile.poolConfig() }

// layout reads the profile's Layout off the cluster config built for it.
func (m *ECManager) layout(cfg cluster.Config) Layout {
	return Layout{
		Hosts: cfg.Hosts, OSDsPerHost: cfg.OSDsPerHost, Racks: cfg.Racks,
		DeviceCapacity: cfg.DeviceCapacity, MinAllocSize: cfg.Store.MinAllocSize,
		Pool: m.PoolConfig(), Workload: m.profile.Workload,
	}
}
